// Task and probe synthesis over generated databases: the loadtest harness
// drives Engine sessions with these NLQ+gold tasks (TSQs are then derived
// by dataset.SynthesizeTSQ, exactly as the simulation study does), and the
// scale sweep measures verification cost with the existence probes.
package loadgen

import (
	"fmt"
	"math/rand"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
)

// catColumn returns the table's categorical column plan.
func (tp *tablePlan) catColumn() *colPlan {
	for i := range tp.cols {
		if tp.cols[i].kind == colCat {
			return &tp.cols[i]
		}
	}
	return nil
}

// numColumn returns the table's measure column plan.
func (tp *tablePlan) numColumn() *colPlan {
	for i := range tp.cols {
		if tp.cols[i].kind == colNum {
			return &tp.cols[i]
		}
	}
	return nil
}

// headValue picks a zipf-head dictionary value: the low codes carry most of
// the mass, so equality literals drawn from them select real data.
func headValue(r *rand.Rand, dict []string) string {
	head := len(dict)
	if head > 8 {
		head = 8
	}
	return dict[r.Intn(head)]
}

// Tasks synthesizes up to n NLQ+gold tasks over the generated database,
// seeded for reproducibility. Gold queries are built from the recipe's
// schema, parsed through dataset.NewTask, and executed once; tasks whose
// gold result is empty are discarded (the simulation study removed those,
// §5.4.1), so every returned task can feed dataset.SynthesizeTSQ.
func (g *Generated) Tasks(n int, seed int64) ([]*dataset.Task, error) {
	r := rand.New(rand.NewSource(seed))
	var out []*dataset.Task
	for attempt := 0; len(out) < n && attempt < 6*n; attempt++ {
		nlq, sql, lits := g.taskTemplate(r, attempt%4)
		task, err := dataset.NewTask(fmt.Sprintf("gen-%d", attempt), g.DB, nlq, sql, lits)
		if err != nil {
			return nil, err
		}
		res, err := task.GoldResult()
		if err != nil {
			return nil, fmt.Errorf("loadgen: task %s gold: %w", task.ID, err)
		}
		if len(res.Rows) == 0 {
			continue
		}
		out = append(out, task)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: no task template produced a non-empty gold result")
	}
	return out, nil
}

// taskTemplate renders one of four gold-query shapes covering the paper's
// difficulty classes: flat selection (Medium), join selection (Medium),
// grouped count with HAVING (Hard), and numeric range (Medium).
func (g *Generated) taskTemplate(r *rand.Rand, shape int) (nlq, sql string, lits []sqlir.Value) {
	p := g.plan
	ti := r.Intn(len(p.tables))
	tp := &p.tables[ti]
	switch shape {
	case 1, 2:
		if len(tp.parents) > 0 {
			parent := &p.tables[tp.parents[r.Intn(len(tp.parents))]]
			if shape == 2 {
				// Grouped count over the FK edge.
				k := 1 + r.Intn(3)
				nlq = fmt.Sprintf("list each %s name and the number of %s with more than %d %s",
					parent.entity, tp.name, k, tp.name)
				sql = fmt.Sprintf(
					"SELECT t2.name, COUNT(*) FROM %s AS t1 JOIN %s AS t2 ON t1.%s_id = t2.id GROUP BY t2.name HAVING COUNT(*) > %d",
					tp.name, parent.name, parent.name, k)
				lits = []sqlir.Value{sqlir.NewInt(k)}
				return nlq, sql, lits
			}
			// Selection through the parent's categorical column.
			cat := parent.catColumn()
			lit := headValue(r, cat.dict)
			nlq = fmt.Sprintf("list the names of %s whose %s has %s %s", tp.name, parent.entity, cat.name, lit)
			sql = fmt.Sprintf(
				"SELECT t1.name FROM %s AS t1 JOIN %s AS t2 ON t1.%s_id = t2.id WHERE t2.%s = '%s'",
				tp.name, parent.name, parent.name, cat.name, lit)
			lits = []sqlir.Value{sqlir.NewText(lit)}
			return nlq, sql, lits
		}
		fallthrough
	case 3:
		nm := tp.numColumn()
		k := nm.lo + nm.span/4 + r.Intn(nm.span/2+1)
		nlq = fmt.Sprintf("list the names of %s with %s greater than %d", tp.name, nm.name, k)
		sql = fmt.Sprintf("SELECT t1.name FROM %s AS t1 WHERE t1.%s > %d", tp.name, nm.name, k)
		lits = []sqlir.Value{sqlir.NewInt(k)}
		return nlq, sql, lits
	default:
		cat := tp.catColumn()
		lit := headValue(r, cat.dict)
		nlq = fmt.Sprintf("list the names of %s with %s %s", tp.name, cat.name, lit)
		sql = fmt.Sprintf("SELECT t1.name FROM %s AS t1 WHERE t1.%s = '%s'", tp.name, cat.name, lit)
		lits = []sqlir.Value{sqlir.NewText(lit)}
		return nlq, sql, lits
	}
}

// pred builds a complete predicate on the catalog's column table.col (the
// ExistsQuery building block).
func pred(c *sqlir.Catalog, table, col string, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{
		Col: c.MustCol(table, col), ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

// Probes synthesizes n verification-shaped existence queries, seeded for
// reproducibility: selective equality + range probes over an FK join edge
// and grouped HAVING probes — the by-row and grouped shapes Duoquest's
// cascading verification executes hottest (§3.4). Roughly half the equality
// literals are drawn from the zipf tail or beyond the dictionary, so hits
// and misses both occur, as in real verification traffic.
func (g *Generated) Probes(n int, seed int64) []sqlexec.ExistsQuery {
	r := rand.New(rand.NewSource(seed))
	p := g.plan
	// Child tables with at least one FK edge, recipe order.
	var children []int
	for ti := range p.tables {
		if len(p.tables[ti].parents) > 0 {
			children = append(children, ti)
		}
	}
	probes := make([]sqlexec.ExistsQuery, 0, n)
	catalog := g.DB.Schema.Catalog()
	for i := 0; i < n; i++ {
		tp := &p.tables[children[r.Intn(len(children))]]
		parent := &p.tables[tp.parents[r.Intn(len(tp.parents))]]
		path, err := catalog.Path(tp.name, sqlir.JoinOn{Left: catalog.MustCol(tp.name, parent.name+"_id"), Right: catalog.MustCol(parent.name, "id")})
		if err != nil {
			panic(err) // the plan declares every foreign key it joins
		}
		cat := parent.catColumn()
		lit := cat.dict[r.Intn(len(cat.dict))]
		if r.Intn(4) == 0 {
			lit = lit + "-miss" // not interned: probes that cannot match
		}
		switch i % 3 {
		case 0: // equality + range over the join edge
			nm := tp.numColumn()
			probes = append(probes, sqlexec.ExistsQuery{
				From: path,
				Conj: sqlir.LogicAnd,
				Preds: []sqlir.Predicate{
					pred(catalog, parent.name, cat.name, sqlir.OpEq, sqlir.NewText(lit)),
					pred(catalog, tp.name, nm.name, sqlir.OpGt, sqlir.NewInt(nm.lo+r.Intn(nm.span+1))),
				},
			})
		case 1: // by-row style: exact name through the join
			name := fmt.Sprintf("%s-%06d", tp.entity, 1+r.Intn(2*tp.rows)) // half miss
			probes = append(probes, sqlexec.ExistsQuery{
				From: path,
				Conj: sqlir.LogicAnd,
				Preds: []sqlir.Predicate{
					pred(catalog, tp.name, "name", sqlir.OpEq, sqlir.NewText(name)),
				},
			})
		default: // grouped existence: GROUP BY parent id, HAVING COUNT
			probes = append(probes, sqlexec.ExistsQuery{
				From:    path,
				Conj:    sqlir.LogicAnd,
				Preds:   []sqlir.Predicate{pred(catalog, parent.name, cat.name, sqlir.OpEq, sqlir.NewText(lit))},
				GroupBy: []sqlir.ColumnRef{catalog.MustCol(parent.name, "id")},
				Havings: []sqlir.HavingExpr{{
					Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
					Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(2 + r.Intn(6)), ValSet: true,
				}},
			})
		}
	}
	return probes
}

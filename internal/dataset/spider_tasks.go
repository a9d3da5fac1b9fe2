package dataset

import (
	"fmt"
	"math/rand"

	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Benchmark is a generated Spider-like task suite (§5.4.1).
type Benchmark struct {
	Name      string
	Databases []*storage.Database
	Tasks     []*Task
}

// quota fixes the difficulty mix, matching the paper's filtered sets
// (Table 5 / Figure 11).
type quota struct{ easy, medium, hard int }

// SpiderDev generates the development benchmark: 20 databases, 589 tasks
// (239 easy, 252 medium, 98 hard).
func SpiderDev() *Benchmark {
	return generateBenchmark("spider-dev", 20, quota{239, 252, 98}, 1001)
}

// SpiderTest generates the test benchmark: 40 databases, 1247 tasks
// (524 easy, 481 medium, 242 hard).
func SpiderTest() *Benchmark {
	return generateBenchmark("spider-test", 40, quota{524, 481, 242}, 2002)
}

// generateBenchmark instantiates nDBs databases by cycling the domain specs
// with distinct seeds, generates a task pool per database, and samples the
// exact difficulty quotas.
func generateBenchmark(name string, nDBs int, q quota, seed int64) *Benchmark {
	bench := &Benchmark{Name: name}
	var builts []*builtDB
	for i := 0; i < nDBs; i++ {
		spec := spiderDomains[i%len(spiderDomains)]
		variant := i/len(spiderDomains) + 1
		b := buildDomain(spec, variant, seed+int64(i)*31)
		builts = append(builts, b)
		bench.Databases = append(bench.Databases, b.db)
	}

	// Per-database shares with remainders on the first databases.
	share := func(total, i int) int {
		base := total / nDBs
		if i < total%nDBs {
			base++
		}
		return base
	}

	rules := semrules.Default()
	for i, b := range builts {
		r := rand.New(rand.NewSource(seed + 7919*int64(i)))
		pool := generateTaskPool(b, r, rules)
		for _, diff := range []Difficulty{Easy, Medium, Hard} {
			want := 0
			switch diff {
			case Easy:
				want = share(q.easy, i)
			case Medium:
				want = share(q.medium, i)
			case Hard:
				want = share(q.hard, i)
			}
			got := 0
			for _, t := range pool[diff] {
				if got >= want {
					break
				}
				t.ID = fmt.Sprintf("%s/%s-%d", b.db.Name, diff, got+1)
				bench.Tasks = append(bench.Tasks, t)
				got++
			}
			if got < want {
				panic(fmt.Sprintf("dataset: %s: %s pool exhausted (%d < %d)",
					b.db.Name, diff, got, want))
			}
		}
	}
	return bench
}

// generateTaskPool enumerates template instances on one database, keeping
// only tasks whose gold query is semantically clean and non-empty.
func generateTaskPool(b *builtDB, r *rand.Rand, rules *semrules.RuleSet) map[Difficulty][]*Task {
	g := &taskGen{b: b, r: r, rules: rules, pool: map[Difficulty][]*Task{}}
	g.easyTasks()
	g.mediumTasks()
	g.hardTasks()
	g.singleTableHardTasks()
	for _, d := range []Difficulty{Easy, Medium, Hard} {
		r.Shuffle(len(g.pool[d]), func(i, j int) {
			g.pool[d][i], g.pool[d][j] = g.pool[d][j], g.pool[d][i]
		})
	}
	return g.pool
}

type taskGen struct {
	b     *builtDB
	r     *rand.Rand
	rules *semrules.RuleSet
	pool  map[Difficulty][]*Task
}

// keep validates and stores a candidate task.
func (g *taskGen) keep(q *sqlir.Query, nlq string, lits []sqlir.Value) {
	if v := g.rules.Check(q, g.b.db.Schema); v != nil {
		return
	}
	res, err := sqlexec.Execute(g.b.db, q)
	if err != nil || len(res.Rows) == 0 {
		return
	}
	// Sorted TSQs need deterministic tuple order; skip gold queries whose
	// ORDER BY key ties everywhere (degenerate ordering).
	task := &Task{
		DB:         g.b.db,
		NLQ:        nlq,
		SQL:        q.String(),
		Gold:       q,
		Literals:   lits,
		Difficulty: ClassifyDifficulty(q),
	}
	g.pool[task.Difficulty] = append(g.pool[task.Difficulty], task)
}

// pick chooses a seeded variant.
func (g *taskGen) pick(variants ...string) string {
	return variants[g.r.Intn(len(variants))]
}

// --- column helpers -------------------------------------------------------

func (g *taskGen) isFK(table, col string) bool {
	for _, fk := range g.b.spec.fks {
		if fk.table == table && fk.col == col {
			return true
		}
	}
	return false
}

// textCols returns non-key text columns of a table.
func (g *taskGen) textCols(table string) []sqlir.ColumnRef {
	t := g.b.db.Schema.Table(table)
	var out []sqlir.ColumnRef
	for _, c := range t.Columns {
		if c.Type == sqlir.TypeText && c.Name != t.PrimaryKey && !g.isFK(table, c.Name) {
			out = append(out, g.col(table, c.Name))
		}
	}
	return out
}

// numCols returns non-key numeric columns of a table.
func (g *taskGen) numCols(table string) []sqlir.ColumnRef {
	t := g.b.db.Schema.Table(table)
	var out []sqlir.ColumnRef
	for _, c := range t.Columns {
		if c.Type == sqlir.TypeNumber && c.Name != t.PrimaryKey && !g.isFK(table, c.Name) {
			out = append(out, g.col(table, c.Name))
		}
	}
	return out
}

// col is the domain's column table.column.
func (g *taskGen) col(table, column string) sqlir.ColumnRef {
	return g.b.db.Schema.Catalog().MustCol(table, column)
}

func (g *taskGen) phrase(c sqlir.ColumnRef) string { return g.b.phrase[c] }
func (g *taskGen) plural(table string) string      { return g.b.plural[table] }
func (g *taskGen) entity(table string) string      { return g.b.entity[table] }

// sampleValue draws a value of the column from the data.
func (g *taskGen) sampleValue(c sqlir.ColumnRef) (sqlir.Value, bool) {
	t := g.b.db.Schema.TableAt(c.Table())
	vals, err := t.DistinctValues(t.Columns[c.Column()].Name, 0)
	if err != nil || len(vals) == 0 {
		return sqlir.Null(), false
	}
	return vals[g.r.Intn(len(vals))], true
}

// --- query constructors ---------------------------------------------------

func selectItem(c sqlir.ColumnRef, agg sqlir.AggFunc) sqlir.SelectItem {
	return sqlir.SelectItem{Agg: agg, AggSet: true, Col: c, ColSet: true}
}

// path builds a join path over the domain's catalog; the templates only
// name tables and foreign keys the domain declares.
func (g *taskGen) path(root string, on ...sqlir.JoinOn) *sqlir.JoinPath {
	jp, err := g.b.db.Schema.Catalog().Path(root, on...)
	if err != nil {
		panic(err)
	}
	return jp
}

// joinVia builds the two-table join path along an FK.
func (g *taskGen) joinVia(fk fkSpec) *sqlir.JoinPath {
	return g.path(fk.table, sqlir.JoinOn{Left: g.col(fk.table, fk.col), Right: g.col(fk.refTable, fk.refCol)})
}

func baseQuery(from *sqlir.JoinPath, items ...sqlir.SelectItem) *sqlir.Query {
	q := sqlir.NewQuery()
	q.KWSet = true
	q.LimitSet = true
	q.SelectCountSet = true
	q.Select = items
	q.From = from
	return q
}

func addWhere(q *sqlir.Query, conj sqlir.LogicalOp, preds ...sqlir.Predicate) {
	q.WhereState = sqlir.ClausePresent
	q.Where = sqlir.Where{Conj: conj, ConjSet: true, CountSet: true, Preds: preds}
}

func pred(c sqlir.ColumnRef, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{Col: c, ColSet: true, Op: op, OpSet: true, Val: v, ValSet: true}
}

func addGroupBy(q *sqlir.Query, cols ...sqlir.ColumnRef) {
	q.GroupByState = sqlir.ClausePresent
	q.GroupBy = cols
	q.HavingState = sqlir.ClauseAbsent
}

func addHaving(q *sqlir.Query, agg sqlir.AggFunc, col sqlir.ColumnRef, op sqlir.Op, v sqlir.Value) {
	q.HavingState = sqlir.ClausePresent
	q.Having = &sqlir.HavingExpr{
		Agg: agg, AggSet: true, Col: col, ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

func addOrder(q *sqlir.Query, agg sqlir.AggFunc, col sqlir.ColumnRef, desc bool, limit int) {
	q.OrderByState = sqlir.ClausePresent
	q.OrderBy = &sqlir.OrderBy{
		Key:    sqlir.OrderKey{Agg: agg, Col: col},
		KeySet: true, Desc: desc, DirSet: true,
	}
	q.Limit = limit
}

// --- easy templates --------------------------------------------------------

func (g *taskGen) easyTasks() {
	for _, ts := range g.b.spec.tables {
		table := ts.name
		tcols := g.textCols(table)
		ncols := g.numCols(table)

		// E1: single projection.
		for _, c := range tcols {
			nlq := g.pick(
				fmt.Sprintf("List the %s of all %s.", g.phrase(c), g.plural(table)),
				fmt.Sprintf("Show every %s's %s.", g.entity(table), g.phrase(c)),
				fmt.Sprintf("What are the %ss of the %s?", g.phrase(c), g.plural(table)),
			)
			g.keep(baseQuery(g.path(table), selectItem(c, sqlir.AggNone)), nlq, nil)
		}

		// E2: two projections.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			c1, c2 := tcols[0], ncols[g.r.Intn(len(ncols))]
			nlq := g.pick(
				fmt.Sprintf("List the %s and %s of each %s.", g.phrase(c1), g.phrase(c2), g.entity(table)),
				fmt.Sprintf("Show %s together with their %s.", g.plural(table), g.phrase(c2)),
			)
			g.keep(baseQuery(g.path(table),
				selectItem(c1, sqlir.AggNone), selectItem(c2, sqlir.AggNone)), nlq, nil)
		}

		// E4: count.
		nlq := g.pick(
			fmt.Sprintf("How many %s are there?", g.plural(table)),
			fmt.Sprintf("Count the number of %s.", g.plural(table)),
			fmt.Sprintf("What is the total number of %s?", g.plural(table)),
		)
		g.keep(baseQuery(g.path(table),
			selectItem(sqlir.Star, sqlir.AggCount)), nlq, nil)

		// E5: aggregate over a numeric column.
		for _, c := range ncols {
			for _, agg := range []sqlir.AggFunc{sqlir.AggMax, sqlir.AggMin, sqlir.AggAvg} {
				var word string
				switch agg {
				case sqlir.AggMax:
					word = g.pick("maximum", "highest", "largest")
				case sqlir.AggMin:
					word = g.pick("minimum", "lowest", "smallest")
				case sqlir.AggAvg:
					word = g.pick("average", "mean")
				}
				nlq := fmt.Sprintf("What is the %s %s of the %s?", word, g.phrase(c), g.plural(table))
				g.keep(baseQuery(g.path(table), selectItem(c, agg)), nlq, nil)
			}
		}

		// E6: order by. Half the NLQs leave the sort direction implicit —
		// the §2 ambiguity that the TSQ's ordered tuples resolve.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			c1 := tcols[0]
			c2 := ncols[g.r.Intn(len(ncols))]
			desc := g.r.Intn(2) == 0
			var nlq string
			if g.r.Intn(2) == 0 {
				nlq = g.pick(
					fmt.Sprintf("List the %s of %s sorted by %s.", g.phrase(c1), g.plural(table), g.phrase(c2)),
					fmt.Sprintf("Show %s by %s.", g.plural(table), g.phrase(c2)),
				)
			} else {
				dirWords := "from lowest to highest"
				if desc {
					dirWords = g.pick("from highest to lowest", "in descending order", "from most to least")
				} else {
					dirWords = g.pick("from lowest to highest", "in ascending order", dirWords)
				}
				nlq = fmt.Sprintf("List the %s of %s ordered by %s %s.",
					g.phrase(c1), g.plural(table), g.phrase(c2), dirWords)
			}
			q := baseQuery(g.path(table), selectItem(c1, sqlir.AggNone))
			addOrder(q, sqlir.AggNone, c2, desc, 0)
			g.keep(q, nlq, nil)
		}

		// E7: top-k.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			c1 := tcols[0]
			c2 := ncols[len(ncols)-1]
			k := 1 + g.r.Intn(5)
			nlq := g.pick(
				fmt.Sprintf("Show the top %d %s by %s.", k, g.plural(table), g.phrase(c2)),
				fmt.Sprintf("List the %d %s with the highest %s.", k, g.plural(table), g.phrase(c2)),
			)
			q := baseQuery(g.path(table), selectItem(c1, sqlir.AggNone))
			addOrder(q, sqlir.AggNone, c2, true, k)
			g.keep(q, nlq, []sqlir.Value{num(float64(k))})
		}
	}

	// E3: project-join along each FK.
	for _, fk := range g.b.spec.fks {
		aCols := g.textCols(fk.table)
		bCols := g.textCols(fk.refTable)
		if len(aCols) == 0 || len(bCols) == 0 {
			continue
		}
		c1, c2 := aCols[0], bCols[0]
		nlq := g.pick(
			fmt.Sprintf("For each %s, show its %s and the %s of its %s.",
				g.entity(fk.table), g.phrase(c1), g.phrase(c2), g.entity(fk.refTable)),
			fmt.Sprintf("List %s %ss together with their %s %ss.",
				g.entity(fk.table), g.phrase(c1), g.entity(fk.refTable), g.phrase(c2)),
		)
		g.keep(baseQuery(g.joinVia(fk),
			selectItem(c1, sqlir.AggNone), selectItem(c2, sqlir.AggNone)), nlq, nil)
	}
}

// --- medium templates -------------------------------------------------------

func (g *taskGen) mediumTasks() {
	for _, ts := range g.b.spec.tables {
		table := ts.name
		tcols := g.textCols(table)
		ncols := g.numCols(table)

		// M1: text equality filter (projection differs from filter column).
		if len(tcols) >= 2 {
			for i := 0; i < 2; i++ {
				proj, filt := tcols[0], tcols[1]
				if i == 1 {
					proj, filt = tcols[1], tcols[0]
				}
				v, ok := g.sampleValue(filt)
				if !ok {
					continue
				}
				nlq := g.pick(
					fmt.Sprintf("List the %s of %s whose %s is %s.", g.phrase(proj), g.plural(table), g.phrase(filt), v.Display()),
					fmt.Sprintf("Show %s with %s %s.", g.plural(table), g.phrase(filt), v.Display()),
					fmt.Sprintf("Which %s have %s %s?", g.plural(table), g.phrase(filt), v.Display()),
					// Vague variants drop the column name entirely.
					fmt.Sprintf("Show the %s %s.", v.Display(), g.plural(table)),
					fmt.Sprintf("List %s from %s.", g.plural(table), v.Display()),
				)
				q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
				addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpEq, v))
				g.keep(q, nlq, []sqlir.Value{v})
			}
		}

		// M2: numeric comparison filter, both directions.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			proj := tcols[0]
			for _, filt := range ncols {
				st := g.b.db.Stats(filt)
				if st.NonNull == 0 || st.Min.Num == st.Max.Num {
					continue
				}
				mid := (st.Min.Num + st.Max.Num) / 2
				v := num(float64(int(mid)))
				for _, op := range []sqlir.Op{sqlir.OpGt, sqlir.OpLt} {
					opWord := g.pick("more than", "greater than", "over", "above")
					if op == sqlir.OpLt {
						opWord = g.pick("less than", "under", "below", "fewer than")
					}
					var nlq string
					if g.r.Intn(3) == 0 {
						// Vague: no column name ("movies before 1995").
						bare := "over"
						if op == sqlir.OpLt {
							bare = g.pick("under", "before", "below")
						} else {
							bare = g.pick("over", "after", "above")
						}
						nlq = fmt.Sprintf("List the %s of %s %s %s.",
							g.phrase(proj), g.plural(table), bare, v.Display())
					} else {
						nlq = fmt.Sprintf("List the %s of %s with %s %s %s.",
							g.phrase(proj), g.plural(table), g.phrase(filt), opWord, v.Display())
					}
					q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
					addWhere(q, sqlir.LogicAnd, pred(filt, op, v))
					g.keep(q, nlq, []sqlir.Value{v})
				}
			}
		}

		// M2b: numeric projection with text equality filter.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			filt := tcols[0]
			for _, proj := range ncols {
				v, ok := g.sampleValue(filt)
				if !ok {
					continue
				}
				nlq := g.pick(
					fmt.Sprintf("What is the %s of the %s with %s %s?",
						g.phrase(proj), g.entity(table), g.phrase(filt), v.Display()),
					fmt.Sprintf("Show the %s of %s whose %s is %s.",
						g.phrase(proj), g.plural(table), g.phrase(filt), v.Display()),
				)
				q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
				addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpEq, v))
				g.keep(q, nlq, []sqlir.Value{v})
			}
		}

		// M4: two numeric predicates, AND range or OR extremes.
		if len(tcols) >= 1 && len(ncols) >= 1 {
			proj := tcols[0]
			filt := ncols[0]
			st := g.b.db.Stats(filt)
			if st.NonNull > 0 && st.Max.Num-st.Min.Num >= 4 {
				span := st.Max.Num - st.Min.Num
				lo := num(float64(int(st.Min.Num + span/4)))
				hi := num(float64(int(st.Max.Num - span/4)))
				if g.r.Intn(2) == 0 {
					nlq := fmt.Sprintf("List the %s of %s with %s between %s and %s.",
						g.phrase(proj), g.plural(table), g.phrase(filt), lo.Display(), hi.Display())
					q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
					addWhere(q, sqlir.LogicAnd,
						pred(filt, sqlir.OpGe, lo), pred(filt, sqlir.OpLe, hi))
					g.keep(q, nlq, []sqlir.Value{lo, hi})
				} else {
					nlq := fmt.Sprintf("Show the %s of %s with %s below %s, and those above %s.",
						g.phrase(proj), g.plural(table), g.phrase(filt), lo.Display(), hi.Display())
					q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
					addWhere(q, sqlir.LogicOr,
						pred(filt, sqlir.OpLt, lo), pred(filt, sqlir.OpGt, hi))
					g.keep(q, nlq, []sqlir.Value{lo, hi})
				}
			}
		}

		// M5: count with filter.
		if len(ncols) >= 1 {
			filt := ncols[0]
			st := g.b.db.Stats(filt)
			if st.NonNull > 0 && st.Min.Num != st.Max.Num {
				v := num(float64(int((st.Min.Num + st.Max.Num) / 2)))
				nlq := g.pick(
					fmt.Sprintf("How many %s have %s greater than %s?", g.plural(table), g.phrase(filt), v.Display()),
					fmt.Sprintf("Count the %s whose %s is more than %s.", g.plural(table), g.phrase(filt), v.Display()),
				)
				q := baseQuery(g.path(table), selectItem(sqlir.Star, sqlir.AggCount))
				addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpGt, v))
				g.keep(q, nlq, []sqlir.Value{v})
			}
		}

		// M6: filter + order.
		if len(tcols) >= 2 && len(ncols) >= 1 {
			proj, filt := tcols[0], tcols[1]
			key := ncols[0]
			v, ok := g.sampleValue(filt)
			if ok {
				nlq := fmt.Sprintf("List the %s of %s with %s %s, ordered by %s %s.",
					g.phrase(proj), g.plural(table), g.phrase(filt), v.Display(),
					g.phrase(key), g.pick("from highest to lowest", "descending"))
				q := baseQuery(g.path(table), selectItem(proj, sqlir.AggNone))
				addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpEq, v))
				addOrder(q, sqlir.AggNone, key, true, 0)
				g.keep(q, nlq, []sqlir.Value{v})
			}
		}
	}

	// M3: join + filter on the referenced table. Projections fall back to a
	// numeric column when the referencing table has no text attributes
	// (bridge tables).
	for _, fk := range g.b.spec.fks {
		aTexts := g.textCols(fk.table)
		aNums := g.numCols(fk.table)
		bCols := g.textCols(fk.refTable)
		if len(bCols) == 0 {
			continue
		}
		var proj sqlir.ColumnRef
		switch {
		case len(aTexts) > 0:
			proj = aTexts[0]
		case len(aNums) > 0:
			proj = aNums[0]
		default:
			continue
		}
		filt := bCols[g.r.Intn(len(bCols))]
		v, ok := g.sampleValue(filt)
		if !ok {
			continue
		}
		nlq := g.pick(
			fmt.Sprintf("List the %s of %s whose %s has %s %s.",
				g.phrase(proj), g.plural(fk.table), g.entity(fk.refTable), g.phrase(filt), v.Display()),
			fmt.Sprintf("Show the %s of %s in the %s with %s %s.",
				g.phrase(proj), g.plural(fk.table), g.entity(fk.refTable), g.phrase(filt), v.Display()),
		)
		q := baseQuery(g.joinVia(fk), selectItem(proj, sqlir.AggNone))
		addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpEq, v))
		g.keep(q, nlq, []sqlir.Value{v})

		// Reverse direction: project the referenced entity filtered by the
		// referencing side (text equality or numeric comparison).
		proj2 := bCols[0]
		if len(aTexts) > 0 {
			filt2 := aTexts[g.r.Intn(len(aTexts))]
			v2, ok := g.sampleValue(filt2)
			if ok {
				nlq := fmt.Sprintf("Show the %s of %s that have a %s with %s %s.",
					g.phrase(proj2), g.plural(fk.refTable), g.entity(fk.table), g.phrase(filt2), v2.Display())
				q := baseQuery(g.joinVia(fk), selectItem(proj2, sqlir.AggNone))
				addWhere(q, sqlir.LogicAnd, pred(filt2, sqlir.OpEq, v2))
				g.keep(q, nlq, []sqlir.Value{v2})
			}
		}
		if len(aNums) > 0 {
			filt2 := aNums[0]
			st := g.b.db.Stats(filt2)
			if st.NonNull > 0 && st.Min.Num != st.Max.Num {
				v2 := num(float64(int((st.Min.Num + st.Max.Num) / 2)))
				nlq := fmt.Sprintf("Show the %s of %s that have a %s with %s above %s.",
					g.phrase(proj2), g.plural(fk.refTable), g.entity(fk.table), g.phrase(filt2), v2.Display())
				q := baseQuery(g.joinVia(fk), selectItem(proj2, sqlir.AggNone))
				addWhere(q, sqlir.LogicAnd, pred(filt2, sqlir.OpGt, v2))
				g.keep(q, nlq, []sqlir.Value{v2})
			}
		}
	}
}

// --- hard templates ----------------------------------------------------------

func (g *taskGen) hardTasks() {
	for _, fk := range g.b.spec.fks {
		bCols := g.textCols(fk.refTable)
		if len(bCols) == 0 {
			continue
		}
		groupCol := bCols[0]
		jp := g.joinVia(fk)

		// H1: count per group.
		nlq := g.pick(
			fmt.Sprintf("For each %s, show its %s and the number of %s.",
				g.entity(fk.refTable), g.phrase(groupCol), g.plural(fk.table)),
			fmt.Sprintf("List %s %ss and how many %s each has.",
				g.entity(fk.refTable), g.phrase(groupCol), g.plural(fk.table)),
		)
		q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
		addGroupBy(q, groupCol)
		g.keep(q, nlq, nil)

		// H2: with HAVING threshold k chosen from the count distribution.
		if k, ok := g.havingThreshold(jp, groupCol); ok {
			nlq := g.pick(
				fmt.Sprintf("List the %ss of %s with more than %d %s and the count for each.",
					g.phrase(groupCol), g.plural(fk.refTable), k, g.plural(fk.table)),
				fmt.Sprintf("Which %s have more than %d %s? Show the count for each.",
					g.plural(fk.refTable), k, g.plural(fk.table)),
			)
			q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
			addGroupBy(q, groupCol)
			addHaving(q, sqlir.AggCount, sqlir.Star, sqlir.OpGt, num(float64(k)))
			g.keep(q, nlq, []sqlir.Value{num(float64(k))})
		}

		// H3: ordered by count.
		nlq = fmt.Sprintf("List %s %ss and the number of %s, ordered from most to least %s.",
			g.entity(fk.refTable), g.phrase(groupCol), g.plural(fk.table), g.plural(fk.table))
		q = baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
		addGroupBy(q, groupCol)
		addOrder(q, sqlir.AggCount, sqlir.Star, true, 0)
		g.keep(q, nlq, nil)

		// H4: max of a numeric column per group.
		aNums := g.numCols(fk.table)
		if len(aNums) > 0 {
			c := aNums[0]
			nlq := fmt.Sprintf("For each %s, show its %s and the highest %s among its %s.",
				g.entity(fk.refTable), g.phrase(groupCol), g.phrase(c), g.plural(fk.table))
			q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(c, sqlir.AggMax))
			addGroupBy(q, groupCol)
			g.keep(q, nlq, nil)
		}

		// H5: grouped count with a selection predicate on the child table.
		aTexts := g.textCols(fk.table)
		if len(aTexts) > 0 {
			filt := aTexts[0]
			v, ok := g.sampleValue(filt)
			if ok {
				nlq := fmt.Sprintf("For each %s %s, count the %s with %s %s.",
					g.entity(fk.refTable), g.phrase(groupCol), g.plural(fk.table), g.phrase(filt), v.Display())
				q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
				addWhere(q, sqlir.LogicAnd, pred(filt, sqlir.OpEq, v))
				addGroupBy(q, groupCol)
				g.keep(q, nlq, []sqlir.Value{v})
			}
		}
	}
}

// singleTableHardTasks adds grouping tasks that need no join: counts per
// categorical column, with and without HAVING.
func (g *taskGen) singleTableHardTasks() {
	for _, ts := range g.b.spec.tables {
		table := ts.name
		for _, groupCol := range g.textCols(table) {
			if g.b.db.Schema.TableAt(groupCol.Table()).VectorAt(groupCol.Column()).Dict().Size() < 2 {
				continue
			}
			jp := g.path(table)
			nlq := g.pick(
				fmt.Sprintf("For each %s, count the %s.", g.phrase(groupCol), g.plural(table)),
				fmt.Sprintf("How many %s are there for each %s?", g.plural(table), g.phrase(groupCol)),
			)
			q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
			addGroupBy(q, groupCol)
			g.keep(q, nlq, nil)

			if k, ok := g.havingThreshold(jp, groupCol); ok {
				nlq := fmt.Sprintf("List the %ss that appear in more than %d %s, with their counts.",
					g.phrase(groupCol), k, g.plural(table))
				q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
				addGroupBy(q, groupCol)
				addHaving(q, sqlir.AggCount, sqlir.Star, sqlir.OpGt, num(float64(k)))
				g.keep(q, nlq, []sqlir.Value{num(float64(k))})
			}

			// Grouped max of a numeric column.
			for _, c := range g.numCols(table) {
				nlq := fmt.Sprintf("For each %s, what is the highest %s among the %s?",
					g.phrase(groupCol), g.phrase(c), g.plural(table))
				q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(c, sqlir.AggMax))
				addGroupBy(q, groupCol)
				g.keep(q, nlq, nil)
				break // one numeric column suffices per group column
			}
		}
	}
}

// havingThreshold picks a HAVING cutoff that keeps some but not all groups.
func (g *taskGen) havingThreshold(jp *sqlir.JoinPath, groupCol sqlir.ColumnRef) (int, bool) {
	q := baseQuery(jp, selectItem(groupCol, sqlir.AggNone), selectItem(sqlir.Star, sqlir.AggCount))
	addGroupBy(q, groupCol)
	res, err := sqlexec.Execute(g.b.db, q)
	if err != nil || len(res.Rows) < 2 {
		return 0, false
	}
	min, max := res.Rows[0][1].Num, res.Rows[0][1].Num
	for _, row := range res.Rows {
		c := row[1].Num
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max <= min {
		return 0, false
	}
	k := int((min + max) / 2)
	if k < 1 {
		k = 1
	}
	return k, true
}

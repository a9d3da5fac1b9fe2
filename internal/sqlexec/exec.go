// Package sqlexec executes complete SPJA queries (the paper's task scope,
// §2.5) against the in-memory storage engine: inner FK-PK joins, flat AND/OR
// selection, grouping with the five aggregates, HAVING, ORDER BY, LIMIT and
// DISTINCT. The verifier's column-wise and row-wise verification queries
// (Examples 3.5 and 3.6) run through the same engine via Exists.
package sqlexec

import (
	"context"
	"fmt"
	"sort"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Result is a materialized query result.
type Result struct {
	Columns []string
	Types   []sqlir.Type
	Rows    [][]sqlir.Value
}

// tuple is one joined row: per-slot row indexes into the slot's table.
// Index-based tuples keep join materialization allocation-light.
type tuple []int32

// relation is a working set of joined rows plus the table→slot map.
type relation struct {
	slots  map[string]int
	tables []*storage.Table // per slot
	tuples []tuple
}

// Execute runs a complete query and materializes its result.
func Execute(db *storage.Database, q *sqlir.Query) (*Result, error) {
	return ExecuteCtx(context.Background(), db, q)
}

// ExecuteCtx is Execute under a request context: the scan polls ctx at
// checkpoint boundaries and unwinds with ctx.Err().
func ExecuteCtx(ctx context.Context, db *storage.Database, q *sqlir.Query) (*Result, error) {
	return execute(ctx, db, q, 0, &discardCounters)
}

// execute compiles a complete query onto the streaming pipeline
// (compiled.go). A query whose plan fails to bind — a malformed join path, a
// column outside it — runs on the materializing reference executor below
// instead, which alone knows which of those defects surface as an error, in
// which order, and with which message.
func execute(ctx context.Context, db *storage.Database, q *sqlir.Query, maxRows int, pc *pipelineCounters) (*Result, error) {
	if q == nil || !q.Complete() {
		return nil, errNotComplete(q)
	}
	if res, out, handled, err := executeCompiled(ctx, db, q, rowSink{limit: maxRows}, pc); handled {
		if err != nil {
			return nil, err
		}
		res.Rows = out.finish()
		return res, nil
	}
	pc.add(&pc.joinsBuilt, 1)
	res, err := executeReference(ctx, db, q)
	if err == nil && maxRows > 0 && len(res.Rows) > maxRows {
		res.Rows = res.Rows[:maxRows]
	}
	return res, err
}

func errNotComplete(q *sqlir.Query) error {
	return fmt.Errorf("sqlexec: query is not complete: %v", q)
}

// executeReference is the materializing executor: join the whole path, then
// filter, group, order and cut. It is sequential and caches nothing. It is
// kept as the oracle the differential tests compare the compiled pipeline
// against, and as the fallback described at execute.
func executeReference(ctx context.Context, db *storage.Database, q *sqlir.Query) (*Result, error) {
	rel, err := join(ctx, db, q.From)
	if err != nil {
		return nil, err
	}
	return executeOn(ctx, db, rel, q)
}

// executeOn evaluates a complete query over a pre-joined relation. The
// interleaved HAVING and select-aggregate evaluation order of the group loop
// is part of the reference error semantics.
func executeOn(ctx context.Context, db *storage.Database, rel *relation, q *sqlir.Query) (*Result, error) {
	rows, err := filter(ctx, db, rel, q.Where, q.WhereState)
	if err != nil {
		return nil, err
	}
	cc := newCanceller(ctx)

	needsGroup := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(q.OrderByState == sqlir.ClausePresent && q.OrderBy.Key.Agg != sqlir.AggNone)

	res := &Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.String())
		ty, ok := db.Schema.Resolve(s.Col)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown column %s", s.Col)
		}
		res.Types = append(res.Types, s.Agg.ResultType(ty))
	}

	type outRow struct {
		vals     []sqlir.Value
		orderKey sqlir.Value
	}
	var out []outRow

	if needsGroup {
		groups, err := groupRows(db, rel, rows, q.GroupBy)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			if q.HavingState == sqlir.ClausePresent {
				hv, err := evalAggregate(db, rel, g, q.Having.Agg, q.Having.Col)
				if err != nil {
					return nil, err
				}
				if !q.Having.Op.Eval(hv, q.Having.Val) {
					continue
				}
			}
			r := outRow{}
			for _, s := range q.Select {
				v, err := evalAggregate(db, rel, g, s.Agg, s.Col)
				if err != nil {
					return nil, err
				}
				r.vals = append(r.vals, v)
			}
			if q.OrderByState == sqlir.ClausePresent {
				v, err := evalAggregate(db, rel, g, q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
				if err != nil {
					return nil, err
				}
				r.orderKey = v
			}
			out = append(out, r)
		}
	} else {
		for _, tp := range rows {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			r := outRow{}
			for _, s := range q.Select {
				v, err := colValue(db, rel, tp, s.Col)
				if err != nil {
					return nil, err
				}
				r.vals = append(r.vals, v)
			}
			if q.OrderByState == sqlir.ClausePresent {
				v, err := colValue(db, rel, tp, q.OrderBy.Key.Col)
				if err != nil {
					return nil, err
				}
				r.orderKey = v
			}
			out = append(out, r)
		}
	}

	if q.Distinct {
		seen := map[string]bool{}
		dedup := out[:0]
		var buf []byte // reused row-key buffer: no per-row concatenation garbage
		for _, r := range out {
			buf = buf[:0]
			for _, v := range r.vals {
				buf = appendValueKey(buf, v)
			}
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			dedup = append(dedup, r)
		}
		out = dedup
	}

	if q.OrderByState == sqlir.ClausePresent {
		desc := q.OrderBy.Desc
		sort.SliceStable(out, func(i, j int) bool {
			c := out[i].orderKey.Compare(out[j].orderKey)
			if desc {
				return c > 0
			}
			return c < 0
		})
	}

	if q.LimitSet && q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}

	res.Rows = make([][]sqlir.Value, len(out))
	for i, r := range out {
		res.Rows[i] = r.vals
	}
	return res, nil
}

// join materializes the join path into a relation of joined tuples using
// hash joins on the FK-PK edges.
func join(ctx context.Context, db *storage.Database, jp *sqlir.JoinPath) (*relation, error) {
	if jp == nil || len(jp.Tables) == 0 {
		return nil, fmt.Errorf("sqlexec: empty join path")
	}
	rel := &relation{slots: map[string]int{}}
	t0 := db.Table(jp.Tables[0])
	if t0 == nil {
		return nil, fmt.Errorf("sqlexec: unknown table %s", jp.Tables[0])
	}
	rel.slots[t0.Name] = 0
	rel.tables = append(rel.tables, t0)
	rel.tuples = make([]tuple, t0.NumRows())
	for i := range rel.tuples {
		rel.tuples[i] = tuple{int32(i)}
	}
	for _, e := range jp.Edges {
		var err error
		rel, err = extendRelation(ctx, db, rel, e)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// extendRelation joins one more FK-PK edge onto a relation, probing a hash
// map of the incoming column it builds for this one join — the reference
// shares no index with the pipeline it judges. It returns a new relation
// and leaves the input untouched.
func extendRelation(ctx context.Context, db *storage.Database, rel *relation, e sqlir.JoinEdge) (*relation, error) {
	var existing, incoming string
	if _, ok := rel.slots[e.FromTable]; ok {
		existing, incoming = e.FromTable, e.ToTable
	} else if _, ok := rel.slots[e.ToTable]; ok {
		existing, incoming = e.ToTable, e.FromTable
	} else {
		return nil, fmt.Errorf("sqlexec: join edge %s disconnected from path", e)
	}
	if _, dup := rel.slots[incoming]; dup {
		return nil, fmt.Errorf("sqlexec: table %s joined twice", incoming)
	}
	nt := db.Table(incoming)
	if nt == nil {
		return nil, fmt.Errorf("sqlexec: unknown table %s", incoming)
	}
	exCol, inCol := e.FromColumn, e.ToColumn
	if existing == e.ToTable {
		exCol, inCol = e.ToColumn, e.FromColumn
	}
	exTbl := db.Table(existing)
	exIdx := exTbl.ColumnIndex(exCol)
	inIdx := nt.ColumnIndex(inCol)
	if exIdx < 0 || inIdx < 0 {
		return nil, fmt.Errorf("sqlexec: join edge %s references unknown column", e)
	}
	cc := newCanceller(ctx)
	inVec := nt.VectorAt(inIdx)
	index := make(map[sqlir.Value][]int32)
	for ri := 0; ri < nt.NumRows(); ri++ {
		if err := cc.tick(); err != nil {
			return nil, err
		}
		if v := inVec.Value(ri); !v.IsNull() {
			index[v] = append(index[v], int32(ri))
		}
	}
	next := &relation{
		slots:  make(map[string]int, len(rel.slots)+1),
		tables: append(append([]*storage.Table{}, rel.tables...), nt),
	}
	for t, s := range rel.slots {
		next.slots[t] = s
	}
	slot := len(rel.slots)
	next.slots[incoming] = slot
	exSlot := rel.slots[existing]
	exVec := exTbl.VectorAt(exIdx)

	// Tick per output tuple too: a fanning-out edge can append many rows per
	// input tuple, and the checkpoint cadence must follow the work actually
	// done, not the rows scanned.
	for _, tp := range rel.tuples {
		if err := cc.tick(); err != nil {
			return nil, err
		}
		v := exVec.Value(int(tp[exSlot]))
		if v.IsNull() {
			continue
		}
		for _, m := range index[v] {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			ext := make(tuple, len(tp)+1)
			copy(ext, tp)
			ext[slot] = m
			next.tuples = append(next.tuples, ext)
		}
	}
	return next, nil
}

// colValue resolves a column reference against a joined tuple.
func colValue(db *storage.Database, rel *relation, tp tuple, c sqlir.ColumnRef) (sqlir.Value, error) {
	slot, ok := rel.slots[c.Table]
	if !ok {
		return sqlir.Null(), fmt.Errorf("sqlexec: column %s not in join path", c)
	}
	tbl := rel.tables[slot]
	ci := tbl.ColumnIndex(c.Column)
	if ci < 0 {
		return sqlir.Null(), fmt.Errorf("sqlexec: unknown column %s", c)
	}
	return tbl.VectorAt(ci).Value(int(tp[slot])), nil
}

// filter applies the WHERE clause.
func filter(ctx context.Context, db *storage.Database, rel *relation, w sqlir.Where, state sqlir.ClauseState) ([]tuple, error) {
	if state != sqlir.ClausePresent || len(w.Preds) == 0 {
		return rel.tuples, nil
	}
	var out []tuple
	cc := newCanceller(ctx)
	for _, tp := range rel.tuples {
		if err := cc.tick(); err != nil {
			return nil, err
		}
		ok, err := evalWhere(db, rel, tp, w)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, tp)
		}
	}
	return out, nil
}

// evalWhere evaluates the flat conjunction/disjunction on one tuple.
func evalWhere(db *storage.Database, rel *relation, tp tuple, w sqlir.Where) (bool, error) {
	and := w.Conj == sqlir.LogicAnd || len(w.Preds) == 1
	for _, p := range w.Preds {
		v, err := colValue(db, rel, tp, p.Col)
		if err != nil {
			return false, err
		}
		hit := p.Op.Eval(v, p.Val)
		if and && !hit {
			return false, nil
		}
		if !and && hit {
			return true, nil
		}
	}
	return and, nil
}

// groupRows partitions tuples by the GROUP BY key. With no GROUP BY columns
// (pure aggregate query) all rows form a single group; with zero input rows
// a pure aggregate query still yields one empty group, matching SQL.
func groupRows(db *storage.Database, rel *relation, rows []tuple, groupBy []sqlir.ColumnRef) ([][]tuple, error) {
	if len(groupBy) == 0 {
		return [][]tuple{rows}, nil
	}
	idx := map[string]int{}
	var out [][]tuple
	var buf []byte // reused key buffer; the key string is allocated once per group
	for _, tp := range rows {
		buf = buf[:0]
		for _, g := range groupBy {
			v, err := colValue(db, rel, tp, g)
			if err != nil {
				return nil, err
			}
			buf = appendValueKey(buf, v)
		}
		if i, ok := idx[string(buf)]; ok {
			out[i] = append(out[i], tp)
		} else {
			idx[string(buf)] = len(out)
			out = append(out, []tuple{tp})
		}
	}
	return out, nil
}

// evalAggregate computes agg(col) over a group. AggNone returns the first
// row's value (the column is expected to be in the GROUP BY key).
func evalAggregate(db *storage.Database, rel *relation, group []tuple, agg sqlir.AggFunc, col sqlir.ColumnRef) (sqlir.Value, error) {
	if agg == sqlir.AggNone {
		if len(group) == 0 {
			return sqlir.Null(), nil
		}
		return colValue(db, rel, group[0], col)
	}
	if agg == sqlir.AggCount && col.IsStar() {
		return sqlir.NewInt(len(group)), nil
	}
	var (
		count int
		sum   float64
		min   sqlir.Value
		max   sqlir.Value
	)
	for _, tp := range group {
		v, err := colValue(db, rel, tp, col)
		if err != nil {
			return sqlir.Null(), err
		}
		if v.IsNull() {
			continue
		}
		if (agg == sqlir.AggSum || agg == sqlir.AggAvg) && v.Kind != sqlir.KindNumber {
			return sqlir.Null(), errNonNumericAgg(col, v)
		}
		if count == 0 {
			min, max = v, v
		} else {
			if v.Less(min) {
				min = v
			}
			if max.Less(v) {
				max = v
			}
		}
		if v.Kind == sqlir.KindNumber {
			sum += v.Num
		}
		count++
	}
	switch agg {
	case sqlir.AggCount:
		return sqlir.NewInt(count), nil
	case sqlir.AggMin:
		return min, nil
	case sqlir.AggMax:
		return max, nil
	case sqlir.AggSum:
		if count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(sum), nil
	case sqlir.AggAvg:
		if count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(sum / float64(count)), nil
	default:
		return sqlir.Null(), fmt.Errorf("sqlexec: unknown aggregate %v", agg)
	}
}

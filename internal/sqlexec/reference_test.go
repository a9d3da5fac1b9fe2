// The materializing reference executor: join the whole path, then filter,
// group, order and cut. It is the oracle the streaming pipeline is
// differential-tested against (export_test.go's ExecuteReference,
// ExistsReference, MaterializeReference and DiffExecute). It reads cells off
// the same column vectors but shares no plan, index or key encoding with the
// pipeline; it knows which defects of a query that does not bind surface as
// an error, in which order, and with which message, and the pipeline's bind
// errors must keep its texts.
package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// tuple is one joined row: per-slot row indexes into the slot's table.
// Index-based tuples keep join materialization allocation-light.
type tuple []int32

// relation is a working set of joined rows plus the table→slot map, by
// the catalog's table ordinals.
type relation struct {
	cat    *sqlir.Catalog
	slots  map[int]int
	tables []*storage.Table // per slot
	tuples []tuple
}

// executeReference is the materializing executor: join the whole path, then
// filter, group, order and cut. It is sequential and caches nothing.
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
		res.Types = append(res.Types, s.Agg.ResultType(s.Col.Type()))
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
// hash joins on its edges. The path arrives oriented and valid: it only
// has to number db's catalog.
func join(ctx context.Context, db *storage.Database, jp *sqlir.JoinPath) (*relation, error) {
	if jp.Len() == 0 {
		return nil, fmt.Errorf("sqlexec: empty join path")
	}
	if !jp.Catalog().Same(db.Schema.Catalog()) {
		return nil, fmt.Errorf("sqlexec: join path %s is not over database %s's catalog", jp, db.Name)
	}
	rel := &relation{cat: jp.Catalog(), slots: map[int]int{}}
	t0 := db.Schema.TableAt(jp.Tables()[0])
	rel.slots[jp.Tables()[0]] = 0
	rel.tables = append(rel.tables, t0)
	rel.tuples = make([]tuple, t0.NumRows())
	for i := range rel.tuples {
		rel.tuples[i] = tuple{int32(i)}
	}
	for _, e := range jp.Edges() {
		var err error
		rel, err = extendRelation(ctx, db, rel, e)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// extendRelation joins one more edge onto a relation, probing a hash map of
// the incoming column it builds for this one join — the reference shares no
// index with the pipeline it judges. It returns a new relation and leaves
// the input untouched.
func extendRelation(ctx context.Context, db *storage.Database, rel *relation, e sqlir.JoinEdge) (*relation, error) {
	exTbl, nt := db.Schema.TableAt(e.Joined.Table()), db.Schema.TableAt(e.New.Table())
	exIdx, inIdx := e.Joined.Column(), e.New.Column()
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
		cat:    rel.cat,
		slots:  make(map[int]int, len(rel.slots)+1),
		tables: append(append([]*storage.Table{}, rel.tables...), nt),
	}
	for t, s := range rel.slots {
		next.slots[t] = s
	}
	slot := len(rel.slots)
	next.slots[e.New.Table()] = slot
	exSlot := rel.slots[e.Joined.Table()]
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
	slot, ok := 0, false
	switch {
	case c.Catalog() == nil: // * and an unset column name no table
	case !rel.cat.Same(c.Catalog()):
		return sqlir.Null(), fmt.Errorf("sqlexec: column %s is not over the join path's catalog", c)
	default:
		slot, ok = rel.slots[c.Table()]
	}
	if !ok {
		return sqlir.Null(), fmt.Errorf("sqlexec: column %s not in join path", c)
	}
	return rel.tables[slot].VectorAt(c.Column()).Value(int(tp[slot])), nil
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
	case sqlir.AggSum, sqlir.AggAvg:
		if agg == sqlir.AggAvg {
			sum /= float64(count)
		}
		if count == 0 || math.IsNaN(sum) { // SQLite: a NaN result is NULL
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(sum), nil
	default:
		return sqlir.Null(), fmt.Errorf("sqlexec: unknown aggregate %v", agg)
	}
}

// existsOn evaluates an exists query against a pre-materialized relation.
func existsOn(ctx context.Context, db *storage.Database, rel *relation, eq ExistsQuery) (bool, error) {
	w := sqlir.Where{Conj: eq.Conj, ConjSet: true, Preds: eq.Preds, CountSet: true}
	wAnd := sqlir.Where{Conj: sqlir.LogicAnd, ConjSet: true, Preds: eq.AndPreds, CountSet: true}
	cc := newCanceller(ctx)

	// match evaluates WHERE (Preds by Conj) AND (AndPreds conjoined).
	match := func(tp tuple) (bool, error) {
		if err := cc.tick(); err != nil {
			return false, err
		}
		if len(eq.Preds) > 0 {
			ok, err := evalWhere(db, rel, tp, w)
			if err != nil || !ok {
				return false, err
			}
		}
		if len(eq.AndPreds) > 0 {
			ok, err := evalWhere(db, rel, tp, wAnd)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}

	if len(eq.GroupBy) == 0 && len(eq.Havings) == 0 {
		// Short-circuit on the first matching joined row.
		for _, tp := range rel.tuples {
			ok, err := match(tp)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}

	var rows []tuple
	for _, tp := range rel.tuples {
		ok, err := match(tp)
		if err != nil {
			return false, err
		}
		if ok {
			rows = append(rows, tp)
		}
	}
	groups, err := groupRows(db, rel, rows, eq.GroupBy)
	if err != nil {
		return false, err
	}
	for _, g := range groups {
		if len(g) == 0 && len(eq.GroupBy) > 0 {
			continue
		}
		pass := true
		for _, h := range eq.Havings {
			hv, err := evalAggregate(db, rel, g, h.Agg, h.Col)
			if err != nil {
				return false, err
			}
			if !h.Op.Eval(hv, h.Val) {
				pass = false
				break
			}
		}
		if pass && (len(g) > 0 || len(eq.GroupBy) == 0) {
			return true, nil
		}
	}
	return false, nil
}

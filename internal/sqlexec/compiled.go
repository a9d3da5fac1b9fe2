// Complete queries on the streaming pipeline. A complete query compiles to
// the same streamPlan an existence probe uses — reference root and edge
// order, WHERE bound to the shallowest slot — and its tuples feed a sink
// instead of a witness flag: projection straight off the column vectors,
// DISTINCT on fixed-width vector keys, grouping through the grouped scan of
// group.go, ORDER BY over what the sink keeps. No join is materialized: per
// call, memory is the result plus the group states — and when the sink
// answers a Question instead of building the result, only what the question
// needs of it.
//
// The sink keeps two rules so that results equal the reference executor's
// cell for cell, error for error:
//
//   - Order. Tuples arrive in exactly the order the materializing join lists
//     them, and every choice among equals — which duplicate DISTINCT keeps,
//     which group comes first, which of two equal ORDER BY keys — goes to the
//     earlier arrival.
//   - Error laziness. Aggregates accumulate for every group, but are
//     evaluated group by group in discovery order, HAVING first, then the
//     projections, then the ORDER BY key, stopping at a failing HAVING: a
//     SUM/AVG over text is an error only if the reference would have
//     evaluated it.
package sqlexec

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// executeCompiled runs a complete query through the streaming pipeline
// into sink, an empty sink (a new one, or one taken from askSinks)
// configured with the caller's row cap (limit) or question (ask). On
// success the sink holds the result's column types and what it kept of the
// rows. A query that does not bind fails here, before any row is read, in
// the reference's order: join path, WHERE, then GROUP BY keys, HAVING,
// projections and ORDER BY key as the query reads them.
func executeCompiled(ctx context.Context, db *storage.Database, q *sqlir.Query, sink *rowSink, pc *pipelineCounters) error {
	eq := ExistsQuery{From: q.From}
	if q.WhereState == sqlir.ClausePresent {
		eq.Conj, eq.Preds = q.Where.Conj, q.Where.Preds
	}
	plan, err := buildStreamPlan(db, eq, false)
	if err != nil {
		return err
	}
	for _, s := range q.Select {
		sink.types = append(sink.types, s.Agg.ResultType(s.Col.Type()))
	}

	sink.distinct = q.Distinct
	if q.LimitSet && q.Limit > 0 && (sink.limit <= 0 || q.Limit < sink.limit) {
		sink.limit = q.Limit
	}
	ordered := q.OrderByState == sqlir.ClausePresent
	if ordered {
		sink.ordered, sink.desc = true, q.OrderBy.Desc
		sink.topK = sink.limit > 0
		sink.sieve = sink.ask != nil && !sink.topK
	}
	sink.empty()
	grouped := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(ordered && q.OrderBy.Key.Agg != sqlir.AggNone)

	if grouped {
		spec, err := bindGroupedQuery(plan, q)
		if err != nil {
			return err
		}
		// Even a settled question has every group evaluated: a SUM/AVG
		// over text the reference would reach must still fail the query.
		sink.settled = sink.ask != nil && sink.ask.Columns(sink.types)
		plan.countSeed(pc)
		g, _, err := plan.scanGroups(ctx, pc, spec, nil)
		if err != nil {
			return err
		}
		return sink.addGroups(ctx, g, q)
	}

	for _, s := range q.Select {
		c, err := plan.bindVec(s.Col)
		if err != nil {
			return err
		}
		sink.sel = append(sink.sel, c)
	}
	if ordered {
		if sink.order, err = plan.bindVec(q.OrderBy.Key.Col); err != nil {
			return err
		}
	}
	// A flat scan can fail only by cancellation, so a question settled by
	// the column types needs no scan.
	if sink.ask != nil && sink.ask.Columns(sink.types) {
		sink.settled = true
		return nil
	}
	plan.countSeed(pc)
	_, err = plan.run(ctx, pc, sink.add)
	return err
}

// bindGroupedQuery resolves a grouped query's GROUP BY keys and the
// aggregates it evaluates per group, in the order the reference evaluates
// them: HAVING, the projections, the ORDER BY key.
func bindGroupedQuery(plan *streamPlan, q *sqlir.Query) (*groupedBinding, error) {
	gb := &groupedBinding{}
	if err := gb.bindKeys(plan, q.GroupBy); err != nil {
		return nil, err
	}
	if q.HavingState == sqlir.ClausePresent {
		if err := gb.bindAgg(plan, q.Having.Agg, q.Having.Col); err != nil {
			return nil, err
		}
	}
	for _, s := range q.Select {
		if err := gb.bindAgg(plan, s.Agg, s.Col); err != nil {
			return nil, err
		}
	}
	if q.OrderByState == sqlir.ClausePresent {
		if err := gb.bindAgg(plan, q.OrderBy.Key.Agg, q.OrderBy.Key.Col); err != nil {
			return nil, err
		}
	}
	return gb, nil
}

// rowSink turns arriving tuples (or evaluated groups) into a result, or into
// the answer to a question about it. DISTINCT keeps first arrivals; without
// ORDER BY the first limit rows end the scan; with ORDER BY and a limit
// (topK) only rows that can still make the first limit by (key, arrival)
// are kept, trimmed whenever twice that many have piled up. The
// configuration fields are set by executeCompiled.
//
// Asked a question (ask), the sink keeps what the question needs of each
// query shape, not the result:
//
//   - no ORDER BY: nothing. Rows arrive in result order and go straight to
//     the question, and a flat scan stops once its answer settles;
//   - ORDER BY with a limit: the top k, offered in order at the end;
//   - ORDER BY without a limit (sieve): only the rows the question finds
//     Relevant, with their keys, sorted stably at the end; the others are
//     counted. Restricted to any subsequence, a stable sort by a total
//     preorder is the stable sort of that subsequence, so the relevant rows
//     come out in their result order, and Value.Compare is one.
//
// DISTINCT still keeps every distinct row's key bytes. A grouped query's
// groups are all evaluated whatever the question settled, so its errors
// stay the reference's.
//
// An asked sink lives in askSinks between questions and keeps its buffers:
// a question is answered before ask returns, so nothing outlives it. A sink
// that builds a result is never reused, since the result's rows are its
// own.
type rowSink struct {
	sel      []boundCol // projection; empty when rows arrive evaluated (addRow)
	order    boundCol
	ordered  bool
	desc     bool
	distinct bool
	topK     bool // ORDER BY with a limit: only the first limit rows by (key, arrival) are wanted
	limit    int  // 0 = none
	ask      Question
	sieve    bool // asked, ORDER BY without a limit: keep only relevant rows
	settled  bool // asked: the question's answer is settled

	types []sqlir.Type // the result's column types
	// The rows kept: an ordered sink's with their keys and arrival
	// numbers, sorted in place; an unordered one's as the result's rows.
	// (An asked sink keeps no unordered row: they stream to the question.)
	kept []keptRow
	rows [][]sqlir.Value

	n     int64 // rows let through DISTINCT so far
	seen  map[string]struct{}
	buf   []byte
	row   []sqlir.Value // the row being offered, reused
	cut   bool          // topK: limit rows are known, and bound is the worst of them
	bound keptRow
	slab  []sqlir.Value // what is left of store for the next kept rows
	store []sqlir.Value // the latest array kept rows' cells are cut from; a fill starts at its front
}

// keptRow is a row an ordered sink keeps: its cells, its ORDER BY key and
// its arrival number.
type keptRow struct {
	cells []sqlir.Value
	key   sqlir.Value
	seq   int64
}

// askSinks holds the asked sinks between questions (see rowSink).
var askSinks = sync.Pool{New: func() any { return new(rowSink) }}

// maxPooledRows bounds what an asked sink keeps for the next question: a
// buffer grown past it (a sieve over a large result, a DISTINCT over many
// rows) is dropped, so the pool holds what small results need and no more.
const maxPooledRows = 256

// release empties an asked sink and returns it to askSinks with its
// configuration zeroed. It keeps the sink's buffers up to maxPooledRows,
// and nothing that points into a database or at the question.
func (s *rowSink) release() {
	s.empty()
	clear(s.sel)
	if len(s.seen) > maxPooledRows {
		s.seen = nil
	}
	if cap(s.kept) > maxPooledRows {
		s.kept = nil
	}
	*s = rowSink{
		sel: s.sel[:0], types: s.types[:0], kept: s.kept,
		seen: s.seen, buf: s.buf, row: s.row, slab: s.slab, store: s.store,
	}
	askSinks.Put(s)
}

// empty drops everything s has kept, keeping its configuration and its
// buffers. What the last fill wrote is cleared, so that no value of one
// fill stays reachable from the next.
func (s *rowSink) empty() {
	clear(s.store[:len(s.store)-len(s.slab)]) // the slab is what is left of the store
	clear(s.kept[:cap(s.kept)])
	clear(s.row)
	s.slab, s.kept, s.row = s.store, s.kept[:0], s.row[:0]
	s.n, s.cut, s.bound = 0, false, keptRow{}
	if s.distinct {
		if s.seen == nil {
			s.seen = map[string]struct{}{}
		}
		clear(s.seen)
	}
}

// compare orders two rows by (key, arrival) as the final order lists them.
func (s *rowSink) compare(a, b keptRow) int {
	c := a.key.Compare(b.key)
	if s.desc {
		c = -c
	}
	if c == 0 {
		return cmp.Compare(a.seq, b.seq)
	}
	return c
}

// admit applies DISTINCT to a row's key bytes (s.buf).
func (s *rowSink) admit() bool {
	if !s.distinct {
		return true
	}
	if _, dup := s.seen[string(s.buf)]; dup {
		return false
	}
	s.seen[string(s.buf)] = struct{}{}
	return true
}

// number gives an admitted row its arrival number and reports whether it
// can reach the result: not when a top-k bound already beats it.
func (s *rowSink) number(key sqlir.Value) (seq int64, want bool) {
	seq = s.n
	s.n++
	return seq, !s.topK || !s.cut || s.compare(keptRow{key: key, seq: seq}, s.bound) < 0
}

// add is the scan's emit: project one joined tuple.
func (s *rowSink) add(tp []int32) (stop bool, err error) {
	if s.distinct {
		s.buf = s.buf[:0]
		for _, c := range s.sel {
			s.buf = appendVecKey(s.buf, c.vec, int(tp[c.slot]))
		}
	}
	if !s.admit() {
		return false, nil
	}
	var key sqlir.Value
	if s.ordered {
		key = s.order.value(tp)
	}
	seq, want := s.number(key)
	if !want {
		return false, nil
	}
	s.row = s.row[:0]
	for _, c := range s.sel {
		s.row = append(s.row, c.value(tp))
	}
	return s.take(key, seq), nil
}

// addRow takes one evaluated row (a group's), in s.row.
func (s *rowSink) addRow(key sqlir.Value) {
	if s.distinct {
		s.buf = s.buf[:0]
		for _, v := range s.row {
			s.buf = appendValueKey(s.buf, v)
		}
	}
	if !s.admit() {
		return
	}
	if seq, want := s.number(key); want {
		s.take(key, seq)
	}
}

// take hands the row in s.row to the question or keeps it, reporting
// whether the scan may stop.
func (s *rowSink) take(key sqlir.Value, seq int64) (stop bool) {
	switch {
	case s.settled:
		return true
	case s.ask == nil || s.topK || s.ordered && !s.sieve:
		s.keep(key, seq)
		return s.full()
	case s.sieve:
		if s.ask.Relevant(s.row) {
			s.keep(key, seq)
		}
		return false
	case s.limit > 0 && seq >= int64(s.limit):
		return true // a grouped query's groups past the limit are evaluated, not offered
	default:
		s.settled = s.ask.Row(s.row)
		return s.settled || s.limit > 0 && seq+1 >= int64(s.limit)
	}
}

// full reports that no later arrival can change the result: without ORDER
// BY, the first limit rows are the result.
func (s *rowSink) full() bool {
	return !s.ordered && s.limit > 0 && len(s.rows) >= s.limit
}

// keep stores a copy of s.row.
func (s *rowSink) keep(key sqlir.Value, seq int64) {
	w := len(s.row)
	if len(s.slab) < w {
		s.store = make([]sqlir.Value, w*min(max(2*(len(s.kept)+len(s.rows)), 4), 256))
		s.slab = s.store
	}
	cells := s.slab[:w:w]
	s.slab = s.slab[w:]
	copy(cells, s.row)
	if !s.ordered {
		s.rows = append(s.rows, cells)
		return
	}
	s.kept = append(s.kept, keptRow{cells, key, seq})
	if s.topK && len(s.kept) >= 2*s.limit+16 {
		s.trim()
	}
}

// trim sorts the kept rows of a top-k scan into final order and drops all
// but the first limit. (key, arrival) is a total order, so this is the
// prefix the reference's stable sort of everything would produce.
func (s *rowSink) trim() {
	slices.SortFunc(s.kept, s.compare)
	n := min(len(s.kept), s.limit)
	clear(s.kept[n:])
	s.kept = s.kept[:n]
	if n == s.limit {
		s.cut, s.bound = true, s.kept[n-1]
	}
}

// finish orders and cuts the kept rows.
func (s *rowSink) finish() {
	switch {
	case s.topK:
		s.trim()
	case s.ordered:
		// The kept rows are in arrival order, so a stable sort by key
		// is the order (key, arrival).
		slices.SortStableFunc(s.kept, func(a, b keptRow) int {
			if s.desc {
				return -a.key.Compare(b.key)
			}
			return a.key.Compare(b.key)
		})
	}
	if s.limit > 0 {
		s.kept = s.kept[:min(len(s.kept), s.limit)]
		s.rows = s.rows[:min(len(s.rows), s.limit)] // a grouped scan evaluates every group
	}
}

// result returns the result's rows: the kept rows, ordered and cut.
func (s *rowSink) result() [][]sqlir.Value {
	s.finish()
	if s.ordered {
		s.rows = make([][]sqlir.Value, len(s.kept))
		for i, k := range s.kept {
			s.rows[i] = k.cells
		}
	}
	if s.rows == nil {
		return [][]sqlir.Value{} // as the reference: empty, not nil
	}
	return s.rows
}

// answer offers the kept rows, in result order, to the question and returns
// its answer. Streamed and sieved rows were counted as they arrived: the
// result is every admitted row, up to the limit.
func (s *rowSink) answer() bool {
	s.finish()
	total := len(s.kept)
	if !s.ordered || s.sieve {
		total = int(s.n)
		if s.limit > 0 {
			total = min(total, s.limit)
		}
	}
	for _, k := range s.kept {
		if s.settled {
			break
		}
		s.settled = s.ask.Row(k.cells)
	}
	return s.ask.Answer(total)
}

// addGroups evaluates a grouped scan's groups in discovery order, lazily and
// interleaved as the reference does: HAVING, then each projection, then the
// ORDER BY key; the first error ends the query.
func (s *rowSink) addGroups(ctx context.Context, g *groups, q *sqlir.Query) error {
	// Resolve every agg(col) to its accumulator once, not once per group.
	spec := g.spec
	var having, order boundAgg
	if q.HavingState == sqlir.ClausePresent {
		having = spec.aggAt(q.Having.Agg, q.Having.Col)
	}
	sel := make([]boundAgg, len(q.Select))
	for i, it := range q.Select {
		sel[i] = spec.aggAt(it.Agg, it.Col)
	}
	if s.ordered {
		order = spec.aggAt(q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
	}

	cc := newCanceller(ctx)
	for _, st := range g.order {
		if err := cc.tick(); err != nil {
			return err
		}
		if q.HavingState == sqlir.ClausePresent {
			hv, err := st.value(having)
			if err != nil {
				return err
			}
			if !q.Having.Op.Eval(hv, q.Having.Val) {
				continue
			}
		}
		s.row = s.row[:0]
		for _, a := range sel {
			v, err := st.value(a)
			if err != nil {
				return err
			}
			s.row = append(s.row, v)
		}
		var key sqlir.Value
		if s.ordered {
			var err error
			if key, err = st.value(order); err != nil {
				return err
			}
		}
		s.addRow(key)
	}
	return nil
}

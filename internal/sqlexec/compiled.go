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
	"context"
	"errors"
	"sort"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// executeCompiled runs a complete query through the streaming pipeline
// into a fresh copy of cfg, a sink configured with the caller's row cap
// (limit) or question (ask), and returns the result's header and the filled
// sink. A query that does not bind fails here, before any row is read, in
// the reference's order: join path, WHERE, projections' types, then GROUP BY
// keys, HAVING, projections and ORDER BY key as the query reads them.
func executeCompiled(ctx context.Context, db *storage.Database, q *sqlir.Query, cfg rowSink, pc *pipelineCounters) (*Result, *rowSink, error) {
	eq := ExistsQuery{From: q.From}
	if q.WhereState == sqlir.ClausePresent {
		eq.Conj, eq.Preds = q.Where.Conj, q.Where.Preds
	}
	plan, err := buildStreamPlan(db, eq, false)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{}
	for _, s := range q.Select {
		ty, ok := db.Schema.Resolve(s.Col)
		if !ok {
			return nil, nil, errUnknownColumn(s.Col)
		}
		res.Columns = append(res.Columns, s.String())
		res.Types = append(res.Types, s.Agg.ResultType(ty))
	}

	sink := cfg
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
	inj := faultinject.From(ctx)
	grouped := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(ordered && q.OrderBy.Key.Agg != sqlir.AggNone)

	if grouped {
		spec, err := bindGroupedQuery(plan, q)
		if err != nil {
			return nil, nil, err
		}
		// Even a settled question has every group evaluated: a SUM/AVG
		// over text the reference would reach must still fail the query.
		sink.settled = sink.ask != nil && sink.ask.Columns(res.Types)
		plan.countSeed(pc)
		g, _, err := plan.scanGroups(ctx, inj, pc, spec, nil)
		if err != nil {
			return nil, nil, err
		}
		out, err := sink.fill(pc, func(out *rowSink, _ *pipelineCounters) error {
			return out.addGroups(ctx, g, q)
		})
		return res, out, err
	}

	for _, s := range q.Select {
		c, err := plan.bindVec(s.Col)
		if err != nil {
			return nil, nil, err
		}
		sink.sel = append(sink.sel, c)
	}
	if ordered {
		if sink.order, err = plan.bindVec(q.OrderBy.Key.Col); err != nil {
			return nil, nil, err
		}
	}
	// A flat scan can fail only by cancellation, so a question settled by
	// the column types needs no scan.
	if sink.ask != nil && sink.ask.Columns(res.Types) {
		sink.settled = true
		return res, sink.fresh(), nil
	}
	plan.countSeed(pc)
	out, err := sink.fill(pc, func(out *rowSink, pc *pipelineCounters) error {
		_, err := plan.run(ctx, inj, pc, out.add)
		return err
	})
	return res, out, err
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

// errNaNOrderKey aborts a top-k or sieved fill that meets a NaN ORDER BY
// key. Value.Compare answers 0 for NaN against anything, so with a NaN among
// the keys the comparison is no order at all and the reference result is
// whatever its stable sort makes of the full sequence — neither a top-k
// prefix nor the sorted relevant rows can be derived from part of it. The
// fill is then redone keeping every row, and sorted exactly as the
// reference sorts.
var errNaNOrderKey = errors.New("sqlexec: NaN ORDER BY key")

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
//     come out in their result order — unless a key is NaN (errNaNOrderKey).
//
// DISTINCT still keeps every distinct row's key bytes. A grouped query's
// groups are all evaluated whatever the question settled, so its errors
// stay the reference's.
type rowSink struct {
	sel      []boundCol // projection; nil when rows arrive evaluated (addRow)
	order    boundCol
	ordered  bool
	desc     bool
	distinct bool
	topK     bool // ORDER BY with a limit: only the first limit rows by (key, arrival) are wanted
	limit    int  // 0 = none
	ask      Question
	sieve    bool // asked, ORDER BY without a limit: keep only relevant rows
	settled  bool // asked: the question's answer is settled

	rows [][]sqlir.Value
	keys []sqlir.Value // ORDER BY keys (ordered)
	seqs []int64       // arrival numbers (topK, whose trim reorders rows)

	n    int64 // rows let through DISTINCT so far
	seen map[string]struct{}
	buf  []byte
	row  []sqlir.Value // the row being offered, reused
	cut  bool          // topK: limit rows are known, and (bKey, bSeq) is the worst of them
	bKey sqlir.Value   // the bound's key
	bSeq int64         // the bound's arrival number
	slab []sqlir.Value // backing store the next kept rows are cut from
}

// fresh returns an empty sink with s's configuration.
func (s rowSink) fresh() *rowSink {
	if s.distinct {
		s.seen = map[string]struct{}{}
	}
	return &s
}

// fill runs f into a fresh copy of cfg. A top-k or sieved fill abandoned at
// a NaN ORDER BY key is redone keeping every row; only the fill that answers
// is counted.
func (cfg rowSink) fill(pc *pipelineCounters, f func(out *rowSink, pc *pipelineCounters) error) (*rowSink, error) {
	var attempt pipelineCounters
	out := cfg.fresh()
	err := f(out, &attempt)
	if errors.Is(err, errNaNOrderKey) {
		cfg.topK, cfg.sieve = false, false
		out = cfg.fresh()
		return out, f(out, pc)
	}
	pc.merge(&attempt)
	return out, err
}

// before reports whether a row with key a arriving as number sa precedes one
// with key b arriving as number sb in the final order.
func (s *rowSink) before(a sqlir.Value, sa int64, b sqlir.Value, sb int64) bool {
	c := a.Compare(b)
	if s.desc {
		c = -c
	}
	return c < 0 || (c == 0 && sa < sb)
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
func (s *rowSink) number(key sqlir.Value) (seq int64, want bool, err error) {
	seq = s.n
	s.n++
	if (s.topK || s.sieve) && key.Kind == sqlir.KindNumber && key.Num != key.Num {
		return seq, false, errNaNOrderKey
	}
	return seq, !s.topK || !s.cut || s.before(key, seq, s.bKey, s.bSeq), nil
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
	seq, want, err := s.number(key)
	if !want {
		return err != nil, err
	}
	s.row = s.row[:0]
	for _, c := range s.sel {
		s.row = append(s.row, c.value(tp))
	}
	return s.take(key, seq), nil
}

// addRow takes one evaluated row (a group's), in s.row.
func (s *rowSink) addRow(key sqlir.Value) error {
	if s.distinct {
		s.buf = s.buf[:0]
		for _, v := range s.row {
			s.buf = appendValueKey(s.buf, v)
		}
	}
	if !s.admit() {
		return nil
	}
	seq, want, err := s.number(key)
	if want {
		s.take(key, seq)
	}
	return err
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
		s.slab = make([]sqlir.Value, w*min(max(2*len(s.rows), 4), 256))
	}
	vals := s.slab[:w:w]
	s.slab = s.slab[w:]
	copy(vals, s.row)
	s.rows = append(s.rows, vals)
	if s.ordered {
		s.keys = append(s.keys, key)
	}
	if s.topK {
		s.seqs = append(s.seqs, seq)
		if len(s.rows) >= 2*s.limit+16 {
			s.trim()
		}
	}
}

// identity is the permutation that moves nothing.
func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// permute reorders a parallel slice to p's first n positions.
func permute[T any](s []T, p []int, n int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = s[p[i]]
	}
	return out
}

// trim sorts the kept rows of a top-k scan into final order and drops all
// but the first limit. (key, arrival) is a total order once NaN keys are
// excluded, so this is the prefix the reference's stable sort of everything
// would produce.
func (s *rowSink) trim() {
	p := identity(len(s.rows))
	sort.Slice(p, func(i, j int) bool {
		return s.before(s.keys[p[i]], s.seqs[p[i]], s.keys[p[j]], s.seqs[p[j]])
	})
	n := min(len(p), s.limit)
	s.rows, s.keys, s.seqs = permute(s.rows, p, n), permute(s.keys, p, n), permute(s.seqs, p, n)
	if n == s.limit {
		s.cut, s.bKey, s.bSeq = true, s.keys[n-1], s.seqs[n-1]
	}
}

// finish orders and cuts the kept rows.
func (s *rowSink) finish() [][]sqlir.Value {
	switch {
	case s.topK:
		s.trim()
	case s.ordered:
		// The reference's own sort over the reference's own sequence — with
		// a NaN among the keys no other procedure is guaranteed to agree —
		// applied to a permutation rather than to the rows.
		p := identity(len(s.rows))
		sort.SliceStable(p, func(i, j int) bool {
			c := s.keys[p[i]].Compare(s.keys[p[j]])
			if s.desc {
				return c > 0
			}
			return c < 0
		})
		s.rows = permute(s.rows, p, len(p))
	}
	if s.limit > 0 && len(s.rows) > s.limit {
		s.rows = s.rows[:s.limit]
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
	rows := s.finish()
	total := len(rows)
	if !s.ordered || s.sieve {
		total = int(s.n)
		if s.limit > 0 {
			total = min(total, s.limit)
		}
	}
	for _, r := range rows {
		if s.settled {
			break
		}
		s.settled = s.ask.Row(r)
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
		if err := s.addRow(key); err != nil {
			return err
		}
	}
	return nil
}

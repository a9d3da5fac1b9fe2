// Complete queries on the streaming pipeline. A complete query compiles to
// the same streamPlan an existence probe uses — reference root and edge
// order, WHERE bound to the shallowest slot — and its tuples feed a sink
// instead of a witness flag: projection straight off the column vectors,
// DISTINCT on fixed-width vector keys, grouping through the grouped scan of
// group.go, ORDER BY over result-sized data. No join is materialized:
// per call, memory is the result plus the group states.
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

// executeCompiled runs a complete query through the streaming pipeline,
// returning at most maxRows rows when maxRows > 0. handled=false means the
// query did not bind and the caller must run the reference executor.
func executeCompiled(ctx context.Context, db *storage.Database, q *sqlir.Query, maxRows int, pc *pipelineCounters) (res *Result, handled bool, err error) {
	eq := ExistsQuery{From: q.From}
	if q.WhereState == sqlir.ClausePresent {
		eq.Conj, eq.Preds = q.Where.Conj, q.Where.Preds
	}
	plan, perr := buildStreamPlan(db, eq, false)
	if perr != nil {
		return nil, false, nil
	}
	res = &Result{}
	for _, s := range q.Select {
		ty, ok := db.Schema.Resolve(s.Col)
		if !ok {
			return nil, false, nil
		}
		res.Columns = append(res.Columns, s.String())
		res.Types = append(res.Types, s.Agg.ResultType(ty))
	}

	sink := rowSink{distinct: q.Distinct, limit: maxRows}
	if q.LimitSet && q.Limit > 0 && (maxRows <= 0 || q.Limit < maxRows) {
		sink.limit = q.Limit
	}
	ordered := q.OrderByState == sqlir.ClausePresent
	if ordered {
		sink.ordered, sink.desc = true, q.OrderBy.Desc
	}
	inj := faultinject.From(ctx)
	grouped := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(ordered && q.OrderBy.Key.Agg != sqlir.AggNone)

	if grouped {
		spec := &groupedBinding{}
		ok := spec.bindKeys(plan, q.GroupBy)
		if q.HavingState == sqlir.ClausePresent {
			ok = ok && spec.bindAgg(plan, q.Having.Agg, q.Having.Col)
		}
		for _, s := range q.Select {
			ok = ok && spec.bindAgg(plan, s.Agg, s.Col)
		}
		if ordered {
			ok = ok && spec.bindAgg(plan, q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
		}
		if !ok {
			return nil, false, nil
		}
		plan.countSeed(pc)
		g, _, serr := plan.scanGroups(ctx, inj, pc, spec, nil)
		if serr != nil {
			return nil, true, serr
		}
		out := sink.fresh()
		if err := out.addGroups(ctx, g, q); err != nil {
			return nil, true, err
		}
		res.Rows = out.finish()
		return res, true, nil
	}

	for _, s := range q.Select {
		c, ok := plan.bindVec(s.Col)
		if !ok {
			return nil, false, nil
		}
		sink.sel = append(sink.sel, c)
	}
	if ordered {
		c, ok := plan.bindVec(q.OrderBy.Key.Col)
		if !ok {
			return nil, false, nil
		}
		sink.order = c
		sink.topK = sink.limit > 0
	}
	plan.countSeed(pc)
	// A top-k scan abandoned at a NaN key is redone in full: count the scan
	// that answers, not both.
	var attempt pipelineCounters
	out, serr := plan.scanRows(ctx, inj, &attempt, sink)
	if errors.Is(serr, errNaNOrderKey) {
		sink.topK = false
		out, serr = plan.scanRows(ctx, inj, pc, sink)
	} else {
		pc.merge(&attempt)
	}
	if serr != nil {
		return nil, true, serr
	}
	res.Rows = out.finish()
	return res, true, nil
}

// errNaNOrderKey aborts a top-k scan that meets a NaN ORDER BY key.
// Value.Compare answers 0 for NaN against anything, so with a NaN among the
// keys the comparison is no order at all and the reference result is
// whatever its stable sort makes of the full sequence; the scan is then
// redone keeping every row, and sorted exactly as the reference sorts.
var errNaNOrderKey = errors.New("sqlexec: NaN ORDER BY key")

// rowSink turns arriving tuples (or evaluated groups) into result rows:
// DISTINCT keeps first arrivals; without ORDER BY the first limit rows end
// the scan; with ORDER BY and a limit (topK) only rows that can still make
// the first limit by (key, arrival) are kept, trimmed whenever twice that
// many have piled up. The configuration fields are set by executeCompiled.
//
// Kept rows live in parallel slices, each filled only when something reads
// it, and the row headers themselves are not built while they can be derived
// (see implicit): a plain projection — the shape whose result is as large as
// the join — costs its cells as they arrive and one exactly-sized slice of
// headers at the end, which is returned as the result. Appending a header
// per row instead regrows that slice over and over and is a fifth more bytes
// per scale_warm request (EXPERIMENTS.md, "What the row sink's deferred
// headers buy"); that is all the deferral is for.
type rowSink struct {
	sel      []boundCol // projection; nil when rows arrive evaluated (addRow)
	order    boundCol
	ordered  bool
	desc     bool
	distinct bool
	topK     bool // ORDER BY with a limit: only the first limit rows by (key, arrival) are wanted
	limit    int  // 0 = none

	// implicit: every row so far came through add and none has been moved or
	// dropped, so the rows are exactly the w-cell windows of slabs, in order,
	// and rows is not built until headers needs it.
	implicit bool
	slabs    [][]sqlir.Value
	kept     int // rows held, built or not

	rows [][]sqlir.Value
	keys []sqlir.Value // ORDER BY keys (ordered)
	seqs []int64       // arrival numbers (topK, whose trim reorders rows)

	n    int64 // rows let through DISTINCT so far
	seen map[string]struct{}
	buf  []byte
	cut  bool          // topK: limit rows are known, and (bKey, bSeq) is the worst of them
	bKey sqlir.Value   // the bound's key
	bSeq int64         // the bound's arrival number
	slab []sqlir.Value // backing store the next projections are cut from
}

// fresh returns an empty sink with s's configuration.
func (s rowSink) fresh() *rowSink {
	s.implicit = s.sel != nil
	if s.distinct {
		s.seen = map[string]struct{}{}
	}
	return &s
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
	seq := s.n
	s.n++
	var key sqlir.Value
	if s.ordered {
		key = s.order.value(tp)
		if s.topK {
			if key.Kind == sqlir.KindNumber && key.Num != key.Num {
				return true, errNaNOrderKey
			}
			if s.cut && !s.before(key, seq, s.bKey, s.bSeq) {
				return false, nil
			}
		}
	}
	w := len(s.sel)
	if len(s.slab) < w {
		s.slab = make([]sqlir.Value, w*min(max(2*s.kept, 4), 256))
		if s.implicit {
			s.slabs = append(s.slabs, s.slab)
		}
	}
	vals := s.slab[:w:w]
	s.slab = s.slab[w:]
	for i, c := range s.sel {
		vals[i] = c.value(tp)
	}
	return s.keep(vals, key, seq), nil
}

// addRow takes one evaluated row (a group's).
func (s *rowSink) addRow(vals []sqlir.Value, key sqlir.Value) {
	if s.distinct {
		s.buf = s.buf[:0]
		for _, v := range vals {
			s.buf = appendValueKey(s.buf, v)
		}
	}
	if s.admit() {
		s.keep(vals, key, s.n)
		s.n++
	}
}

// full reports that no later arrival can change the result: without ORDER
// BY, the first limit rows are the result.
func (s *rowSink) full() bool {
	return !s.ordered && s.limit > 0 && s.kept >= s.limit
}

// headers builds rows, if that has been put off, and ends the putting off.
func (s *rowSink) headers() {
	if !s.implicit {
		return
	}
	w := len(s.sel)
	s.rows = make([][]sqlir.Value, 0, s.kept)
	for _, slab := range s.slabs {
		for ; len(slab) >= w && len(s.rows) < s.kept; slab = slab[w:] {
			s.rows = append(s.rows, slab[:w:w])
		}
	}
	s.implicit, s.slabs = false, nil
}

// keep stores a row, reporting whether the scan may stop.
func (s *rowSink) keep(vals []sqlir.Value, key sqlir.Value, seq int64) (stop bool) {
	s.kept++
	if !s.implicit {
		s.rows = append(s.rows, vals)
	}
	if s.ordered {
		s.keys = append(s.keys, key)
	}
	if s.topK {
		s.seqs = append(s.seqs, seq)
	}
	if s.topK && s.kept >= 2*s.limit+16 {
		s.trim()
	}
	return s.full()
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
	s.headers()
	p := identity(len(s.rows))
	sort.Slice(p, func(i, j int) bool {
		return s.before(s.keys[p[i]], s.seqs[p[i]], s.keys[p[j]], s.seqs[p[j]])
	})
	n := min(len(p), s.limit)
	s.rows, s.keys, s.seqs = permute(s.rows, p, n), permute(s.keys, p, n), permute(s.seqs, p, n)
	s.kept = n
	if n == s.limit {
		s.cut, s.bKey, s.bSeq = true, s.keys[n-1], s.seqs[n-1]
	}
}

// finish orders and cuts the kept rows.
func (s *rowSink) finish() [][]sqlir.Value {
	s.headers()
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

// scanRows streams the plan's tuples through a fresh copy of cfg (a
// configured, empty sink) and returns it holding the result.
func (p *streamPlan) scanRows(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, cfg rowSink) (*rowSink, error) {
	out := cfg.fresh()
	_, err := p.run(ctx, inj, pc, out.add)
	return out, err
}

// addGroups evaluates a grouped scan's groups in discovery order, lazily and
// interleaved as the reference does: HAVING, then each projection, then the
// ORDER BY key; the first error ends the query.
func (s *rowSink) addGroups(ctx context.Context, g *groups, q *sqlir.Query) error {
	// Resolve every agg(col) to its accumulator once, not once per group.
	spec := g.spec
	having := spec.aggAt(q.Having.Agg, q.Having.Col)
	sel := make([]boundAgg, len(q.Select))
	for i, it := range q.Select {
		sel[i] = spec.aggAt(it.Agg, it.Col)
	}
	order := spec.aggAt(q.OrderBy.Key.Agg, q.OrderBy.Key.Col)

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
		vals := make([]sqlir.Value, len(sel))
		for i, a := range sel {
			v, err := st.value(a)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var key sqlir.Value
		if s.ordered {
			var err error
			if key, err = st.value(order); err != nil {
				return err
			}
		}
		s.addRow(vals, key)
	}
	return nil
}

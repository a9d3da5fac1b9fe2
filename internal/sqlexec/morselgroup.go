// Grouped scans: streaming a plan's tuples into per-group aggregate states,
// for grouped existence probes and grouped complete queries alike. Without a
// pool the scan folds every tuple into its group's state as it arrives —
// nothing is buffered. With a pool it follows the deterministic-merge
// discipline:
//
//  1. Partition — each worker streams its morsel's matching tuples into a
//     fully private groupPart: per-group row counts, each group's first
//     tuple, and (only when an aggregate reads a concrete column) a flat log
//     of the matching tuples in visit order. Nothing is shared between
//     workers, so a deadline-expired or cancelled worker can abandon its
//     part on the floor without any possibility of publishing a partial
//     aggregate anywhere shared.
//  2. Merge — parts are absorbed strictly in morsel order. Because morsel
//     order is row order, a group's first appearance across the stitched
//     sequence is its first appearance in the global scan, so group
//     discovery order matches the sequential scan exactly.
//  3. Fold — each part's logged tuples are folded through groupAcc
//     sequentially, in visit order. One group's accumulator state depends
//     only on that group's rows in row order, so every float sum is the same
//     additions in the same order as the single-threaded scan: bit-identical,
//     not merely approximately equal.
//
// The COUNT(*)-only shape — the verification-probe hot path — never logs
// tuples at all: row counts are integers, and integer addition is
// associative, so the merge is just a sum per group. The log is the one
// transient allocation that grows with the matching tuples rather than with
// the groups, and only a fanned-out scan that reads an aggregate column makes
// it.
package sqlexec

import (
	"context"
	"math"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// boundCol is a column reference resolved against a stream plan.
type boundCol struct {
	slot int
	vec  *storage.ColumnVec
}

func (c boundCol) value(tp []int32) sqlir.Value { return c.vec.Value(int(tp[c.slot])) }

// groupIndex numbers GROUP BY keys densely in first-appearance order,
// specialized to the key shape. A single-column key — the overwhelmingly
// common grouping — is looked up directly by float bits or dictionary code
// through the runtime's fast integer map paths, with NULL (and NaN, which a
// float-keyed map could never find again) routed to dedicated groups.
// Multi-column keys use the fixed-width binary encoding of appendVecKey.
// Each specialization partitions rows exactly as Value.Equal does, so group
// contents match the reference executor. Not safe for concurrent use: every
// morsel worker owns its own.
type groupIndex struct {
	keys      []boundCol
	n         int
	null, nan int // ids of a single-column key's NULL and NaN groups, -1 until seen
	byBits    map[uint64]int
	byCode    map[uint32]int
	byKey     map[string]int
	buf       []byte
}

func newGroupIndex(keys []boundCol) groupIndex {
	g := groupIndex{keys: keys, null: -1, nan: -1}
	switch {
	case len(keys) == 0:
		g.n = 1 // SQL's implicit single group
	case len(keys) == 1 && keys[0].vec.Type() == sqlir.TypeNumber:
		g.byBits = map[uint64]int{}
	case len(keys) == 1 && keys[0].vec.Type() == sqlir.TypeText:
		g.byCode = map[uint32]int{}
	default:
		g.byKey = map[string]int{}
	}
	return g
}

func (g *groupIndex) next() int {
	g.n++
	return g.n - 1
}

// id returns the tuple's group number, assigning the next one on first sight.
func (g *groupIndex) id(tp []int32) int {
	switch {
	case len(g.keys) == 0:
		return 0
	case g.byKey != nil:
		g.buf = g.buf[:0]
		for _, k := range g.keys {
			g.buf = appendVecKey(g.buf, k.vec, int(tp[k.slot]))
		}
		id, ok := g.byKey[string(g.buf)]
		if !ok {
			id = g.next()
			g.byKey[string(g.buf)] = id
		}
		return id
	}
	k := g.keys[0]
	ri := int(tp[k.slot])
	if k.vec.IsNull(ri) {
		if g.null < 0 {
			g.null = g.next()
		}
		return g.null
	}
	if g.byCode != nil {
		c := k.vec.Code(ri)
		id, ok := g.byCode[c]
		if !ok {
			id = g.next()
			g.byCode[c] = id
		}
		return id
	}
	f := k.vec.Num(ri)
	if f != f {
		// The reference key renders every NaN as the same string, so all
		// NaNs share one group.
		if g.nan < 0 {
			g.nan = g.next()
		}
		return g.nan
	}
	if f == 0 {
		f = 0 // collapse -0.0 onto +0.0, as Value.Equal does
	}
	b := math.Float64bits(f)
	id, ok := g.byBits[b]
	if !ok {
		id = g.next()
		g.byBits[b] = id
	}
	return id
}

// groups is a grouped scan's result: one state per group, in discovery
// order.
type groups struct {
	spec  *groupedBinding
	idx   groupIndex
	order []*groupState
}

func newGroups(spec *groupedBinding) *groups {
	g := &groups{spec: spec, idx: newGroupIndex(spec.keys)}
	if len(spec.keys) == 0 {
		g.state(0) // the implicit single group exists even over zero rows
	}
	return g
}

// state returns group id's state; ids arrive densely, so a new group is
// always the next one.
func (g *groups) state(id int) *groupState {
	if id == len(g.order) {
		g.order = append(g.order, &groupState{accs: make([]groupAcc, len(g.spec.cols))})
	}
	return g.order[id]
}

func (st *groupState) observe(cols []boundCol, tp []int32) {
	for i, c := range cols {
		st.accs[i].observe(c.value(tp))
	}
}

// add folds one tuple into its group.
func (g *groups) add(tp []int32) {
	st := g.state(g.idx.id(tp))
	st.rows++
	st.observe(g.spec.cols, tp)
}

// groupPart is one morsel's private grouping state.
type groupPart struct {
	idx    groupIndex
	rows   []int   // per group, in the morsel's own discovery order
	firsts []int32 // each group's first tuple, flattened
	log    []int32 // (group, tuple) records in visit order
}

func (p *groupPart) add(tp []int32, logged bool) {
	id := p.idx.id(tp)
	if id == len(p.rows) {
		p.rows = append(p.rows, 0)
		p.firsts = append(p.firsts, tp...)
	}
	p.rows[id]++
	if logged {
		p.log = append(append(p.log, int32(id)), tp...)
	}
}

// absorb merges the next morsel's part and folds its logged tuples.
func (g *groups) absorb(p *groupPart, slots int) {
	to := make([]*groupState, len(p.rows))
	for id, n := range p.rows {
		to[id] = g.state(g.idx.id(p.firsts[id*slots : (id+1)*slots]))
		to[id].rows += n
	}
	for i := 0; i < len(p.log); i += slots + 1 {
		to[p.log[i]].observe(g.spec.cols, p.log[i+1:i+1+slots])
	}
}

// fanOut reports the pool and morsels a scan of the plan's root domain
// should fan over, or no morsels when it should run in one piece: no pool in
// the context, or a domain of a single morsel.
func (p *streamPlan) fanOut(ctx context.Context) (*WorkerPool, []storage.Morsel) {
	pool := PoolFrom(ctx)
	if pool == nil {
		return nil, nil
	}
	morsels := storage.Morsels(p.domainLen(), MorselSizeFrom(ctx))
	if len(morsels) < 2 {
		return nil, nil
	}
	return pool, morsels
}

// scanGroups streams the plan's tuples into per-group states. The plan keeps
// reference enumeration order, so group discovery order and floating-point
// accumulation order match the materializing path bit for bit at any worker
// count.
func (p *streamPlan) scanGroups(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, spec *groupedBinding) (*groups, error) {
	g := newGroups(spec)
	pool, morsels := p.fanOut(ctx)
	if morsels == nil {
		err := p.run(ctx, inj, pc, func(tp []int32) (bool, error) {
			g.add(tp)
			return false, nil
		})
		return g, err
	}
	logged := len(spec.cols) > 0
	parts := make([]*groupPart, len(morsels))
	res := runMorsels(ctx, pool, morsels, func(mctx context.Context, m int) (bool, error) {
		part := &groupPart{idx: newGroupIndex(spec.keys)}
		parts[m] = part
		_, err := p.runRange(mctx, inj, pc, morsels[m].Lo, morsels[m].Hi, func(tp []int32) (bool, error) {
			part.add(tp, logged)
			return false, nil
		})
		return false, err
	})
	pc.addMorselRun(res)
	if res.err != nil {
		return nil, res.err
	}
	for _, part := range parts {
		g.absorb(part, len(p.tables))
	}
	return g, nil
}

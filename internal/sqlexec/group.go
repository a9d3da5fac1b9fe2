// Grouped scans: streaming a plan's tuples into per-group aggregate states,
// for grouped existence probes and grouped complete queries alike. The scan
// folds every tuple into its group's state as it arrives — nothing is
// buffered — and a scan runs in one piece on its caller's goroutine, so group
// discovery order and every float sum's order of additions are those of the
// reference executor's row order: bit-identical, not merely approximately
// equal.
//
// A grouped existence probe that can have only one group, and whose HAVING
// conditions are all COUNT compared with a number, stops at the tuple that
// decides its answer (groupDecider).
package sqlexec

import (
	"context"
	"math"
	"slices"

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
// through the runtime's fast integer map paths, with NULL routed to a
// dedicated group.
// Multi-column keys use the fixed-width binary encoding of appendVecKey.
// Each specialization partitions rows exactly as Value.Equal does, so group
// contents match the reference executor.
type groupIndex struct {
	keys   []boundCol
	n      int
	null   int // id of a single-column key's NULL group, -1 until seen
	byBits map[uint64]int
	byCode map[uint32]int
	byKey  map[string]int
	buf    []byte
}

func newGroupIndex(keys []boundCol) groupIndex {
	g := groupIndex{keys: keys, null: -1}
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

// add folds one tuple into its group.
func (g *groups) add(tp []int32) {
	st := g.state(g.idx.id(tp))
	st.rows++
	for i, c := range g.spec.cols {
		st.accs[i].observe(c.value(tp))
	}
}

// countBound is one HAVING COUNT(..) op k condition reduced to the count at
// which it settles: once count > k when strict, else once count >= k.
type countBound struct {
	col    boundCol // vec nil: COUNT(*), which counts every tuple
	k      float64
	strict bool
}

func (b countBound) settled(n int) bool {
	if b.strict {
		return float64(n) > b.k
	}
	return float64(n) >= b.k
}

// groupDecider decides a grouped existence probe before its scan ends. It
// applies when the probe has at most one group — no GROUP BY, or every GROUP
// BY column pinned by an AND-semantics equality to a non-NULL value, the
// shape verifyByRow gives a grouped query's by-row check — and every HAVING
// condition has a countClass. A condition that settles false (=, <, <=) is
// an upper bound and one that settles true (>, >=, !=) a lower bound.
//
// If any condition is an upper bound the probe can only settle false, when
// one of them is exceeded; otherwise it settles true when every lower bound
// is met. No probe can do both, so the counts of a prefix of the scan settle
// the answer. A decider counts one scan and is built per probe.
type groupDecider struct {
	bounds []countBound // the upper bounds if there are any, else the lower ones
	lower  bool         // bounds are lower bounds: settling answers true
	counts []int        // per bound, the tuples counted so far
}

// newGroupDecider returns the probe's decider, or nil when its answer needs
// the whole scan: a GROUP BY column that is not pinned (two groups may
// exist), or a HAVING condition without a countClass — SUM and AVG must also
// stay error-lazy.
func newGroupDecider(eq ExistsQuery, spec *groupedBinding) *groupDecider {
	for _, g := range eq.GroupBy {
		pins := func(p sqlir.Predicate) bool { return p.Col == g && p.Op == sqlir.OpEq && !p.Val.IsNull() }
		if !slices.ContainsFunc(eq.AndPreds, pins) && !(eq.predsConjoined() && slices.ContainsFunc(eq.Preds, pins)) {
			return nil
		}
	}
	var upper, lower []countBound
	for _, h := range eq.Havings {
		class := classifyCount(h)
		if class == unclassified {
			return nil
		}
		// < and >= settle once the count reaches k, the others once it passes k.
		b := countBound{k: h.Val.Num, strict: h.Op != sqlir.OpLt && h.Op != sqlir.OpGe}
		if !h.Col.IsStar() {
			b.col = spec.cols[spec.colAt[h.Col]]
		}
		if class == staysTrue || class == trueAbove {
			lower = append(lower, b)
		} else {
			upper = append(upper, b)
		}
	}
	if len(upper) > 0 {
		return &groupDecider{bounds: upper, counts: make([]int, len(upper))}
	}
	return &groupDecider{bounds: lower, lower: true, counts: make([]int, len(lower))}
}

// add counts one tuple of the group and reports whether the answer is
// settled. A nil decider never settles.
func (d *groupDecider) add(tp []int32) bool {
	if d == nil {
		return false
	}
	met := true
	for i, b := range d.bounds {
		if b.col.vec == nil || !b.col.vec.IsNull(int(tp[b.col.slot])) {
			d.counts[i]++
		}
		settled := b.settled(d.counts[i])
		if settled && !d.lower {
			return true
		}
		met = met && settled
	}
	return d.lower && met
}

// scanGroups streams the plan's tuples into per-group states. The plan keeps
// reference enumeration order, so group discovery order and floating-point
// accumulation order match the materializing path bit for bit. With a
// decider the scan stops once the answer is settled, reported as
// settled=true; the groups are then partial and not to be read.
func (p *streamPlan) scanGroups(ctx context.Context, pc *pipelineCounters, spec *groupedBinding, dec *groupDecider) (g *groups, settled bool, err error) {
	g = newGroups(spec)
	settled, err = p.run(ctx, pc, func(tp []int32) (bool, error) {
		g.add(tp)
		return dec.add(tp), nil
	})
	return g, settled, err
}

// Pre-columnar row-based streaming executor, preserved verbatim as a frozen
// baseline: it probes the value-keyed hash indexes (storage.Table.Index)
// and reads cells through the row adapter (Table.Row), exactly as the
// production pipeline did before the columnar storage refactor. It is not
// on any production path — the differential tests use it as a third oracle
// (columnar streaming == row streaming == materializing reference) and the
// BenchmarkColumnar* suite measures the columnar path's speedup against it.
package sqlexec

import (
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// rowBoundPred is the row-path compiled predicate: slot and column ordinal
// resolved once, per-tuple evaluation via the shared row slices.
type rowBoundPred struct {
	slot int
	col  int
	op   sqlir.Op
	val  sqlir.Value
}

func (bp rowBoundPred) eval(p *rowStreamPlan, tp []int32) bool {
	v := p.tables[bp.slot].Row(int(tp[bp.slot]))[bp.col]
	return bp.op.Eval(v, bp.val)
}

// rowStreamStep extends a partial tuple by one join edge through the
// value-keyed hash index.
type rowStreamStep struct {
	probeSlot int
	probeCol  int
	index     map[sqlir.Value][]int32
}

// rowStreamPlan is the row-path compiled existence probe.
type rowStreamPlan struct {
	slots  map[string]int
	tables []*storage.Table

	steps []rowStreamStep

	rootRows []int32
	seeded   bool

	predsAt [][]rowBoundPred
	orPreds []rowBoundPred
	orDepth int
}

func (p *rowStreamPlan) bindCol(c sqlir.ColumnRef) (int, int, error) {
	slot, ok := p.slots[c.Table]
	if !ok {
		return 0, 0, errColNotInPath(c)
	}
	ci := p.tables[slot].ColumnIndex(c.Column)
	if ci < 0 {
		return 0, 0, errUnknownCol(c)
	}
	return slot, ci, nil
}

// buildRowStreamPlan compiles an exists query against the row
// representation (see buildStreamPlan for the planning rules — the two
// planners are kept line-for-line parallel).
func buildRowStreamPlan(db *storage.Database, eq ExistsQuery, canReorder bool) (*rowStreamPlan, error) {
	jp := eq.From
	pes, inSet, err := orientEdges(db, jp)
	if err != nil {
		return nil, err
	}

	andPreds, orRaw := splitPreds(eq)

	root := jp.Tables[0]
	var rootRows []int32
	seeded, best := false, -1
	for _, p := range andPreds {
		if p.Op != sqlir.OpEq || p.Val.IsNull() || !inSet[p.Col.Table] {
			continue
		}
		if !canReorder && p.Col.Table != jp.Tables[0] {
			continue
		}
		t := db.Table(p.Col.Table)
		if t == nil || t.ColumnIndex(p.Col.Column) < 0 {
			continue
		}
		idx, ierr := t.Index(p.Col.Column)
		if ierr != nil {
			continue
		}
		postings := idx[p.Val]
		if best < 0 || len(postings) < best {
			best = len(postings)
			root = p.Col.Table
			rootRows = postings
			seeded = true
		}
	}

	plan := &rowStreamPlan{slots: make(map[string]int, len(jp.Tables)), seeded: seeded, rootRows: rootRows}
	addTable := func(name string) {
		plan.slots[name] = len(plan.tables)
		plan.tables = append(plan.tables, db.Table(name))
	}
	addStep := func(parent string, parentCol string, child string, childCol string) error {
		pt, ct := db.Table(parent), db.Table(child)
		probeCol := pt.ColumnIndex(parentCol)
		ci := ct.ColumnIndex(childCol)
		if probeCol < 0 || ci < 0 {
			return errEdgeUnknownColumn()
		}
		idx, ierr := ct.Index(childCol)
		if ierr != nil {
			return ierr
		}
		probeSlot := plan.slots[parent]
		addTable(child)
		plan.steps = append(plan.steps, rowStreamStep{probeSlot: probeSlot, probeCol: probeCol, index: idx})
		return nil
	}

	addTable(root)
	if err := walkJoinTree(jp, pes, root, addStep); err != nil {
		return nil, err
	}

	plan.predsAt = make([][]rowBoundPred, len(plan.tables))
	for _, p := range andPreds {
		bp, berr := plan.bindPred(p)
		if berr != nil {
			return nil, berr
		}
		plan.predsAt[bp.slot] = append(plan.predsAt[bp.slot], bp)
	}
	for _, p := range orRaw {
		bp, berr := plan.bindPred(p)
		if berr != nil {
			return nil, berr
		}
		plan.orPreds = append(plan.orPreds, bp)
		if bp.slot > plan.orDepth {
			plan.orDepth = bp.slot
		}
	}
	return plan, nil
}

func (p *rowStreamPlan) bindPred(pr sqlir.Predicate) (rowBoundPred, error) {
	slot, ci, err := p.bindCol(pr.Col)
	if err != nil {
		return rowBoundPred{}, err
	}
	return rowBoundPred{slot: slot, col: ci, op: pr.Op, val: pr.Val}, nil
}

// run enumerates joined tuples depth-first through the value-keyed
// indexes, exactly as the pre-columnar pipeline did.
func (p *rowStreamPlan) run(pc *pipelineCounters, emit func(tp []int32) (stop bool, err error)) error {
	tp := make([]int32, len(p.tables))
	var probes int64

	check := func(depth int) bool {
		for _, bp := range p.predsAt[depth] {
			if !bp.eval(p, tp) {
				return false
			}
		}
		if len(p.orPreds) > 0 && depth == p.orDepth {
			hit := false
			for _, bp := range p.orPreds {
				if bp.eval(p, tp) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}

	var rec func(depth int) (bool, error)
	rec = func(depth int) (bool, error) {
		if depth == len(p.tables) {
			return emit(tp)
		}
		step := p.steps[depth-1]
		v := p.tables[step.probeSlot].Row(int(tp[step.probeSlot]))[step.probeCol]
		if v.IsNull() {
			return false, nil
		}
		probes++
		for _, ri := range step.index[v] {
			tp[depth] = ri
			if !check(depth) {
				continue
			}
			stop, err := rec(depth + 1)
			if stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}

	visit := func(ri int32) (bool, error) {
		tp[0] = ri
		if !check(0) {
			return false, nil
		}
		return rec(1)
	}

	defer func() { pc.add(&pc.indexProbes, probes) }()
	if p.seeded {
		for _, ri := range p.rootRows {
			if stop, err := visit(ri); stop || err != nil {
				return err
			}
		}
		return nil
	}
	for i, n := 0, p.tables[0].NumRows(); i < n; i++ {
		if stop, err := visit(int32(i)); stop || err != nil {
			return err
		}
	}
	return nil
}

// rowStreamExists answers an exists query through the preserved row-based
// pipeline, with the same handled/fallback contract as streamExists.
func rowStreamExists(db *storage.Database, eq ExistsQuery, pc *pipelineCounters) (ok, handled bool, err error) {
	grouped := len(eq.GroupBy) > 0 || len(eq.Havings) > 0
	plan, perr := buildRowStreamPlan(db, eq, !grouped)
	if perr != nil {
		return false, false, nil
	}
	if !grouped {
		if plan.seeded {
			pc.add(&pc.indexSeeds, 1)
		}
		found := false
		rerr := plan.run(pc, func([]int32) (bool, error) {
			found = true
			return true, nil
		})
		return found, true, rerr
	}
	ok, handled, err = rowStreamGroupedExists(plan, eq, pc)
	if handled && plan.seeded {
		pc.add(&pc.indexSeeds, 1)
	}
	return ok, handled, err
}

// rowStreamGroupedExists streams matching tuples into per-group aggregate
// states using the string-built group keys of the pre-columnar pipeline.
func rowStreamGroupedExists(plan *rowStreamPlan, eq ExistsQuery, pc *pipelineCounters) (ok, handled bool, err error) {
	type keyCol struct{ slot, col int }
	keys := make([]keyCol, 0, len(eq.GroupBy))
	for _, g := range eq.GroupBy {
		slot, ci, berr := plan.bindCol(g)
		if berr != nil {
			return false, false, nil
		}
		keys = append(keys, keyCol{slot, ci})
	}

	type aggCol struct{ slot, col int }
	var cols []aggCol
	colAt := map[sqlir.ColumnRef]int{}
	for _, h := range eq.Havings {
		if h.Col.IsStar() {
			if h.Agg != sqlir.AggCount {
				return false, false, nil
			}
			continue
		}
		if h.Agg > sqlir.AggAvg {
			return false, false, nil
		}
		if _, seen := colAt[h.Col]; !seen {
			slot, ci, berr := plan.bindCol(h.Col)
			if berr != nil {
				return false, false, nil
			}
			colAt[h.Col] = len(cols)
			cols = append(cols, aggCol{slot: slot, col: ci})
		}
	}

	states := map[string]*groupState{}
	var order []*groupState
	if len(eq.GroupBy) == 0 {
		st := &groupState{accs: make([]groupAcc, len(cols))}
		states[""] = st
		order = append(order, st)
	}

	var keyBuf []byte
	rerr := plan.run(pc, func(tp []int32) (bool, error) {
		keyBuf = keyBuf[:0]
		for _, k := range keys {
			v := plan.tables[k.slot].Row(int(tp[k.slot]))[k.col]
			keyBuf = appendValueKey(keyBuf, v)
		}
		st, seen := states[string(keyBuf)]
		if !seen {
			st = &groupState{accs: make([]groupAcc, len(cols))}
			states[string(keyBuf)] = st
			order = append(order, st)
		}
		st.rows++
		for i := range cols {
			c := &cols[i]
			v := plan.tables[c.slot].Row(int(tp[c.slot]))[c.col]
			st.accs[i].observe(v)
		}
		return false, nil
	})
	if rerr != nil {
		return false, true, rerr
	}
	return checkGroupHavings(order, colAt, eq)
}

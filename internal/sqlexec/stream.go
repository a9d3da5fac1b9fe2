// Vectorized streaming executor: existence probes — and, through the sinks
// of compiled.go, complete queries — compile their predicates into typed
// evaluators over the storage engine's column vectors (float comparisons
// for numeric columns, dictionary-code comparisons for text equality), seed
// the scan from the most selective equality predicate's posting list in a
// typed column index, and walk the join tree as a pipelined
// index-nested-loop join whose probes are keyed by float value or
// dictionary code instead of boxed sqlir.Value structs. Grouped scans stream
// per-group aggregate accumulators under fixed-width binary group keys (a
// tag byte plus the float bits or dictionary code — no string formatting).
// It is the only executor. A query that does not bind fails as its plan is
// built (orientEdges, bindCol, bindAgg), whatever the data, with the text the
// materializing reference executor gives for the same defect; every scan
// whose tuple order can show keeps the reference enumeration order, so
// results and floating-point aggregates stay bit-identical. That reference
// (reference_test.go) is the pipeline's test oracle: it reads cells off the
// same column vectors but shares no plan, index or key encoding with it.
package sqlexec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// PipelineStats is a snapshot of the streaming executor's counters: how
// much work the pushdown pipeline served (and avoided) on behalf of one
// JoinCache handle.
type PipelineStats struct {
	StreamedExists int64 // existence probes answered by the streaming pipeline
	IndexSeeds     int64 // scans seeded from a persistent column-index posting list
	IndexProbes    int64 // join-step posting-list lookups
	// PrefixHits is always 0: no join is cached, so none is extended. bench/
	// reads the field (sqlexec.prefix_hit_rate) and a PR that claims a gain
	// may not edit bench/; it goes when that metric is retired.
	PrefixHits int64
	// FallbackExists and JoinsBuilt are always 0: a probe or query that does
	// not bind fails, nothing falls back and no join is materialized. bench/
	// reads them (sqlexec.fallback_exists_per_req, sqlexec.joins_built) and a
	// PR that claims a gain may not edit bench/; they go when those metrics
	// are retired.
	FallbackExists int64
	JoinsBuilt     int64
	// MorselRuns and MorselWorkers are always 0: a scan runs on its caller's
	// goroutine. bench/ reads them (sqlexec.morsel_runs_per_req,
	// sqlexec.avg_morsel_workers) and a PR that claims a gain may not edit
	// bench/; they go when the benchmark retires those metrics.
	MorselRuns    int64
	MorselWorkers int64
}

// IndexHits is the total posting-list work served by persistent indexes.
func (s PipelineStats) IndexHits() int64 { return s.IndexSeeds + s.IndexProbes }

// AvgMorselWorkers is always 0, for the reason MorselRuns is; it goes when
// the benchmark retires sqlexec.avg_morsel_workers.
func (s PipelineStats) AvgMorselWorkers() float64 { return 0 }

// pipelineCounters is the mutable, concurrency-safe form of PipelineStats.
type pipelineCounters struct {
	streamed    atomic.Int64
	indexSeeds  atomic.Int64
	indexProbes atomic.Int64
}

func (pc *pipelineCounters) snapshot() PipelineStats {
	if pc == nil {
		return PipelineStats{}
	}
	return PipelineStats{
		StreamedExists: pc.streamed.Load(),
		IndexSeeds:     pc.indexSeeds.Load(),
		IndexProbes:    pc.indexProbes.Load(),
	}
}

func (pc *pipelineCounters) add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// merge adds the counts of o, which no one is writing any more.
func (pc *pipelineCounters) merge(o *pipelineCounters) {
	pc.add(&pc.streamed, o.streamed.Load())
	pc.add(&pc.indexSeeds, o.indexSeeds.Load())
	pc.add(&pc.indexProbes, o.indexProbes.Load())
}

// discardCounters sinks pipeline counters for callers without a JoinCache
// (the package-level Exists/Execute entry points).
var discardCounters pipelineCounters

// predKind discriminates the compiled form of a bound predicate.
type predKind uint8

const (
	// predGeneric materializes the cell and calls Op.Eval — the fallback
	// that is correct for every (column type, literal kind, op) shape.
	predGeneric predKind = iota
	// predNum compares the raw float vector against a numeric literal.
	predNum
	// predTextEq/predTextNe compare dictionary codes against the
	// literal's code — one integer compare, no string hashing.
	predTextEq
	predTextNe
	// predTextNeAll: != against a string absent from the dictionary —
	// every non-null row matches.
	predTextNeAll
	// predNever can match no row (NULL literal, or = against a string
	// absent from the dictionary).
	predNever
)

// boundPred is a predicate compiled against a stream plan: the slot is
// resolved once and the comparison is specialized to the column vector's
// type, so per-row evaluation is a bitmap test plus a typed compare.
type boundPred struct {
	slot int
	vec  *storage.ColumnVec
	kind predKind
	op   sqlir.Op
	fval float64
	code uint32
	val  sqlir.Value
}

func (bp *boundPred) eval(ri int32) bool {
	i := int(ri)
	switch bp.kind {
	case predNum:
		if bp.vec.IsNull(i) {
			return false
		}
		f := bp.vec.Num(i)
		switch bp.op {
		case sqlir.OpEq:
			return f == bp.fval
		case sqlir.OpNe:
			return f != bp.fval
		case sqlir.OpLt:
			return f < bp.fval
		case sqlir.OpGt:
			return f > bp.fval
		case sqlir.OpLe:
			// Not `f <= fval`: Value.Compare returns 0 when either side is
			// NaN (both float comparisons false), so the reference treats
			// NaN as satisfying <= and >=. The negated compare reproduces
			// that exactly; for ordinary floats it is identical.
			return !(f > bp.fval)
		case sqlir.OpGe:
			return !(f < bp.fval)
		default: // LIKE on a numeric cell never matches
			return false
		}
	case predTextEq:
		return !bp.vec.IsNull(i) && bp.vec.Code(i) == bp.code
	case predTextNe:
		return !bp.vec.IsNull(i) && bp.vec.Code(i) != bp.code
	case predTextNeAll:
		return !bp.vec.IsNull(i)
	case predNever:
		return false
	default:
		return bp.op.Eval(bp.vec.Value(i), bp.val)
	}
}

// compilePred specializes one predicate to its column vector. Every branch
// reproduces Op.Eval's semantics exactly (NULL never matches; kind
// mismatches fall to the generic evaluator, which encodes them).
func compilePred(slot int, vec *storage.ColumnVec, op sqlir.Op, val sqlir.Value) boundPred {
	bp := boundPred{slot: slot, vec: vec, kind: predGeneric, op: op, val: val}
	switch {
	case val.IsNull():
		bp.kind = predNever
	case vec.Type() == sqlir.TypeNumber && val.Kind == sqlir.KindNumber:
		bp.kind = predNum
		bp.fval = val.Num
	case vec.Type() == sqlir.TypeText && val.Kind == sqlir.KindText && (op == sqlir.OpEq || op == sqlir.OpNe):
		code, ok := uint32(0), false
		if dict := vec.Dict(); dict != nil {
			code, ok = dict.Lookup(val.Text)
		}
		switch {
		case ok && op == sqlir.OpEq:
			bp.kind, bp.code = predTextEq, code
		case ok:
			bp.kind, bp.code = predTextNe, code
		case op == sqlir.OpEq:
			bp.kind = predNever
		default:
			bp.kind = predTextNeAll
		}
	}
	return bp
}

// stepKind discriminates how a join step probes the child index.
type stepKind uint8

const (
	// stepNum probes the float-keyed index with the parent's numeric cell.
	stepNum stepKind = iota
	// stepText resolves the parent's interned string in the child
	// dictionary and reads the code's posting list.
	stepText
	// stepNone joins columns of mismatched types: no value can ever match
	// (exactly as a typed key never hits the other type's index entries).
	stepNone
)

// streamStep extends a partial tuple by one join edge: probe the bound
// probeSlot's column vector against the child column's typed index.
type streamStep struct {
	probeSlot int
	kind      stepKind
	probeVec  *storage.ColumnVec
	idx       *storage.CodeIndex
}

// postings returns the child rows matching the parent tuple's cell, and
// whether the cell was non-null (a NULL join key matches nothing).
func (st *streamStep) postings(ri int32) ([]int32, bool) {
	i := int(ri)
	if st.probeVec.IsNull(i) {
		return nil, false
	}
	switch st.kind {
	case stepNum:
		return st.idx.Num(st.probeVec.Num(i)), true
	case stepText:
		return st.idx.TextString(st.probeVec.Dict().String(st.probeVec.Code(i))), true
	default:
		return nil, true
	}
}

// streamPlan is a compiled scan — an existence probe's or a complete
// query's: slot layout, join steps in enumeration order, the pushdown seed,
// and predicates bound to the earliest slot at which they can be evaluated.
type streamPlan struct {
	slots  map[string]int
	tables []*storage.Table // per slot, in bind order

	steps []streamStep // steps[i] binds slot i+1

	rootRows []int32 // pushdown seed posting list (valid when seeded)
	seeded   bool

	predsAt [][]boundPred // AND-semantics predicates checked when their slot binds
	orPreds []boundPred   // OR-connected predicates, checked once orDepth binds
	orDepth int
}

// bindCol resolves a column reference to (slot, column ordinal).
func (p *streamPlan) bindCol(c sqlir.ColumnRef) (int, int, error) {
	slot, ok := p.slots[c.Table]
	if !ok {
		return 0, 0, fmt.Errorf("sqlexec: column %s not in join path", c)
	}
	ci := p.tables[slot].ColumnIndex(c.Column)
	if ci < 0 {
		return 0, 0, errUnknownColumn(c)
	}
	return slot, ci, nil
}

func errUnknownColumn(c sqlir.ColumnRef) error {
	return fmt.Errorf("sqlexec: unknown column %s", c)
}

// bindVec resolves a column reference to its slot and vector.
func (p *streamPlan) bindVec(c sqlir.ColumnRef) (boundCol, error) {
	slot, ci, err := p.bindCol(c)
	if err != nil {
		return boundCol{}, err
	}
	return boundCol{slot, p.tables[slot].VectorAt(ci)}, nil
}

// countSeed counts a scan that starts from a posting list.
func (p *streamPlan) countSeed(pc *pipelineCounters) {
	if p.seeded {
		pc.add(&pc.indexSeeds, 1)
	}
}

// pathEdge is a join edge oriented by introduction order: table a was bound
// before table b in the reference executor's edge walk.
type pathEdge struct {
	a, b       string
	aCol, bCol string
}

// orientEdges validates a join path exactly like the materializing join —
// edge by edge, each edge's tables before its columns, with the same texts —
// and returns its edges oriented from already-bound to newly-introduced
// table.
func orientEdges(db *storage.Database, jp *sqlir.JoinPath) ([]pathEdge, map[string]bool, error) {
	if jp == nil || len(jp.Tables) == 0 {
		return nil, nil, fmt.Errorf("sqlexec: empty join path")
	}
	if db.Table(jp.Tables[0]) == nil {
		return nil, nil, fmt.Errorf("sqlexec: unknown table %s", jp.Tables[0])
	}
	inSet := map[string]bool{jp.Tables[0]: true}
	pes := make([]pathEdge, 0, len(jp.Edges))
	for _, e := range jp.Edges {
		var pe pathEdge
		switch {
		case inSet[e.FromTable] && inSet[e.ToTable]:
			return nil, nil, fmt.Errorf("sqlexec: table %s joined twice", e.ToTable)
		case inSet[e.FromTable]:
			pe = pathEdge{a: e.FromTable, b: e.ToTable, aCol: e.FromColumn, bCol: e.ToColumn}
		case inSet[e.ToTable]:
			pe = pathEdge{a: e.ToTable, b: e.FromTable, aCol: e.ToColumn, bCol: e.FromColumn}
		default:
			return nil, nil, fmt.Errorf("sqlexec: join edge %s disconnected from path", e)
		}
		if db.Table(pe.b) == nil {
			return nil, nil, fmt.Errorf("sqlexec: unknown table %s", pe.b)
		}
		if db.Table(pe.a).ColumnIndex(pe.aCol) < 0 || db.Table(pe.b).ColumnIndex(pe.bCol) < 0 {
			return nil, nil, fmt.Errorf("sqlexec: join edge %s references unknown column", e)
		}
		inSet[pe.b] = true
		pes = append(pes, pe)
	}
	return pes, inSet, nil
}

// predsConjoined reports whether an exists query's Preds have AND semantics:
// conjoined, or too few for the connective to matter.
func (eq ExistsQuery) predsConjoined() bool {
	return eq.Conj == sqlir.LogicAnd || len(eq.Preds) <= 1
}

// splitPreds separates an exists query's predicates into AND-semantics
// predicates (checkable at the shallowest binding slot) and OR-connected
// predicates, shared by both streaming planners.
func splitPreds(eq ExistsQuery) (andPreds, orRaw []sqlir.Predicate) {
	andPreds = make([]sqlir.Predicate, 0, len(eq.Preds)+len(eq.AndPreds))
	if eq.predsConjoined() {
		andPreds = append(andPreds, eq.Preds...)
	} else {
		orRaw = eq.Preds
	}
	andPreds = append(andPreds, eq.AndPreds...)
	return andPreds, orRaw
}

// walkJoinTree adds every join edge in plan order: reference edge order
// when the root is the reference root, otherwise a BFS re-rooting at the
// seed table. Shared by both streaming planners so their enumeration
// orders stay identical.
func walkJoinTree(jp *sqlir.JoinPath, pes []pathEdge, root string,
	addStep func(parent, parentCol, child, childCol string) error) error {
	if root == jp.Tables[0] {
		// Reference enumeration order: edges exactly as introduced.
		for _, pe := range pes {
			if err := addStep(pe.a, pe.aCol, pe.b, pe.bCol); err != nil {
				return err
			}
		}
		return nil
	}
	// Re-root the join tree at the seed table (BFS over the edge set).
	type half struct{ fromCol, to, toCol string }
	adj := map[string][]half{}
	bound := map[string]bool{root: true}
	for _, pe := range pes {
		adj[pe.a] = append(adj[pe.a], half{pe.aCol, pe.b, pe.bCol})
		adj[pe.b] = append(adj[pe.b], half{pe.bCol, pe.a, pe.aCol})
	}
	queue := []string{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range adj[cur] {
			if bound[h.to] {
				continue
			}
			if err := addStep(cur, h.fromCol, h.to, h.toCol); err != nil {
				return err
			}
			bound[h.to] = true
			queue = append(queue, h.to)
		}
	}
	return nil
}

// buildStreamPlan compiles an exists query into a vectorized streaming
// plan. canReorder allows the root to move to the most selective equality
// predicate's table; it is only sound when tuple enumeration order is
// immaterial (the plain no-GROUP-BY witness probe). With canReorder false
// the plan keeps the reference executor's root and edge order, so emitted
// tuples appear in exactly the order the materializing path would produce
// them.
func buildStreamPlan(db *storage.Database, eq ExistsQuery, canReorder bool) (*streamPlan, error) {
	jp := eq.From
	pes, inSet, err := orientEdges(db, jp)
	if err != nil {
		return nil, err
	}

	andPreds, orRaw := splitPreds(eq)

	// Predicate pushdown: seed the pipeline from the smallest posting list
	// among the AND-semantics equality predicates. Posting lists preserve
	// row order, so seeding on the reference root table is always sound;
	// moving the root elsewhere additionally requires canReorder.
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
			continue // surfaces as a bind error below
		}
		ix, ierr := t.CodeIndex(p.Col.Column)
		if ierr != nil {
			continue
		}
		postings := ix.Postings(p.Val)
		if best < 0 || len(postings) < best {
			best = len(postings)
			root = p.Col.Table
			rootRows = postings
			seeded = true
		}
	}

	plan := &streamPlan{slots: make(map[string]int, len(jp.Tables)), seeded: seeded, rootRows: rootRows}
	addTable := func(name string) {
		plan.slots[name] = len(plan.tables)
		plan.tables = append(plan.tables, db.Table(name))
	}
	addStep := func(parent string, parentCol string, child string, childCol string) error {
		pt, ct := db.Table(parent), db.Table(child)
		probeCol, ci := pt.ColumnIndex(parentCol), ct.ColumnIndex(childCol) // orientEdges checked both
		ix, ierr := ct.CodeIndex(childCol)
		if ierr != nil {
			return ierr
		}
		probeVec := pt.VectorAt(probeCol)
		kind := stepNone
		switch {
		case probeVec.Type() == sqlir.TypeNumber && ct.VectorAt(ci).Type() == sqlir.TypeNumber:
			kind = stepNum
		case probeVec.Type() == sqlir.TypeText && ct.VectorAt(ci).Type() == sqlir.TypeText:
			kind = stepText
		}
		probeSlot := plan.slots[parent]
		addTable(child)
		plan.steps = append(plan.steps, streamStep{probeSlot: probeSlot, kind: kind, probeVec: probeVec, idx: ix})
		return nil
	}

	addTable(root)
	if err := walkJoinTree(jp, pes, root, addStep); err != nil {
		return nil, err
	}

	// Bound in the reference's evaluation order — Preds, then AndPreds — so
	// a probe with several defects reports the one the reference meets first.
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
	plan.predsAt = make([][]boundPred, len(plan.tables))
	for _, p := range andPreds {
		bp, berr := plan.bindPred(p)
		if berr != nil {
			return nil, berr
		}
		plan.predsAt[bp.slot] = append(plan.predsAt[bp.slot], bp)
	}
	return plan, nil
}

func (p *streamPlan) bindPred(pr sqlir.Predicate) (boundPred, error) {
	slot, ci, err := p.bindCol(pr.Col)
	if err != nil {
		return boundPred{}, err
	}
	return compilePred(slot, p.tables[slot].VectorAt(ci), pr.Op, pr.Val), nil
}

// run enumerates joined tuples depth-first over the plan's root domain —
// the pushdown posting list when seeded, else the root table's rows — on the
// caller's goroutine, evaluating each bound predicate at the shallowest depth
// where its slot is bound. emit returning stop=true short-circuits the
// enumeration (the first-witness early exit), reported as stopped=true.
// Every visited row and every probed posting ticks a cancellation
// checkpoint, so a cancelled request unwinds mid-scan within checkpointRows
// units of work; inj (nil for clean requests) injects per-probe latency for
// the chaos harness.
func (p *streamPlan) run(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, emit func(tp []int32) (stop bool, err error)) (stopped bool, err error) {
	tp := make([]int32, len(p.tables))
	var probes int64
	cc := newCanceller(ctx)

	check := func(depth int) bool {
		for i := range p.predsAt[depth] {
			if !p.predsAt[depth][i].eval(tp[p.predsAt[depth][i].slot]) {
				return false
			}
		}
		if len(p.orPreds) > 0 && depth == p.orDepth {
			hit := false
			for i := range p.orPreds {
				if p.orPreds[i].eval(tp[p.orPreds[i].slot]) {
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
		step := &p.steps[depth-1]
		if inj != nil {
			faultinject.Sleep(ctx, inj.ProbeDelay())
		}
		postings, ok := step.postings(tp[step.probeSlot])
		if !ok {
			return false, nil
		}
		probes++
		for _, ri := range postings {
			if err := cc.tick(); err != nil {
				return false, err
			}
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
		if err := cc.tick(); err != nil {
			return false, err
		}
		tp[0] = ri
		if !check(0) {
			return false, nil
		}
		return rec(1)
	}

	defer func() { pc.add(&pc.indexProbes, probes) }()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if p.seeded {
		for _, ri := range p.rootRows {
			if stop, err := visit(ri); stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}
	for i, n := 0, p.tables[0].NumRows(); i < n; i++ {
		if stop, err := visit(int32(i)); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// streamExists answers an exists query through the vectorized streaming
// pipeline. A probe that does not bind — a broken path, a predicate, GROUP
// BY key or HAVING aggregate outside it — fails with the bind error before
// any row is read, and is not counted as streamed.
func streamExists(ctx context.Context, db *storage.Database, eq ExistsQuery, pc *pipelineCounters) (bool, error) {
	grouped := len(eq.GroupBy) > 0 || len(eq.Havings) > 0
	plan, err := buildStreamPlan(db, eq, !grouped)
	if err != nil {
		return false, err
	}
	var spec *groupedBinding
	if grouped {
		if spec, err = bindGrouped(plan, eq); err != nil {
			return false, err
		}
	}
	pc.add(&pc.streamed, 1)
	plan.countSeed(pc)
	inj := faultinject.From(ctx)
	if !grouped {
		return plan.run(ctx, inj, pc, func([]int32) (bool, error) { return true, nil })
	}
	dec := newGroupDecider(eq, spec)
	g, settled, err := plan.scanGroups(ctx, inj, pc, spec, dec)
	if err != nil {
		return false, err
	}
	if settled {
		return dec.lower, nil
	}
	return checkGroupHavings(g.order, spec.colAt, eq)
}

// groupAcc accumulates one column's aggregates over a streamed group,
// mirroring evalAggregate's accumulation exactly (including NULL handling
// and first-value semantics for unaggregated HAVING columns). The first
// non-numeric value is recorded rather than rejected eagerly: the reference
// path evaluates HAVING aggregates lazily per group and short-circuits on
// the first failing condition, so a SUM/AVG type error must only surface if
// that aggregate is actually evaluated.
type groupAcc struct {
	count    int
	sum      float64
	min, max sqlir.Value
	first    sqlir.Value
	hasFirst bool
	bad      sqlir.Value // first non-null non-numeric value, for SUM/AVG
	hasBad   bool
}

// observe folds one cell into the accumulator (evalAggregate's loop body).
func (a *groupAcc) observe(v sqlir.Value) {
	if !a.hasFirst {
		a.first, a.hasFirst = v, true
	}
	if v.IsNull() {
		return
	}
	if !a.hasBad && v.Kind != sqlir.KindNumber {
		a.bad, a.hasBad = v, true
	}
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v.Less(a.min) {
			a.min = v
		}
		if a.max.Less(v) {
			a.max = v
		}
	}
	if v.Kind == sqlir.KindNumber {
		a.sum += v.Num
	}
	a.count++
}

type groupState struct {
	rows int
	accs []groupAcc
}

// checkGroupHavings evaluates the HAVING conditions over streamed group
// states in discovery order, shared by both streaming pipelines.
func checkGroupHavings(order []*groupState, colAt map[sqlir.ColumnRef]int, eq ExistsQuery) (bool, error) {
	gb := groupedBinding{colAt: colAt}
	havings := make([]boundAgg, len(eq.Havings))
	for i, h := range eq.Havings {
		havings[i] = gb.aggAt(h.Agg, h.Col)
	}
	for _, st := range order {
		pass := true
		for i, h := range eq.Havings {
			hv, err := st.value(havings[i])
			if err != nil {
				return false, err
			}
			if !h.Op.Eval(hv, h.Val) {
				pass = false
				break
			}
		}
		if pass && (st.rows > 0 || len(eq.GroupBy) == 0) {
			return true, nil
		}
	}
	return false, nil
}

// groupedBinding is a query's grouping shape compiled against a stream
// plan: the GROUP BY keys and the distinct concrete columns whose aggregates
// the query reads, shared by grouped existence probes and grouped complete
// queries so both reject exactly the same shapes.
type groupedBinding struct {
	keys  []boundCol
	cols  []boundCol
	colAt map[sqlir.ColumnRef]int
}

// bindKeys resolves the GROUP BY columns.
func (gb *groupedBinding) bindKeys(plan *streamPlan, groupBy []sqlir.ColumnRef) error {
	gb.keys = make([]boundCol, 0, len(groupBy))
	gb.colAt = map[sqlir.ColumnRef]int{}
	for _, g := range groupBy {
		c, err := plan.bindVec(g)
		if err != nil {
			return err
		}
		gb.keys = append(gb.keys, c)
	}
	return nil
}

// bindAgg registers one agg(col) the query evaluates per group. It fails on
// a column that does not bind — * included, which only COUNT reads — and
// then on an unknown aggregate, the order in which the reference meets them.
func (gb *groupedBinding) bindAgg(plan *streamPlan, agg sqlir.AggFunc, col sqlir.ColumnRef) error {
	if agg == sqlir.AggCount && col.IsStar() {
		return nil // reads the group's row count
	}
	if _, seen := gb.colAt[col]; !seen {
		c, err := plan.bindVec(col)
		if err != nil {
			return err
		}
		gb.colAt[col] = len(gb.cols)
		gb.cols = append(gb.cols, c)
	}
	if agg > sqlir.AggAvg {
		return fmt.Errorf("sqlexec: unknown aggregate %v", agg)
	}
	return nil
}

// bindGrouped resolves an exists query's GROUP BY keys and HAVING aggregate
// columns.
func bindGrouped(plan *streamPlan, eq ExistsQuery) (*groupedBinding, error) {
	gb := &groupedBinding{}
	if err := gb.bindKeys(plan, eq.GroupBy); err != nil {
		return nil, err
	}
	for _, h := range eq.Havings {
		if err := gb.bindAgg(plan, h.Agg, h.Col); err != nil {
			return nil, err
		}
	}
	return gb, nil
}

// boundAgg is one agg(col) resolved against a groupedBinding: which
// accumulator it reads (col < 0: none — COUNT(*) reads the row count) and
// the column's name for error messages.
type boundAgg struct {
	agg sqlir.AggFunc
	col int
	ref sqlir.ColumnRef
}

// aggAt resolves an agg(col) that bindAgg has registered.
func (gb *groupedBinding) aggAt(agg sqlir.AggFunc, col sqlir.ColumnRef) boundAgg {
	if col.IsStar() {
		return boundAgg{agg: agg, col: -1}
	}
	return boundAgg{agg: agg, col: gb.colAt[col], ref: col}
}

// value reads one agg(col) off a streamed group state, with the same
// empty-group and non-numeric-rejection semantics as evalAggregate — in
// particular, SUM/AVG over non-numeric data only errors when that aggregate
// is actually evaluated for a group.
func (st *groupState) value(b boundAgg) (sqlir.Value, error) {
	if b.col < 0 {
		return sqlir.NewInt(st.rows), nil
	}
	a := &st.accs[b.col]
	switch b.agg {
	case sqlir.AggNone:
		if st.rows == 0 {
			return sqlir.Null(), nil
		}
		return a.first, nil
	case sqlir.AggCount:
		return sqlir.NewInt(a.count), nil
	case sqlir.AggMin:
		return a.min, nil
	case sqlir.AggMax:
		return a.max, nil
	case sqlir.AggSum:
		if a.hasBad {
			return sqlir.Null(), errNonNumericAgg(b.ref, a.bad)
		}
		if a.count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(a.sum), nil
	case sqlir.AggAvg:
		if a.hasBad {
			return sqlir.Null(), errNonNumericAgg(b.ref, a.bad)
		}
		if a.count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(a.sum / float64(a.count)), nil
	default:
		return sqlir.Null(), nil
	}
}

// errNonNumericAgg is shared by the streaming and materializing aggregate
// evaluators so both paths reject SUM/AVG over non-numeric data identically.
func errNonNumericAgg(col sqlir.ColumnRef, v sqlir.Value) error {
	return fmt.Errorf("sqlexec: SUM/AVG over non-numeric value %s in column %s", v, col)
}

// appendVecKey appends a fixed-width, kind-tagged binary encoding of one
// cell to a group-key buffer: 'z' for NULL, 'c' + the 4-byte dictionary
// code for text, 'n' + the 8-byte float bits for numbers (-0 normalized to
// +0, matching Value.Equal). Each tag determines its payload length, so the
// concatenation over key columns is prefix-free and therefore injective —
// key equality coincides with Value.Equal per column, with none of
// appendValueKey's decimal float formatting.
func appendVecKey(buf []byte, vec *storage.ColumnVec, ri int) []byte {
	if vec.IsNull(ri) {
		return append(buf, 'z')
	}
	switch vec.Type() {
	case sqlir.TypeNumber:
		f := vec.Num(ri)
		if f == 0 {
			f = 0 // collapse -0.0 onto +0.0, which Value.Equal treats as equal
		}
		if f != f {
			// Canonicalize NaN payloads: the reference key renders every
			// NaN as the same string, so all NaNs must share one group.
			f = math.NaN()
		}
		return binary.LittleEndian.AppendUint64(append(buf, 'n'), math.Float64bits(f))
	case sqlir.TypeText:
		return binary.LittleEndian.AppendUint32(append(buf, 'c'), vec.Code(ri))
	default:
		return append(buf, 'z')
	}
}

// appendValueKey appends an injective, kind-tagged encoding of v to buf —
// the key builder for the materializing executor's grouping and DISTINCT,
// and for DISTINCT over a grouped result's evaluated rows. Text is
// length-prefixed so payloads containing the separator byte cannot
// collide across adjacent values; numbers rely on FormatFloat 'g/-1'
// round-tripping exactly. Key equality therefore coincides with Value.Equal
// on concatenated encodings.
func appendValueKey(buf []byte, v sqlir.Value) []byte {
	switch v.Kind {
	case sqlir.KindText:
		buf = append(buf, 't')
		buf = strconv.AppendInt(buf, int64(len(v.Text)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.Text...)
	case sqlir.KindNumber:
		buf = append(buf, 'n')
		if v.Num == 0 {
			buf = append(buf, '0') // normalize -0.0, which Value.Equal treats as 0
		} else {
			buf = strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
		}
	default:
		buf = append(buf, 'z')
	}
	return append(buf, 0)
}

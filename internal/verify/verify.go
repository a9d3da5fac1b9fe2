// Package verify implements the paper's ascending-cost cascading
// verification (Algorithm 3): a sequence of checks on partial queries
// ordered from cheapest (no database access) to most expensive (executing
// verification queries), so large branches of the search space are pruned
// before any database work is done.
//
// Stage order, as in Algorithm 3:
//
//	VerifyClauses      — sorting/limit flags vs the TSQ (no DB)
//	VerifySemantics    — Table 4 semantic rules (no DB)
//	VerifyColumnTypes  — projection types vs TSQ annotations (schema only)
//	VerifyByColumn     — per-column existence of example cells (cheap DB)
//	VerifyByRow        — per-tuple existence under the partial query (DB)
//	VerifyLiterals     — complete queries must use all NLQ literals
//	VerifyByOrder      — complete queries must satisfy the full TSQ
//	                     (ordering, distinctness, limit), asked of the
//	                     result as it streams, with an early exit
package verify

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// Stage names a verification stage.
type Stage string

// Stages in ascending cost order.
const (
	StageClauses     Stage = "clauses"
	StageSemantics   Stage = "semantics"
	StageColumnTypes Stage = "column-types"
	StageByColumn    Stage = "by-column"
	StageByRow       Stage = "by-row"
	StageLiterals    Stage = "literals"
	StageByOrder     Stage = "by-order"
)

// stages lists the cascade in ascending cost order; a stage's position
// indexes the verifier's per-stage rejection counters.
var stages = [...]Stage{
	StageClauses, StageSemantics, StageColumnTypes, StageByColumn,
	StageByRow, StageLiterals, StageByOrder,
}

// Outcome reports a verification decision.
type Outcome struct {
	OK    bool
	Stage Stage // the stage that rejected (when !OK)

	// Why it was rejected, kept unrendered and by value: a request rejects
	// hundreds of children and nothing on its path reads the reason (see
	// Reason), so recording one must not allocate. The arguments are small
	// integers, one-byte enums and pointers to values the verifier owns and
	// never mutates — none of which costs anything to box — and never a
	// part of the query checked, which may be the search's scratch.
	format string
	args   [3]any
}

// Reason renders the human-readable rejection reason ("" for a pass).
func (o Outcome) Reason() string {
	if o.OK {
		return ""
	}
	n := len(o.args)
	for n > 0 && o.args[n-1] == nil {
		n--
	}
	return fmt.Sprintf(o.format, o.args[:n]...)
}

func pass() Outcome { return Outcome{OK: true} }

func fail(stage Stage, format string, args ...any) Outcome {
	o := Outcome{Stage: stage, format: format}
	copy(o.args[:], args)
	return o
}

// Stats counts per-stage work for the cost-ordering analysis (§3.4). The
// executor-level counters report how much work the streaming pipeline's
// predicate pushdown eliminates.
type Stats struct {
	Checked     int           // total Verify calls
	Rejected    map[Stage]int // rejections per stage
	ColumnCache int           // column-check cache hits
	DBQueries   int           // verification queries actually executed

	StreamedExists int // existence probes served by the streaming executor
	IndexHits      int // posting-list lookups served by persistent column indexes
}

// Verifier checks partial queries against a TSQ, the NLQ literals, and the
// semantic rule set. A Verifier is safe for concurrent use: the enumerator's
// verification worker pool calls Verify from many goroutines, sharing the
// column-wise and row-wise memos (concurrent first checks of the same key
// share one database query). Create one per synthesis task — the rules,
// sketch, and literals are request state — but the memos themselves depend
// only on the database contents, so verifiers for the same database may
// share them through a Cache (NewWithCache): a later request re-asking a
// question an earlier request already answered pays no database work.
type Verifier struct {
	db       *storage.Database
	rules    *semrules.RuleSet
	sketch   *tsq.TSQ // nil disables TSQ checks (NLI mode)
	literals []sqlir.Value

	colCache *boolMemo // column-wise verification memo (shared via Cache)
	rowCache *boolMemo // row-wise verification memo (shared via Cache)
	joins    *sqlexec.JoinCache
	// base is the executor handle's counter snapshot at verifier creation;
	// Stats reports the delta so a shared handle's counters from earlier
	// requests are not attributed to this one. Under concurrent requests
	// the delta also includes their overlapping work — the per-database
	// cumulative view lives in the service layer's stats.
	base sqlexec.PipelineStats

	// Per-request counters, bumped from the search goroutine and the pool
	// workers alike.
	checked   atomic.Int64
	colHits   atomic.Int64
	dbQueries atomic.Int64
	rejected  [len(stages)]atomic.Int64
}

// boolMemo memoizes a keyed boolean computation under fixed-size hashed
// keys (see keys.go — no per-lookup string building). Concurrent first
// lookups of a key share one computation: the loser of the map race blocks
// on the winner's entry lock instead of re-running the (possibly expensive
// database) check. A transient failure — the computing request was
// cancelled, expired, or drew an injected fault — is reported to its caller
// but never memoized, so a shared memo cannot replay one request's fate to
// later, healthy requests.
type boolMemo struct {
	mu sync.Mutex
	m  map[memoKey]*boolEntry
}

type boolEntry struct {
	mu sync.Mutex
	// done is set, under mu, after the fields below are written and never
	// cleared, so a lock-free reader that observes it may read them all.
	done atomic.Bool
	val  bool
	err  error
	deps []string // tables the answer reads; carries the entry across epochs
	// mono marks an answer that is monotone under append-only ingest: the
	// question is "does any row/value satisfy X" with no HAVING-style
	// aggregate equality, so once true it stays true in every later epoch —
	// a true entry carries across epochs even when its tables changed.
	mono bool
}

// transient reports whether err reflects one request's fate (cancellation,
// deadline expiry, injected fault) rather than a property of the database.
func transient(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		faultinject.IsInjected(err)
}

// do returns the memoized value for key, computing it at most once across
// all callers. hit reports whether a previously computed entry answered the
// call. deps names the tables the answer reads; it is only invoked when a
// freshly computed entry is stored, and lets carryMemo move the entry across
// an epoch boundary when none of its tables changed — or, for monotone
// questions that answered true, even when they did.
func (bm *boolMemo) do(key memoKey, deps func() (tables []string, monotone bool), f func() (bool, error)) (val, hit bool, err error) {
	bm.mu.Lock()
	if bm.m == nil {
		bm.m = map[memoKey]*boolEntry{}
	}
	e, ok := bm.m[key]
	if !ok {
		e = &boolEntry{}
		bm.m[key] = e
	}
	bm.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return e.val, ok, e.err
	}
	val, err = f()
	if err != nil && transient(err) {
		// Leave the entry uncomputed for the next request.
		return false, false, err
	}
	e.val, e.err = val, err
	if deps != nil {
		e.deps, e.mono = deps()
	}
	e.done.Store(true)
	return e.val, false, e.err
}

// peek returns the memoized value for key if one has been computed, without
// computing it and without waiting for a computation in flight. An entry
// that memoized an error reports not found, so the caller's do surfaces it.
func (bm *boolMemo) peek(key memoKey) (val, found bool) {
	bm.mu.Lock()
	e := bm.m[key]
	bm.mu.Unlock()
	if e == nil || !e.done.Load() || e.err != nil {
		return false, false
	}
	return e.val, true
}

// carryMemo builds the next epoch's memo from a previous epoch's, copying
// every completed entry that provably still answers the same question:
//
//   - entries whose dependency tables resolve to the same frozen *Table in
//     both snapshots — the answer is a pure function of those tables'
//     contents, so it cannot differ; and
//   - monotone entries that answered true — under append-only ingest an
//     existing satisfying row never disappears, so the answer holds in
//     every later epoch no matter what was appended.
//
// Everything else (false answers over changed tables, HAVING-style
// aggregate checks, entries without recorded dependencies) restarts cold.
func carryMemo(db, prevDB *storage.Database, prev *boolMemo) *boolMemo {
	next := &boolMemo{}
	prev.mu.Lock()
	entries := make(map[memoKey]*boolEntry, len(prev.m))
	for k, e := range prev.m {
		entries[k] = e
	}
	prev.mu.Unlock()
	for k, e := range entries {
		// Like peek, never wait for a computation in flight: its request is
		// still on the previous epoch and may hold e.mu for as long as its
		// probe runs. An entry not yet done simply restarts cold.
		if !e.done.Load() || e.err != nil || len(e.deps) == 0 {
			continue
		}
		val, deps, mono := e.val, e.deps, e.mono
		carry := mono && val
		if !carry {
			carry = true
			for _, name := range deps {
				t := db.Table(name)
				if t == nil || t != prevDB.Table(name) {
					carry = false
					break
				}
			}
		}
		if !carry {
			continue
		}
		if next.m == nil {
			next.m = map[memoKey]*boolEntry{}
		}
		ne := &boolEntry{val: val, deps: deps, mono: mono}
		ne.done.Store(true)
		next.m[k] = ne
	}
	return next
}

// Cache is the per-database-epoch shared verification state: the executor
// handle (counters only) plus the column-wise and row-wise verification
// memos. Every memoized answer is a function of the database contents alone
// (the sketch and literals only choose which questions get asked), so one
// Cache is safely shared by all verifiers — and therefore all requests —
// bound to the same database. The cache assumes its database is an
// immutable view (the service layer builds one Cache per frozen epoch
// snapshot): memos are never invalidated, so a write to the live database
// can never evict another reader's warm answers — readers that want the new
// rows use a new snapshot's Cache.
type Cache struct {
	db    *storage.Database
	joins *sqlexec.JoinCache
	col   *boolMemo
	row   *boolMemo
}

// NewCache builds the shared verification state for a database (normally a
// frozen epoch snapshot; see the type comment).
func NewCache(db *storage.Database) *Cache {
	return &Cache{
		db:    db,
		joins: sqlexec.NewJoinCache(db),
		col:   &boolMemo{},
		row:   &boolMemo{},
	}
}

// NewCacheFrom builds the shared verification state for a new frozen epoch
// snapshot, carrying the previous epoch's memoized column-/row-wise answers
// forward wherever they provably still hold (carryMemo). An append touches
// one table, so every answer not reading that table stays warm across the
// epoch boundary — a write costs readers only the changed table's memos,
// never a fully cold cache. The executor handle carries nothing: it holds no
// data, only counters.
func NewCacheFrom(db *storage.Database, prev *Cache) *Cache {
	if prev == nil {
		return NewCache(db)
	}
	return &Cache{
		db:    db,
		joins: sqlexec.NewJoinCache(db),
		col:   carryMemo(db, prev.db, prev.col),
		row:   carryMemo(db, prev.db, prev.row),
	}
}

// Joins exposes the shared executor handle (the service layer routes
// previews and its stats snapshots through it).
func (c *Cache) Joins() *sqlexec.JoinCache { return c.joins }

// handles returns the cache's memos. They live as long as the cache: the
// database underneath is an immutable snapshot, so they never go stale.
func (c *Cache) handles() (col, row *boolMemo) {
	return c.col, c.row
}

// New builds a verifier with private caches. sketch may be nil (no TSQ
// given); rules may be nil to disable semantic pruning; literals may be
// empty.
func New(db *storage.Database, rules *semrules.RuleSet, sketch *tsq.TSQ, literals []sqlir.Value) *Verifier {
	return NewWithCache(db, rules, sketch, literals, NewCache(db))
}

// NewWithCache builds a verifier borrowing a shared per-database Cache, so
// column-wise and row-wise checks are reused across every verifier created
// from the same Cache. The cache must have
// been built for db: memo keys do not encode database identity, so a
// mismatched pair would serve another database's answers.
func NewWithCache(db *storage.Database, rules *semrules.RuleSet, sketch *tsq.TSQ, literals []sqlir.Value, cache *Cache) *Verifier {
	if cache.db != db {
		panic("verify: cache was built for a different database")
	}
	col, row := cache.handles()
	return &Verifier{
		db:       db,
		rules:    rules,
		sketch:   sketch,
		literals: literals,
		colCache: col,
		rowCache: row,
		joins:    cache.joins,
		base:     cache.joins.Stats(),
	}
}

// Stats returns a copy of the per-stage counters, folding in the executor
// pipeline counters from the executor handle.
func (v *Verifier) Stats() Stats {
	st := Stats{
		Checked:     int(v.checked.Load()),
		Rejected:    map[Stage]int{},
		ColumnCache: int(v.colHits.Load()),
		DBQueries:   int(v.dbQueries.Load()),
	}
	for i, stage := range stages {
		if n := v.rejected[i].Load(); n > 0 {
			st.Rejected[stage] = int(n)
		}
	}
	ps := v.joins.Stats()
	st.StreamedExists = int(ps.StreamedExists - v.base.StreamedExists)
	st.IndexHits = int(ps.IndexHits() - v.base.IndexHits())
	return st
}

// countDBQuery bumps the executed-verification-query counter.
func (v *Verifier) countDBQuery() { v.dbQueries.Add(1) }

// settle records a finished check's outcome in the rejection counters.
func (v *Verifier) settle(out Outcome) {
	if out.OK {
		return
	}
	for i, stage := range stages {
		if stage == out.Stage {
			v.rejected[i].Add(1)
			return
		}
	}
}

// Verify runs the full cascade of Algorithm 3 on a partial query.
func (v *Verifier) Verify(q *sqlir.Query) (Outcome, error) {
	return v.VerifyCtx(context.Background(), q)
}

// VerifyCtx is Verify under a request context: the database-touching stages
// poll ctx through the executor's cancellation checkpoints and unwind with
// ctx.Err() when the request is cancelled or past its deadline. It assumes
// nothing about q's ancestry and runs every stage, which makes it the
// oracle the inherited checks (Begin/Finish) are tested against.
func (v *Verifier) VerifyCtx(ctx context.Context, q *sqlir.Query) (Outcome, error) {
	c, err := v.check(ctx, q, sqlir.Decision{}, false)
	return c.out, err
}

// Check is one query's verification in progress: what Begin decided on the
// calling goroutine and, while Pending, what is left for Finish.
type Check struct {
	owes    debt
	out     Outcome
	pending bool
}

// Pending reports that database work remains: Outcome is not final until
// Finish has run.
func (c Check) Pending() bool { return c.pending }

// Outcome is the decision of a check that is not Pending.
func (c Check) Outcome() Outcome { return c.out }

// Begin verifies q as far as that takes no database work, on the calling
// goroutine. d is the one decision separating q from a parent that passed
// this verifier's cascade — what q shares with that parent is inherited,
// not re-proved (see owed) — or the zero Decision when there is no such
// parent. The returned check is final unless Pending: then a memo miss or
// the by-order execution remains and Finish, on any goroutine, completes
// it. Begin and Finish together count as one check in Stats. Begin keeps
// nothing of q: the caller may build the next query in the same memory.
func (v *Verifier) Begin(ctx context.Context, q *sqlir.Query, d sqlir.Decision) (Check, error) {
	return v.check(ctx, q, d, true)
}

// Finish completes a check Begin left pending, doing the database work,
// from the stage that stopped it. q is the query Begin looked at or an
// equal one that outlives the call — the enumerator begins on a scratch
// query and finishes, possibly on another goroutine, on an immutable copy.
func (v *Verifier) Finish(ctx context.Context, c Check, q *sqlir.Query) (Outcome, error) {
	out, _, err := v.dbStages(ctx, q, &c.owes, false)
	if err == nil {
		v.settle(out)
	}
	return out, err
}

// check is one query's trip through the cascade. With inline set it stops,
// pending, where the first database access would happen.
func (v *Verifier) check(ctx context.Context, q *sqlir.Query, d sqlir.Decision, inline bool) (Check, error) {
	v.checked.Add(1)
	if err := faultinject.From(ctx).VerifyError(); err != nil {
		return Check{}, err
	}
	c := Check{owes: owed(q, d)}
	c.out = v.verifyClauses(q)
	if c.out.OK {
		c.out = v.verifySemantics(q)
	}
	if c.out.OK && c.owes.types {
		c.out = v.verifyColumnTypes(q)
	}
	var err error
	if c.out.OK {
		c.out, c.pending, err = v.dbStages(ctx, q, &c.owes, inline)
	}
	if err == nil && !c.pending {
		v.settle(c.out)
	}
	return c, err
}

// debt is what a query still owes the cascade beyond the clause and
// semantic checks, which every query pays in full.
type debt struct {
	types bool // the column-types stage
	col   int  // by-column: a projection index, allProjections or noProjection
	rows  bool // by-row
}

const (
	allProjections = -1
	noProjection   = -2
)

// owed is the inheritance rule. A query whose parent passed the cascade
// re-proves only what the separating decision d could have changed:
//
//   - column types and by-column read the projection list alone, so only
//     projection decisions owe them, and by-column only for the one
//     projection written;
//   - by-row reads FROM, the complete projections, the sound subset of
//     WHERE (complete predicates, connective, clause states), GROUP BY and a
//     complete HAVING: a predicate or HAVING decision owes it only once the
//     slot it wrote is complete, and ORDER BY / LIMIT decisions never do —
//     the child's row questions are then the parent's, which passed;
//   - the zero Decision inherits nothing, nor does the keyword decision:
//     it is the root's, and the empty query has proved nothing.
//
// Clauses, semantics, literals and by-order are not inherited: the first
// two are cheap and read everything, the last two run once, on completion.
func owed(q *sqlir.Query, d sqlir.Decision) debt {
	switch d.Kind {
	case sqlir.DecideSelectColumn, sqlir.DecideSelectAgg:
		return debt{types: true, col: int(d.Index), rows: true}
	case sqlir.DecideSelectCount:
		return debt{types: true, col: noProjection, rows: true}
	case sqlir.DecideFrom, sqlir.DecideWhereCount, sqlir.DecideWhereConj, sqlir.DecideGroupBy:
		return debt{col: noProjection, rows: true}
	case sqlir.DecidePredColumn, sqlir.DecidePredOp, sqlir.DecidePredValue:
		written := int(d.Index) >= len(q.Where.Preds) || q.Where.Preds[d.Index].Complete()
		return debt{col: noProjection, rows: written}
	case sqlir.DecideHaving, sqlir.DecideHavingOp, sqlir.DecideHavingValue:
		written := q.HavingState != sqlir.ClausePresent || q.Having.Complete()
		return debt{col: noProjection, rows: written}
	case sqlir.DecideOrderKey, sqlir.DecideOrderDir:
		return debt{col: noProjection}
	default:
		return debt{types: true, col: allProjections, rows: true}
	}
}

// dbStages runs the stages that can touch the database, striking each
// passed stage off owes. With inline set, memoized answers are used but
// nothing is computed: the first miss, and the by-order execution, return
// pending with owes saying where to resume.
func (v *Verifier) dbStages(ctx context.Context, q *sqlir.Query, owes *debt, inline bool) (out Outcome, pending bool, err error) {
	if owes.col != noProjection {
		out, pending, err = v.verifyByColumn(ctx, q, owes.col, inline)
		if err != nil || pending || !out.OK {
			return out, pending, err
		}
		owes.col = noProjection
	}
	if owes.rows && v.canCheckRows(q) {
		out, pending, err = v.verifyByRow(ctx, q, inline)
		if err != nil || pending || !out.OK {
			return out, pending, err
		}
	}
	owes.rows = false
	if q.Complete() {
		if out := v.verifyLiterals(q); !out.OK {
			return out, false, nil
		}
		if v.sketch != nil {
			if inline {
				return Outcome{}, true, nil
			}
			out, err = v.verifyByOrder(ctx, q)
			return out, false, err
		}
	}
	return pass(), false, nil
}

// verifyClauses checks the sorting flag and limit against the TSQ (Example
// 3.3: a TSQ with τ=⊥ rejects any partial query carrying ORDER BY).
func (v *Verifier) verifyClauses(q *sqlir.Query) Outcome {
	if v.sketch == nil {
		return pass()
	}
	if !v.sketch.Sorted && q.OrderByState != sqlir.ClauseAbsent {
		return fail(StageClauses, "TSQ is unsorted but query has ORDER BY")
	}
	if v.sketch.Sorted && q.KWSet && q.OrderByState == sqlir.ClauseAbsent {
		return fail(StageClauses, "TSQ is sorted but query decided against ORDER BY")
	}
	if q.LimitSet {
		if v.sketch.Limit == 0 && q.Limit > 0 {
			return fail(StageClauses, "TSQ has no limit but query has LIMIT %d", q.Limit)
		}
		if v.sketch.Limit > 0 && q.Limit == 0 {
			return fail(StageClauses, "TSQ limits to %d rows but query has no LIMIT", v.sketch.Limit)
		}
		if v.sketch.Limit > 0 && q.Limit > v.sketch.Limit {
			return fail(StageClauses, "query LIMIT %d exceeds TSQ limit %d", q.Limit, v.sketch.Limit)
		}
	}
	return pass()
}

// verifySemantics applies the Table 4 rules.
func (v *Verifier) verifySemantics(q *sqlir.Query) Outcome {
	if v.rules == nil {
		return pass()
	}
	if viol := v.rules.Check(q, v.db.Schema); viol != nil {
		return fail(StageSemantics, "%s", viol)
	}
	return pass()
}

// verifyColumnTypes compares decided projections against the TSQ type
// annotations (Example 3.4).
func (v *Verifier) verifyColumnTypes(q *sqlir.Query) Outcome {
	if v.sketch == nil {
		return pass()
	}
	w := v.sketch.Width()
	if w == 0 {
		return pass()
	}
	if q.SelectCountSet && len(q.Select) != w {
		return fail(StageColumnTypes, "query projects %d columns, TSQ has %d", len(q.Select), w)
	}
	if len(q.Select) > w {
		return fail(StageColumnTypes, "query already projects %d columns, TSQ has %d", len(q.Select), w)
	}
	if len(v.sketch.Types) == 0 {
		return pass()
	}
	for i, s := range q.Select {
		if !s.Complete() {
			continue
		}
		want := v.sketch.Types[i]
		if want == sqlir.TypeUnknown {
			continue
		}
		colType, ok := v.db.Schema.Resolve(s.Col)
		if !ok {
			return fail(StageColumnTypes, "projection %d names an unknown column", i)
		}
		got := s.Agg.ResultType(colType)
		if got != want {
			return fail(StageColumnTypes, "projection %d is %s, TSQ wants %s", i, got, want)
		}
	}
	return pass()
}

// verifyByColumn checks decided projections column-wise against the example
// tuples (Example 3.5): the cell value (or range) must occur in the
// projected column's own table. COUNT and SUM projections are skipped; AVG
// is checked against the column's min/max range. only restricts the check
// to one projection (the others are inherited), or is allProjections.
func (v *Verifier) verifyByColumn(ctx context.Context, q *sqlir.Query, only int, inline bool) (out Outcome, pending bool, err error) {
	if v.sketch == nil || len(v.sketch.Tuples) == 0 {
		return pass(), false, nil
	}
	// Memo hits are counted once the stage is through, so a check resumed
	// after a miss does not count the hits before it twice.
	hits := 0
	for i, s := range q.Select {
		if only != allProjections && i != only {
			continue
		}
		if !s.Complete() || s.Col.IsStar() {
			continue
		}
		switch s.Agg {
		case sqlir.AggCount, sqlir.AggSum:
			// No conclusion can be drawn for partial queries (§3.4).
			continue
		}
		for ti, tp := range v.sketch.Tuples {
			if i >= len(tp) {
				break
			}
			cell := tp[i]
			if cell.Kind == tsq.CellEmpty {
				continue
			}
			ok, hit, found, err := v.columnCellCheck(ctx, s.Agg, s.Col, cell, inline)
			if err != nil || !found {
				return pass(), !found, err
			}
			if hit {
				hits++
			}
			if !ok {
				v.colHits.Add(int64(hits))
				return fail(StageByColumn,
					"tuple %d cell %d (%s) has no match in the projected column", ti, i, &tp[i]), false, nil
			}
		}
	}
	v.colHits.Add(int64(hits))
	return pass(), false, nil
}

// columnCellCheck answers "does any value of col satisfy cell", memoized
// under a hashed fixed-size key. hit reports a memoized answer; with inline
// set a miss is not computed and reports !found.
func (v *Verifier) columnCellCheck(ctx context.Context, agg sqlir.AggFunc, col sqlir.ColumnRef, cell tsq.Cell, inline bool) (ok, hit, found bool, err error) {
	key := columnCellKey(agg == sqlir.AggAvg, col, cell)
	if inline {
		ok, found = v.colCache.peek(key)
		return ok, found, found, nil
	}
	// Both forms are monotone under append-only ingest: a matching value
	// never disappears, and the AVG range check's [min, max] only widens.
	deps := func() ([]string, bool) { return []string{col.Table}, true }
	ok, hit, err = v.colCache.do(key, deps, func() (bool, error) {
		if agg == sqlir.AggAvg {
			// The average lies within [min, max]: verification fails only
			// if the cell cannot intersect that range.
			st, serr := v.db.Stats(col)
			if serr != nil {
				return false, serr
			}
			return avgCellPossible(st, cell), nil
		}
		// Unaggregated, MIN and MAX projections produce exact column
		// values: run SELECT 1 FROM t WHERE <cell constraint> LIMIT 1.
		preds := cellPredicates(col, cell)
		v.countDBQuery()
		return v.joins.ExistsCtx(ctx, sqlexec.ExistsQuery{
			From:  &sqlir.JoinPath{Tables: []string{col.Table}},
			Conj:  sqlir.LogicAnd,
			Preds: preds,
		})
	})
	return ok, hit, true, err
}

// avgCellPossible checks intersection of the cell with the column's
// [min, max] range.
func avgCellPossible(st storage.ColumnStats, cell tsq.Cell) bool {
	if st.NonNull == 0 {
		return false
	}
	if st.Min.Kind != sqlir.KindNumber {
		return false
	}
	lo, hi := st.Min.Num, st.Max.Num
	switch cell.Kind {
	case tsq.CellExact:
		if cell.Val.Kind != sqlir.KindNumber {
			return false
		}
		return cell.Val.Num >= lo && cell.Val.Num <= hi
	case tsq.CellRange:
		return cell.Hi.Num >= lo && cell.Lo.Num <= hi
	default:
		return true
	}
}

// cellPredicates renders a cell as WHERE predicates on col.
func cellPredicates(col sqlir.ColumnRef, cell tsq.Cell) []sqlir.Predicate {
	switch cell.Kind {
	case tsq.CellExact:
		return []sqlir.Predicate{{
			Col: col, ColSet: true, Op: sqlir.OpEq, OpSet: true,
			Val: cell.Val, ValSet: true,
		}}
	case tsq.CellRange:
		return []sqlir.Predicate{
			{Col: col, ColSet: true, Op: sqlir.OpGe, OpSet: true, Val: cell.Lo, ValSet: true},
			{Col: col, ColSet: true, Op: sqlir.OpLe, OpSet: true, Val: cell.Hi, ValSet: true},
		}
	default:
		return nil
	}
}

// canCheckRows enforces the precondition for row-wise verification: a join
// path must exist, and a query with aggregated projections needs completed
// WHERE and GROUP BY clauses, because filling their holes could change the
// aggregates (§3.4).
func (v *Verifier) canCheckRows(q *sqlir.Query) bool {
	if v.sketch == nil || len(v.sketch.Tuples) == 0 {
		return false
	}
	if q.From == nil {
		return false
	}
	// At least one decided projection must carry a checkable constraint.
	checkable := false
	for i, s := range q.Select {
		if !s.Complete() {
			continue
		}
		for _, tp := range v.sketch.Tuples {
			if i < len(tp) && tp[i].Kind != tsq.CellEmpty {
				checkable = true
			}
		}
	}
	if !checkable {
		return false
	}
	if len(q.AggregatedProjections()) > 0 {
		if q.WhereState == sqlir.ClausePending {
			return false
		}
		if q.WhereState == sqlir.ClausePresent && !q.Where.Complete() {
			return false
		}
		if q.GroupByState == sqlir.ClausePending {
			return false
		}
		if q.GroupByState == sqlir.ClausePresent && len(q.GroupBy) == 0 {
			return false
		}
	}
	return true
}

// verifyByRow runs one row-wise verification query per example tuple
// (Example 3.6): the cell constraints of all decided projections must be
// satisfied by a single joined row (or group). The query retains the partial
// query's own predicates whenever doing so is sound (AND semantics), and
// drops them otherwise so the check runs against a superset — a failure
// then still soundly prunes every completion.
func (v *Verifier) verifyByRow(ctx context.Context, q *sqlir.Query, inline bool) (out Outcome, pending bool, err error) {
	basePreds, baseConj := soundPredicates(q)
	var baseHavings []sqlir.HavingExpr
	if q.GroupByState == sqlir.ClausePresent && q.HavingState == sqlir.ClausePresent &&
		q.Having.Complete() {
		baseHavings = append(baseHavings, *q.Having)
	}
	var groupBy []sqlir.ColumnRef
	if q.GroupByState == sqlir.ClausePresent {
		groupBy = q.GroupBy
	}
	hasAgg := len(q.AggregatedProjections()) > 0

	for ti, tp := range v.sketch.Tuples {
		eq := sqlexec.ExistsQuery{
			From:    q.From,
			Conj:    baseConj,
			Preds:   basePreds,
			GroupBy: groupBy,
		}
		eq.Havings = append(eq.Havings, baseHavings...)
		constrained := false
		for i, s := range q.Select {
			if !s.Complete() || i >= len(tp) {
				continue
			}
			cell := tp[i]
			if cell.Kind == tsq.CellEmpty {
				continue
			}
			if s.Agg == sqlir.AggNone {
				if !q.From.Contains(s.Col.Table) {
					return fail(StageByRow, "projection %d outside join path", i), false, nil
				}
				eq.AndPreds = append(eq.AndPreds, cellPredicates(s.Col, cell)...)
				constrained = true
			} else {
				// Aggregated projections move to HAVING (RV2). Only
				// sound when grouping semantics are fixed.
				if !hasAgg {
					continue
				}
				eq.Havings = append(eq.Havings, cellHavings(s.Agg, s.Col, cell)...)
				constrained = true
			}
		}
		if !constrained {
			continue
		}
		// Sibling states (e.g. differing only in ORDER BY decisions) issue
		// identical row checks; memoize by hashed query signature.
		key := existsKey(eq)
		if inline {
			ok, found := v.rowCache.peek(key)
			if !found {
				return pass(), true, nil
			}
			if !ok {
				return fail(StageByRow, "tuple %d %s has no satisfying row", ti, &v.sketch.Tuples[ti]), false, nil
			}
			continue
		}
		// Plain exists-over-join questions are monotone under append-only
		// ingest; HAVING conditions are not (a group's aggregate can move
		// off the checked value), so those entries never outlive their
		// tables.
		deps := func() ([]string, bool) { return existsDeps(eq), len(eq.Havings) == 0 }
		ok, _, err := v.rowCache.do(key, deps, func() (bool, error) {
			v.countDBQuery()
			return v.joins.ExistsCtx(ctx, eq)
		})
		if err != nil {
			return pass(), false, err
		}
		if !ok {
			return fail(StageByRow, "tuple %d %s has no satisfying row", ti, &v.sketch.Tuples[ti]), false, nil
		}
	}
	return pass(), false, nil
}

// existsDeps names every table an exists query reads — the join path plus
// any table a predicate, grouping column, or having condition references —
// deduplicated, for the row memo's epoch carry-forward.
func existsDeps(eq sqlexec.ExistsQuery) []string {
	seen := map[string]bool{}
	var deps []string
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			deps = append(deps, t)
		}
	}
	if eq.From != nil {
		for _, t := range eq.From.Tables {
			add(t)
		}
	}
	for _, p := range eq.Preds {
		add(p.Col.Table)
	}
	for _, p := range eq.AndPreds {
		add(p.Col.Table)
	}
	for _, g := range eq.GroupBy {
		add(g.Table)
	}
	for _, h := range eq.Havings {
		add(h.Col.Table)
	}
	return deps
}

// soundPredicates returns the subset of the partial query's WHERE clause
// that can be conjoined with cell constraints without excluding any
// completion's results:
//
//   - complete WHERE: use it verbatim;
//   - incomplete with AND semantics: the decided predicates (adding the
//     remaining ones later can only shrink the result);
//   - incomplete with OR or undecided connective: nothing (a later OR arm
//     can only grow the result, so the sound superset drops the clause).
func soundPredicates(q *sqlir.Query) ([]sqlir.Predicate, sqlir.LogicalOp) {
	if q.WhereState != sqlir.ClausePresent {
		return nil, sqlir.LogicAnd
	}
	var decided []sqlir.Predicate
	for _, p := range q.Where.Preds {
		if p.Complete() {
			decided = append(decided, p)
		}
	}
	if q.Where.Complete() {
		conj := q.Where.Conj
		if len(q.Where.Preds) == 1 {
			conj = sqlir.LogicAnd
		}
		return decided, conj
	}
	andLike := (q.Where.ConjSet && q.Where.Conj == sqlir.LogicAnd) ||
		(q.Where.CountSet && len(q.Where.Preds) == 1)
	if andLike {
		return decided, sqlir.LogicAnd
	}
	return nil, sqlir.LogicAnd
}

// cellHavings renders a cell as HAVING constraints on agg(col).
func cellHavings(agg sqlir.AggFunc, col sqlir.ColumnRef, cell tsq.Cell) []sqlir.HavingExpr {
	mk := func(op sqlir.Op, val sqlir.Value) sqlir.HavingExpr {
		return sqlir.HavingExpr{
			Agg: agg, AggSet: true, Col: col, ColSet: true,
			Op: op, OpSet: true, Val: val, ValSet: true,
		}
	}
	switch cell.Kind {
	case tsq.CellExact:
		return []sqlir.HavingExpr{mk(sqlir.OpEq, cell.Val)}
	case tsq.CellRange:
		return []sqlir.HavingExpr{mk(sqlir.OpGe, cell.Lo), mk(sqlir.OpLe, cell.Hi)}
	default:
		return nil
	}
}

// verifyLiterals requires a complete query to use every literal tagged in
// the NLQ.
func (v *Verifier) verifyLiterals(q *sqlir.Query) Outcome {
	used := q.Literals()
	for i, lit := range v.literals {
		found := false
		for _, u := range used {
			if u.Equal(lit) {
				found = true
				break
			}
		}
		if !found {
			return fail(StageLiterals, "literal %s unused", &v.literals[i])
		}
	}
	return pass()
}

// verifyByOrder checks full TSQ satisfaction of the complete query's result
// — Definition 2.4's distinct matching, ordering (when τ=⊤), and row limit —
// by asking the TSQ's Matcher on the stream (sqlexec.JoinCache.AskCtx): the
// result is never built, and the scan stops once the answer is settled.
// This is the final soundness gate: every emitted candidate satisfies the
// TSQ. The caller has checked that there is a TSQ.
func (v *Verifier) verifyByOrder(ctx context.Context, q *sqlir.Query) (Outcome, error) {
	v.countDBQuery()
	ok, err := askByOrder(ctx, v.joins, q, v.sketch)
	if err != nil {
		return pass(), err
	}
	if !ok {
		return fail(StageByOrder, "result does not satisfy the TSQ"), nil
	}
	return pass(), nil
}

// askByOrder is by-order verification's question. It is a variable so that
// a test can check every answer against Satisfies(ExecuteCtx(q)).
var askByOrder = func(ctx context.Context, jc *sqlexec.JoinCache, q *sqlir.Query, sketch *tsq.TSQ) (bool, error) {
	return jc.AskCtx(ctx, q, sketch.Matcher())
}

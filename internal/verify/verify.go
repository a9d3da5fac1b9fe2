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
//	                     result as it streams, with an early exit, or
//	                     proved by by-row's answers where they decide it
//
// A check runs on its caller's goroutine from the first stage to the last,
// database stages included, and keeps nothing of the query it was given: the
// caller may build the next query in the same memory as soon as the call
// returns (the enumerator checks every query in one of two scratch
// buffers). That holds because memo keys are 128-bit hashes of the question
// (keys.go), a question's dependency tables are read from the query and
// handed to boolMemo.do before the question is asked, and an Outcome's
// reason never points into it.
package verify

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

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
//
// Checked counts cascades run, not children generated: a search checks a
// complete child when it generates it, and a child with holes left only
// when it pops it, so the children it queues and never reaches are never
// checked.
type Stats struct {
	Checked     int           // cascades run (Verify, VerifyCtx, VerifyChild calls)
	Rejected    map[Stage]int // rejections per stage
	ColumnCache int           // column-check cache hits
	// DBQueries counts verification queries actually executed: a memoized
	// answer is not one, nor is a by-order answer proved by by-row.
	DBQueries int

	StreamedExists int // existence probes served by the streaming executor
	IndexHits      int // posting-list lookups served by persistent column indexes
}

// Verifier checks partial queries against a TSQ, the NLQ literals, and the
// semantic rule set. A Verifier is safe for concurrent use, and so are the
// column-wise and row-wise memos it reads: concurrent first checks of the
// same key share one database query. Create one per synthesis task — the
// rules, sketch, and literals are request state — but the memos themselves depend
// only on the database contents, so verifiers for the same database may
// share them through a Cache (NewWithCache): a later request re-asking a
// question an earlier request already answered pays no database work.
type Verifier struct {
	db       *storage.Database
	rules    *semrules.RuleSet
	sketch   *tsq.TSQ // nil disables TSQ checks (NLI mode)
	literals []sqlir.Value
	// rowsDecide is sketch.RowsDecide(): by-row's answers can decide
	// by-order (rowsProve).
	rowsDecide bool

	colCache *boolMemo // column-wise verification memo (shared via Cache)
	rowCache *boolMemo // row-wise verification memo (shared via Cache)
	joins    *sqlexec.JoinCache
	// base is the executor handle's counter snapshot at verifier creation;
	// Stats reports the delta so a shared handle's counters from earlier
	// requests are not attributed to this one. Under concurrent requests
	// the delta also includes their overlapping work — the per-database
	// cumulative view lives in the service layer's stats.
	base sqlexec.PipelineStats

	// Per-request counters. They are atomic because a verifier may serve
	// several searches at once.
	checked   atomic.Int64
	colHits   atomic.Int64
	dbQueries atomic.Int64
	rejected  [len(stages)]atomic.Int64
}

// boolMemo memoizes a keyed boolean computation under fixed-size hashed
// keys (see keys.go — no per-lookup string building), for every snapshot of
// one database at once. Each key holds one entry, stamped with the version
// of the snapshot that computed it (boolEntry.version): an entry answers a
// reader of the same version, and a true answer that survives appended rows
// also answers every later one (answers). Concurrent first lookups of a key
// at one version share one computation: the loser of the map race blocks on
// the winner's entry lock instead of re-running the (possibly expensive
// database) check. A transient failure — the computing request was
// cancelled or expired — is reported to its caller but never memoized, so a
// shared memo cannot replay one request's fate to later, healthy requests.
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
	// mono marks a question whose true answer survives appended rows
	// (sqlexec.ExistsQuery.TrueSurvivesAppends).
	mono bool
	// version is the computing snapshot's version of the question's tables,
	// their summed row counts, fixed before the entry is published. Tables
	// only grow and epochs are totally ordered, so two snapshots of one
	// database with equal versions hold the same rows in those tables, and a
	// greater version holds at least as many rows in every one.
	version int
}

// answers reports whether a done entry answers a reader of version v: the
// entry's own version, or any later one for a true answer that survives
// appended rows.
func (e *boolEntry) answers(v int) bool {
	return e.version == v || e.mono && e.val && e.err == nil && e.version < v
}

// Transient reports whether err reflects one request's fate (cancellation or
// deadline expiry) rather than a property of the database. A
// memo never stores such an error, and the enumerator turns one into an
// anytime partial result instead of failing the request.
func Transient(err error) bool {
	// Small enough to inline: every verified child asks, and most have no
	// error.
	return err != nil && transient(err)
}

func transient(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// do returns the memoized value for key, asked of db, whose answer reads
// the tables deps; f computes it, and reports whether a true answer
// survives appended rows. hit reports whether a previously computed entry
// answered the call. A reader never waits on another version's computation:
// a newer reader replaces the key's entry with its own, and an older one
// computes privately, leaving the newer entry in place.
func (bm *boolMemo) do(db *storage.Database, deps sqlir.TableSet, key memoKey, f func() (val, mono bool, err error)) (val, hit bool, err error) {
	v := 0
	for s := uint64(deps); s != 0; s &= s - 1 {
		v += db.Schema.TableAt(bits.TrailingZeros64(s)).NumRows()
	}
	bm.mu.Lock()
	if bm.m == nil {
		bm.m = map[memoKey]*boolEntry{}
	}
	e, ok := bm.m[key]
	switch {
	case ok && e.done.Load() && e.answers(v):
		bm.mu.Unlock()
		return e.val, true, e.err
	case ok && e.version > v:
		bm.mu.Unlock()
		val, _, err := f()
		return val, false, err
	case !ok || e.version < v:
		e = &boolEntry{version: v}
		bm.m[key] = e
		ok = false
	}
	bm.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return e.val, ok, e.err
	}
	val, mono, err := f()
	if err != nil && Transient(err) {
		// Leave the entry uncomputed for the next request.
		return false, false, err
	}
	e.val, e.err, e.mono = val, err, mono
	e.done.Store(true)
	return e.val, false, e.err
}

// Cache is the shared verification state of one frozen snapshot of a
// database: the snapshot's executor handle (counters only) plus the
// column-wise and row-wise verification memos, which every snapshot of the
// database shares (At). Every memoized answer is a function of the contents
// of the tables it reads (the sketch and literals only choose which
// questions get asked), so one Cache is safely shared by all verifiers — and
// therefore all requests — bound to the same snapshot, and a snapshot reuses
// an answer computed on another wherever the tables it reads hold the same
// rows in both (boolMemo). A write to the live database never evicts
// another reader's warm answers: readers that want the new rows take a new
// snapshot and its Cache.
type Cache struct {
	db    *storage.Database
	joins *sqlexec.JoinCache
	// cat is the catalog the memos' keys number tables and columns in.
	cat *sqlir.Catalog
	col *boolMemo
	row *boolMemo
}

// NewCache builds cold shared verification state for a database (normally
// a frozen epoch snapshot; see the type comment).
func NewCache(db *storage.Database) *Cache {
	return &Cache{
		db:    db,
		joins: sqlexec.NewJoinCache(db),
		cat:   db.Schema.Catalog(),
		col:   &boolMemo{},
		row:   &boolMemo{},
	}
}

// At returns the shared verification state for db, another snapshot of c's
// database: its own executor handle over c's memos, or cold memos when db's
// catalog is not c's (a foreign key was added in between). Nothing is
// copied: which memoized answers db may reuse is decided when it asks.
func (c *Cache) At(db *storage.Database) *Cache {
	if !c.cat.Same(db.Schema.Catalog()) {
		return NewCache(db)
	}
	return &Cache{db: db, joins: sqlexec.NewJoinCache(db), cat: c.cat, col: c.col, row: c.row}
}

// Joins exposes the shared executor handle (the service layer routes
// previews and its stats snapshots through it).
func (c *Cache) Joins() *sqlexec.JoinCache { return c.joins }

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
	return &Verifier{
		db:         db,
		rules:      rules,
		sketch:     sketch,
		literals:   literals,
		rowsDecide: sketch != nil && sketch.RowsDecide(),
		colCache:   cache.col,
		rowCache:   cache.row,
		joins:      cache.joins,
		base:       cache.joins.Stats(),
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
// ctx.Err() when the request is cancelled or past its deadline. It is
// VerifyChild with the zero Decision: it assumes nothing about q's ancestry
// and runs every stage, which makes it the oracle inherited checks are
// tested against.
func (v *Verifier) VerifyCtx(ctx context.Context, q *sqlir.Query) (Outcome, error) {
	return v.VerifyChild(ctx, q, sqlir.Decision{})
}

// VerifyChild runs the whole cascade on q, on the calling goroutine. d is the
// one decision separating q from a parent that passed this verifier's
// cascade — what q shares with that parent is inherited, not re-proved (see
// owed) — or the zero Decision when there is no such parent. It keeps
// nothing of q (see the package comment).
func (v *Verifier) VerifyChild(ctx context.Context, q *sqlir.Query, d sqlir.Decision) (Outcome, error) {
	v.checked.Add(1)
	owes := owed(q, d)
	out := v.verifyClauses(q)
	if out.OK {
		out = v.verifySemantics(q, d)
	}
	if out.OK && owes.types {
		out = v.verifyColumnTypes(q)
	}
	var err error
	if out.OK {
		out, err = v.dbStages(ctx, q, owes)
	}
	if err == nil {
		v.settle(out)
	}
	return out, err
}

// debt is what a query still owes the cascade beyond the clause and
// semantic checks, which every query pays: the first in full, the second
// at the slot d wrote (see verifySemantics).
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
// Clauses, literals and by-order are not inherited: the first is cheap and
// reads everything, the last two run once, on completion. Nor does by-order
// lean on an inherited by-row proof: it is proved by by-row only when by-row
// ran in the same cascade (dbStages). Semantics are
// re-proved by the rule set itself: after a projection or predicate decision
// the built-in rules run only at the slot written, since a rule the parent
// passed and the child breaks can break nowhere else (semrules.CheckChild).
func owed(q *sqlir.Query, d sqlir.Decision) debt {
	switch slot, i := d.Slot(); slot {
	case sqlir.ProjectionSlot:
		return debt{types: true, col: i, rows: true}
	case sqlir.PredicateSlot:
		written := i >= len(q.Where.Preds) || q.Where.Preds[i].Complete()
		return debt{col: noProjection, rows: written}
	}
	switch d.Kind {
	case sqlir.DecideSelectCount:
		return debt{types: true, col: noProjection, rows: true}
	case sqlir.DecideFrom, sqlir.DecideWhereCount, sqlir.DecideWhereConj, sqlir.DecideGroupBy:
		return debt{col: noProjection, rows: true}
	case sqlir.DecideHaving, sqlir.DecideHavingOp, sqlir.DecideHavingValue:
		written := q.HavingState != sqlir.ClausePresent || q.Having.Complete()
		return debt{col: noProjection, rows: written}
	case sqlir.DecideOrderKey, sqlir.DecideOrderDir:
		return debt{col: noProjection}
	default:
		return debt{types: true, col: allProjections, rows: true}
	}
}

// dbStages runs the stages that can touch the database, as far as owes says
// q still has to.
func (v *Verifier) dbStages(ctx context.Context, q *sqlir.Query, owes debt) (Outcome, error) {
	if owes.col != noProjection {
		if out, err := v.verifyByColumn(ctx, q, owes.col); err != nil || !out.OK {
			return out, err
		}
	}
	rowsRan := false // by-row ran, and passed, in this cascade
	if owes.rows && v.canCheckRows(q) {
		if out, err := v.verifyByRow(ctx, q); err != nil || !out.OK {
			return out, err
		}
		rowsRan = true
	}
	if q.Complete() {
		if out := v.verifyLiterals(q); !out.OK {
			return out, nil
		}
		if v.sketch != nil {
			return v.verifyByOrder(ctx, q, rowsRan && v.rowsProve(q))
		}
	}
	return pass(), nil
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

// verifySemantics applies the Table 4 rules to q, one decision d from a
// parent that passed them: after a slot decision, the built-in rules run
// only at the slot d wrote (semrules.RuleSet.CheckChild).
func (v *Verifier) verifySemantics(q *sqlir.Query, d sqlir.Decision) Outcome {
	if v.rules == nil {
		return pass()
	}
	if viol := v.rules.CheckChild(q, v.db.Schema, d); viol != nil {
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
		got := s.Agg.ResultType(s.Col.Type())
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
func (v *Verifier) verifyByColumn(ctx context.Context, q *sqlir.Query, only int) (Outcome, error) {
	if v.sketch == nil || len(v.sketch.Tuples) == 0 {
		return pass(), nil
	}
	// Memo hits are counted once the stage reaches a decision: a check cut
	// short by an error counts none.
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
			ok, hit, err := v.columnCellCheck(ctx, s.Agg, s.Col, cell)
			if err != nil {
				return pass(), err
			}
			if hit {
				hits++
			}
			if !ok {
				v.colHits.Add(int64(hits))
				return fail(StageByColumn,
					"tuple %d cell %d (%s) has no match in the projected column", ti, i, &tp[i]), nil
			}
		}
	}
	v.colHits.Add(int64(hits))
	return pass(), nil
}

// columnCellCheck answers "does any value of col satisfy cell", memoized
// under a hashed fixed-size key. hit reports a memoized answer.
func (v *Verifier) columnCellCheck(ctx context.Context, agg sqlir.AggFunc, col sqlir.ColumnRef, cell tsq.Cell) (ok, hit bool, err error) {
	key := columnCellKey(agg == sqlir.AggAvg, col, cell)
	return v.colCache.do(v.db, sqlir.TableSet(0).With(col.Table()), key, func() (bool, bool, error) {
		if agg == sqlir.AggAvg {
			// The average lies within [min, max]: verification fails only
			// if the cell cannot intersect that range, which only widens as
			// rows arrive, so a true answer survives them.
			return avgCellPossible(v.db.Stats(col), cell), true, nil
		}
		// Unaggregated, MIN and MAX projections produce exact column
		// values: run SELECT 1 FROM t WHERE <cell constraint> LIMIT 1.
		return v.probe(ctx, sqlexec.ExistsQuery{
			From:  v.db.Schema.Catalog().Root(col.Table()),
			Conj:  sqlir.LogicAnd,
			Preds: cellPredicates(col, cell),
		})
	})
}

// probe runs a verification query, for a memo: its answer and whether a
// true answer survives appended rows.
func (v *Verifier) probe(ctx context.Context, eq sqlexec.ExistsQuery) (bool, bool, error) {
	v.dbQueries.Add(1)
	ok, err := v.joins.ExistsCtx(ctx, eq)
	return ok, eq.TrueSurvivesAppends(), err
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
	ops, vals, n := cellBounds(cell)
	if n == 0 {
		return nil
	}
	ps := make([]sqlir.Predicate, n)
	for i := range ps {
		ps[i] = sqlir.Predicate{Col: col, ColSet: true, Op: ops[i], OpSet: true, Val: vals[i], ValSet: true}
	}
	return ps
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
	if q.HasAggregate() {
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
//
// Sibling states (e.g. differing only in ORDER BY decisions) ask identical
// row questions, so the answers are memoized under the question's key,
// hashed from q and the tuple in place (rowQuestion.key): the question
// itself is built only when the memo has no answer.
func (v *Verifier) verifyByRow(ctx context.Context, q *sqlir.Query) (Outcome, error) {
	rq := newRowQuestion(q)
	for ti, tp := range v.sketch.Tuples {
		constrained, outside := rq.shape(tp)
		if outside >= 0 {
			return fail(StageByRow, "projection %d outside join path", outside), nil
		}
		if !constrained {
			continue
		}
		key := rq.key(tp)
		ok, _, err := v.rowCache.do(v.db, rq.q.From.Set(), key, func() (bool, bool, error) {
			return v.probe(ctx, rq.build(tp))
		})
		if err != nil {
			return pass(), err
		}
		if byRowChecked != nil {
			byRowChecked(ctx, v.joins, key, rq.build(tp), ok)
		}
		if !ok {
			return fail(StageByRow, "tuple %d %s has no satisfying row", ti, &v.sketch.Tuples[ti]), nil
		}
	}
	return pass(), nil
}

// byRowChecked, when set, is handed every by-row answer with its key and its
// question, built after the fact. It is a variable so that a test can check
// every key against the built question's and every answer against a fresh
// probe.
var byRowChecked func(ctx context.Context, jc *sqlexec.JoinCache, key memoKey, eq sqlexec.ExistsQuery, answer bool)

// rowQuestion is what every tuple's row question shares: the partial
// query's FROM, the sound part of its WHERE (soundWhere), its GROUP BY and
// its complete HAVING. Per tuple, shape reads which projections the tuple
// constrains, and key and build give the question's memo key and the
// question; neither keeps anything of q.
type rowQuestion struct {
	q       *sqlir.Query
	sound   bool // the decided WHERE predicates are conjoined
	conj    sqlir.LogicalOp
	having  bool // q's complete HAVING is conjoined
	and     int  // cell predicates of the current tuple (shape)
	havings int  // HAVING conditions of the current tuple, q's included (shape)
}

func newRowQuestion(q *sqlir.Query) rowQuestion {
	rq := rowQuestion{q: q}
	rq.sound, rq.conj = soundWhere(q)
	rq.having = q.GroupByState == sqlir.ClausePresent && q.HavingState == sqlir.ClausePresent &&
		q.Having.Complete()
	return rq
}

// constraint reports whether tuple tp constrains projection s = q.Select[i],
// and with which cell: a plain projection's bounds become WHERE predicates,
// an aggregate's HAVING conditions (RV2; sound because canCheckRows wants
// the grouping decided).
func (rq *rowQuestion) constraint(i int, tp tsq.Tuple) (s sqlir.SelectItem, cell tsq.Cell, ok bool) {
	s = rq.q.Select[i]
	if !s.Complete() || i >= len(tp) || tp[i].Kind == tsq.CellEmpty {
		return s, cell, false
	}
	return s, tp[i], true
}

// shape counts tp's cell predicates and HAVING conditions into rq. It
// reports whether tp constrains any projection, and the first projection
// it constrains that lies outside q's join path (or -1).
func (rq *rowQuestion) shape(tp tsq.Tuple) (constrained bool, outside int) {
	rq.and, rq.havings = 0, 0
	if rq.having {
		rq.havings = 1
	}
	for i := range rq.q.Select {
		s, cell, ok := rq.constraint(i, tp)
		if !ok {
			continue
		}
		_, _, n := cellBounds(cell)
		if s.Agg == sqlir.AggNone {
			if !rq.q.From.Set().Has(s.Col.Table()) {
				return false, i
			}
			rq.and += n
		} else {
			rq.havings += n
		}
		constrained = true
	}
	return constrained, -1
}

// build returns tuple tp's row question, whose shape rq holds.
func (rq *rowQuestion) build(tp tsq.Tuple) sqlexec.ExistsQuery {
	q := rq.q
	eq := sqlexec.ExistsQuery{From: q.From, Conj: rq.conj}
	if rq.sound {
		for _, p := range q.Where.Preds {
			if p.Complete() {
				eq.Preds = append(eq.Preds, p)
			}
		}
	}
	if q.GroupByState == sqlir.ClausePresent {
		eq.GroupBy = q.GroupBy
	}
	if rq.having {
		eq.Havings = append(eq.Havings, *q.Having)
	}
	for i := range q.Select {
		s, cell, ok := rq.constraint(i, tp)
		if !ok {
			continue
		}
		if s.Agg == sqlir.AggNone {
			eq.AndPreds = append(eq.AndPreds, cellPredicates(s.Col, cell)...)
		} else {
			eq.Havings = append(eq.Havings, cellHavings(s.Agg, s.Col, cell)...)
		}
	}
	return eq
}

// soundWhere reports whether the partial query's decided WHERE predicates
// can be conjoined with cell constraints without excluding any completion's
// results, and under which connective:
//
//   - complete WHERE: use it verbatim;
//   - incomplete with AND semantics: the decided predicates (adding the
//     remaining ones later can only shrink the result);
//   - incomplete with OR or undecided connective: nothing (a later OR arm
//     can only grow the result, so the sound superset drops the clause).
func soundWhere(q *sqlir.Query) (sound bool, conj sqlir.LogicalOp) {
	if q.WhereState != sqlir.ClausePresent {
		return false, sqlir.LogicAnd
	}
	if q.Where.Complete() {
		conj := q.Where.Conj
		if len(q.Where.Preds) == 1 {
			conj = sqlir.LogicAnd
		}
		return true, conj
	}
	andLike := (q.Where.ConjSet && q.Where.Conj == sqlir.LogicAnd) ||
		(q.Where.CountSet && len(q.Where.Preds) == 1)
	return andLike, sqlir.LogicAnd
}

// cellBounds returns the bounds a cell puts on a value, as n (operator,
// value) pairs: one equality for an exact cell, two for a range, none for
// an empty cell. Cell predicates, cell HAVING conditions and their memo
// keys are all written from it.
func cellBounds(cell tsq.Cell) (ops [2]sqlir.Op, vals [2]sqlir.Value, n int) {
	switch cell.Kind {
	case tsq.CellExact:
		return [2]sqlir.Op{sqlir.OpEq}, [2]sqlir.Value{cell.Val}, 1
	case tsq.CellRange:
		return [2]sqlir.Op{sqlir.OpGe, sqlir.OpLe}, [2]sqlir.Value{cell.Lo, cell.Hi}, 2
	default:
		return ops, vals, 0
	}
}

// cellHavings renders a cell as HAVING constraints on agg(col).
func cellHavings(agg sqlir.AggFunc, col sqlir.ColumnRef, cell tsq.Cell) []sqlir.HavingExpr {
	ops, vals, n := cellBounds(cell)
	if n == 0 {
		return nil
	}
	hs := make([]sqlir.HavingExpr, n)
	for i := range hs {
		hs[i] = sqlir.HavingExpr{
			Agg: agg, AggSet: true, Col: col, ColSet: true,
			Op: ops[i], OpSet: true, Val: vals[i], ValSet: true,
		}
	}
	return hs
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
// — Definition 2.4's distinct matching, ordering (when τ=⊤), and row limit.
// This is the final soundness gate: every emitted candidate satisfies the
// TSQ, its answer asked, or proved by by-row:
//
//   - asked: the TSQ's Matcher is asked on the stream
//     (sqlexec.JoinCache.AskCtx): the result is never built, and the scan
//     stops once the answer is settled;
//   - proved (rowsProve): this cascade's by-row checks showed every tuple a
//     matching row, which decides the rest (tsq.TSQ.RowsDecide), so only the
//     result's column types are checked, as the Matcher would, and no
//     database query is made.
//
// The caller has checked that there is a TSQ.
func (v *Verifier) verifyByOrder(ctx context.Context, q *sqlir.Query, proved bool) (Outcome, error) {
	var ok bool
	var err error
	if proved {
		var buf [8]sqlir.Type
		types := buf[:0]
		for _, s := range q.Select {
			types = append(types, s.Agg.ResultType(s.Col.Type()))
		}
		ok = v.sketch.ColumnsMatch(types)
	} else {
		v.dbQueries.Add(1)
		ok, err = askByOrder(ctx, v.joins, q, v.sketch)
	}
	if byOrderAnswered != nil {
		byOrderAnswered(ctx, v.joins, q, v.sketch, proved, ok, err)
	}
	if err != nil {
		return pass(), err
	}
	if !ok {
		return fail(StageByOrder, "result does not satisfy the TSQ"), nil
	}
	return pass(), nil
}

// rowsProve reports whether by-row's questions, passed in this cascade,
// decide by-order for the complete query q under a sketch whose tuples
// RowsDecide. By-row then asked every tuple: each is the sketch's width with
// a non-empty cell, and q's projections are all complete. Its answers decide
// by-order when each question asks "does some row of q's result match this
// tuple?", which holds when
//
//   - q is flat — no aggregate, GROUP BY, ORDER BY or LIMIT — so its result
//     rows are the rows of its FROM that pass its WHERE, projected (DISTINCT
//     keeps one of each), and the question reads that FROM and WHERE;
//   - q has the sketch's width and every projection is a column on q's join
//     path, so the scan the proof stands in for would bind: by-row bound
//     only the projections some tuple constrains;
//   - a question's cell predicates hold only where Cell.Matches does. An
//     exact cell's equality does (exact text equality implies EqualFold, and
//     NULL equals nothing), and so do a range's bounds, since Value.Compare
//     orders every stored number and every bound Validate accepts.
func (v *Verifier) rowsProve(q *sqlir.Query) bool {
	if !v.rowsDecide || q.HasAggregate() || q.GroupByState == sqlir.ClausePresent ||
		q.OrderByState == sqlir.ClausePresent || q.LimitSet && q.Limit > 0 ||
		len(q.Select) != v.sketch.Width() {
		return false
	}
	cat, on := v.db.Schema.Catalog(), q.From.Set()
	for _, s := range q.Select {
		if s.Col.IsStar() || !cat.Same(s.Col.Catalog()) || !on.Has(s.Col.Table()) {
			return false
		}
	}
	return true
}

// byOrderAnswered, when set, is handed every by-order answer, asked or
// proved, so that a test can check each against Satisfies(ExecuteCtx(q)).
var byOrderAnswered func(ctx context.Context, jc *sqlexec.JoinCache, q *sqlir.Query, sketch *tsq.TSQ, proved, answer bool, err error)

// askByOrder asks by-order verification's question of the stream. The
// matcher is reset from matchers and goes back once the answer is in: the
// sink that asked it has let go of it by then.
func askByOrder(ctx context.Context, jc *sqlexec.JoinCache, q *sqlir.Query, sketch *tsq.TSQ) (bool, error) {
	m := matchers.Get().(*tsq.Matcher)
	defer matchers.Put(m)
	m.Reset(sketch)
	return jc.AskCtx(ctx, q, m)
}

// matchers holds by-order verification's matchers between questions.
var matchers = sync.Pool{New: func() any { return new(tsq.Matcher) }}

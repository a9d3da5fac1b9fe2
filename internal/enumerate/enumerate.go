// Package enumerate implements guided partial query enumeration (GPQE,
// Algorithm 1): a best-first search over partial-query states ordered by
// the cumulative product of guidance-model softmax scores (§3.3.3), with
// progressive join path construction (§3.3.4) and ascending-cost cascading
// verification pruning branches as early as possible (§3.4).
//
// The package also provides the paper's two §5.4.3 ablations: ModeNoPQ
// verifies only complete queries (the naïve chaining approach of §3.5) and
// ModeNoGuide replaces best-first order with breadth-first enumeration that
// ignores confidence scores.
package enumerate

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/schemagraph"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/verify"
)

// Mode selects the enumeration variant.
type Mode uint8

const (
	// ModeGPQE is the full algorithm: guided order + partial-query pruning.
	ModeGPQE Mode = iota
	// ModeNoPQ keeps guided order but verifies only complete queries.
	ModeNoPQ
	// ModeNoGuide uses breadth-first order (simpler queries first, schema
	// order within a level) while keeping partial-query pruning.
	ModeNoGuide
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNoPQ:
		return "NoPQ"
	case ModeNoGuide:
		return "NoGuide"
	default:
		return "GPQE"
	}
}

// Options configures a run.
type Options struct {
	Mode Mode
	// MaxCandidates stops the search after emitting this many candidates
	// (0 = unlimited).
	MaxCandidates int
	// MaxStates caps explored states as a safety net (default 500000).
	MaxStates int
	// Budget is the wall-clock budget (0 = none); the front-end's
	// pre-specified timeout (§4).
	Budget time.Duration
	// GeoMeanPriority orders states by the geometric mean of their module
	// softmax values instead of the product — the alternative confidence
	// definition §3.3.3 discusses (it removes the preference for shorter
	// queries at the cost of Property 1). Off by default, as in the paper.
	GeoMeanPriority bool
	// Workers bounds the verification worker pool. The search goroutine
	// runs every child's cascade (§3.4) itself as far as that takes no
	// database work — clause, semantic and type checks, and column- and
	// row-wise questions the shared memos already answer; only children
	// that reach a memo miss or the by-order execution are handed to the
	// pool, two or more at a time. The priority queue and guidance scoring
	// stay single-threaded and outcomes are consumed in child order, so the
	// emitted candidates are identical at every setting.
	// 0 defaults to runtime.GOMAXPROCS(0); 1 does the database work on the
	// search goroutine too.
	Workers int
}

// Candidate is one emitted complete query.
type Candidate struct {
	Query *sqlir.Query
	// Confidence is the cumulative product of module softmax values.
	Confidence float64
	// Rank is the 1-based emission order (highest confidence first under
	// GPQE's best-first policy).
	Rank int
	// Elapsed is the time from search start to emission.
	Elapsed time.Duration
	// States is the number of states explored before emission.
	States int
}

// Result summarises a finished search.
type Result struct {
	Candidates []Candidate
	States     int
	Exhausted  bool // the whole space was enumerated
	// Truncated marks an anytime partial result: the search was cut short by
	// cancellation, deadline expiry, or an injected fault, and Candidates
	// holds what was verified up to that point. Because candidates are
	// consumed in the reordering buffer's sequential order, a truncated
	// candidate list is always a prefix of the untruncated run's. MaxStates,
	// MaxCandidates, and emit-stopped searches are complete answers under
	// their configured bounds, not truncations.
	Truncated bool
	Elapsed   time.Duration
}

// entry is one queued search state: a decision, not a query. Most queued
// states are never expanded, so a child that survives verification is kept
// as its parent's query plus the decision that extends it, by value in the
// frontier's storage, and becomes a query of its own only if it is popped.
// Queries are immutable (sqlir/derive.go): entries, emitted candidates and
// verification workers share them freely.
type entry struct {
	// q is the state's own query when dec is the zero Decision; otherwise it
	// is the parent's, with dec still to apply.
	q   *sqlir.Query
	dec sqlir.Decision

	logConf  float64
	seq      int   // FIFO tiebreaker for determinism
	depth    int32 // decision depth, the NoGuide BFS key
	joinLen  int16 // §3.3.4 tiebreaker: shorter join paths first
	verified bool  // the state passed the cascade, so its children inherit its proofs
}

// query returns the state's query, deriving it if that was put off.
func (e *entry) query() *sqlir.Query {
	if e.dec.Kind != 0 {
		return e.q.Apply(e.dec)
	}
	return e.q
}

// option is one output class of an expansion: the decision that makes the
// child and the probability the module gave it.
type option struct {
	dec  sqlir.Decision
	prob float64
}

// Enumerator runs GPQE for one synthesis task.
type Enumerator struct {
	db       *storage.Database
	graph    *schemagraph.Graph
	model    guidance.Model
	verifier *verify.Verifier
	opts     Options
}

// New builds an enumerator. The verifier encapsulates the TSQ, literals, and
// semantic rules; pass a verifier built with a nil sketch for the NLI
// baseline.
func New(db *storage.Database, model guidance.Model, verifier *verify.Verifier, opts Options) *Enumerator {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 500000
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Enumerator{
		db:       db,
		graph:    schemagraph.New(db.Schema),
		model:    model,
		verifier: verifier,
		opts:     opts,
	}
}

// search is the state of one Enumerate call.
type search struct {
	e    *Enumerator
	ctx  context.Context
	mctx *guidance.Context
	pool *verifyPool // nil: every check runs on the search goroutine

	queue frontier
	// scratch holds the one child being looked at. Nothing that outlives
	// the look may point into it: a check handed to Finish, a candidate and
	// a popped state each get a query of their own (Query.Apply).
	scratch sqlir.Scratch
	opts    []option // the current expansion, reused
	seq     int

	// needVerify reports whether a child runs the verification cascade:
	// always under GPQE/NoGuide; only complete queries under NoPQ.
	needVerify func(complete bool) bool
}

// newSearch prepares a search whose frontier holds the empty query. The
// caller must close it.
func (e *Enumerator) newSearch(ctx context.Context, nlq string, literals []sqlir.Value) *search {
	s := &search{
		e:     e,
		ctx:   ctx,
		mctx:  guidance.NewContextDB(nlq, literals, e.db, nil),
		queue: frontier{noGuide: e.opts.Mode == ModeNoGuide, geoMean: e.opts.GeoMeanPriority},
		needVerify: func(complete bool) bool {
			return e.opts.Mode != ModeNoPQ || complete
		},
	}
	if e.opts.Workers > 1 {
		s.pool = newVerifyPool(ctx, e.verifier, e.opts.Workers)
	}
	s.queue.push(entry{q: sqlir.NewQuery()})
	return s
}

// close stops the search's verification workers and hands its frontier's
// storage on to the next search.
func (s *search) close() {
	if s.pool != nil {
		s.pool.close()
	}
	s.queue.release()
}

// expand is EnumNextStep (Algorithm 1, Line 5) for a popped state: its
// query, built now if it was queued as a decision, and one option per
// output class of the next module. The options are valid until the next
// call.
func (s *search) expand(p *entry) (*sqlir.Query, []option, error) {
	q := p.query()
	opts, err := s.e.nextStep(s.mctx, q, s.opts[:0])
	if err != nil {
		return nil, nil, err
	}
	s.opts = opts
	return q, opts, nil
}

// child is the state reached from p, whose query is q, by option o, given
// what verification said about it.
func (s *search) child(p *entry, q *sqlir.Query, o *option, r *verifyResult) entry {
	s.seq++
	lc := math.Inf(-1)
	if o.prob > 0 {
		lc = p.logConf + math.Log(o.prob)
	}
	c := entry{q: q, dec: o.dec, logConf: lc, seq: s.seq, depth: p.depth + 1,
		joinLen: int16(q.From.Len()), verified: s.needVerify(r.complete)}
	if o.dec.Kind == sqlir.DecideFrom {
		c.joinLen = int16(o.dec.From.Len())
	}
	if r.q != nil {
		c.q, c.dec = r.q, sqlir.Decision{} // already built for its check
	}
	return c
}

// Enumerate runs Algorithm 1, invoking emit for each candidate query in
// ranked order. emit returning false stops the search early.
//
// Cancellation and the Budget deadline produce an anytime result, not an
// error: the returned Result carries the candidates verified so far (a
// deterministic prefix of the untruncated run) with Truncated set.
func (e *Enumerator) Enumerate(ctx context.Context, nlq string, literals []sqlir.Value, emit func(Candidate) bool) (*Result, error) {
	start := time.Now()
	if e.opts.Budget > 0 {
		// The budget rides the context so verification workers mid-scan see
		// the expiry at the executor's cancellation checkpoints instead of
		// running their state to completion.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(e.opts.Budget))
		defer cancel()
	}
	s := e.newSearch(ctx, nlq, literals)
	defer s.close()

	res := &Result{}
	seen := map[string]bool{} // canonical dedup of emitted candidates
	emitted := 0

	// truncate finalizes the anytime partial result for a search cut short.
	truncate := func() (*Result, error) {
		res.Truncated = true
		res.Elapsed = time.Since(start)
		return res, nil
	}

	for s.queue.len() > 0 {
		if res.States >= e.opts.MaxStates {
			return res, nil
		}
		select {
		case <-ctx.Done():
			return truncate()
		default:
		}

		p := s.queue.pop()
		res.States++

		q, opts, err := s.expand(&p)
		if err != nil {
			return res, err
		}
		// With a pool, the whole expansion is checked at once — inline as
		// far as no database work is needed, the rest fanned out — and the
		// batch restores child order; otherwise each child is verified
		// when its turn comes, exactly as the sequential engine does.
		// Either way, results are consumed in child order below, so emitted
		// candidates and queue contents are identical in both modes.
		var batch []verifyResult
		if s.pool != nil && len(opts) > 1 {
			batch = s.verifyBatch(q, p.verified, opts)
		}
		for i := range opts {
			o := &opts[i]
			var r verifyResult
			if batch != nil {
				r = batch[i]
			} else {
				r = s.verifyChild(q, p.verified, o.dec)
			}
			if r.cancelled {
				// The request died (or drew an injected fault) mid-
				// verification: degrade to the candidates already emitted.
				return truncate()
			}
			if r.err != nil {
				return res, r.err
			}
			c := s.child(&p, q, o, &r)
			if c.verified && !r.out.OK {
				continue
			}
			if !r.complete {
				s.queue.push(c)
				continue
			}
			cq := c.query()
			key := cq.Canonical()
			if seen[key] {
				continue
			}
			seen[key] = true
			emitted++
			cand := Candidate{
				Query:      cq,
				Confidence: math.Exp(c.logConf),
				Rank:       emitted,
				Elapsed:    time.Since(start),
				States:     res.States,
			}
			res.Candidates = append(res.Candidates, cand)
			if emit != nil && !emit(cand) {
				res.Elapsed = time.Since(start)
				return res, nil
			}
			if e.opts.MaxCandidates > 0 && emitted >= e.opts.MaxCandidates {
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
		// Only the best MaxStates − States entries can still be popped.
		s.queue.bound(e.opts.MaxStates - res.States)
	}
	res.Exhausted = !s.queue.dropped
	res.Elapsed = time.Since(start)
	return res, nil
}

// nextStep finds the next pending decision of q in module execution order
// (§3.3.1) and appends to buf one option per output class of the
// corresponding module. Column and value classes are referenced where the
// module returned them, not copied.
func (e *Enumerator) nextStep(ctx *guidance.Context, q *sqlir.Query, buf []option) ([]option, error) {
	// The search owns ctx and a model reads it only during a call, so it is
	// rebound in place instead of copied (Context.WithQuery) per state.
	ctx.Query = q
	uniform := e.opts.Mode == ModeNoGuide

	switch {
	case !q.KWSet:
		return options(buf, uniform, e.model.Keywords(ctx), sqlir.Decision{Kind: sqlir.DecideKeywords},
			func(d *sqlir.Decision, ks *guidance.KeywordSet) {
				d.Where, d.GroupBy, d.OrderBy = ks.Where, ks.GroupBy, ks.OrderBy
			}), nil

	case !q.SelectCountSet:
		return options(buf, uniform, e.model.SelectCount(ctx), sqlir.Decision{Kind: sqlir.DecideSelectCount}, setCount), nil

	case firstUndecidedCol(q) >= 0:
		idx := firstUndecidedCol(q)
		return options(buf, uniform, e.model.SelectColumn(ctx, idx), sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: int32(idx)}, setCol), nil

	case firstUndecidedAgg(q) >= 0:
		idx := firstUndecidedAgg(q)
		return options(buf, uniform, e.model.SelectAgg(ctx, idx, q.Select[idx].Col), sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: int32(idx)},
			func(d *sqlir.Decision, a *sqlir.AggFunc) { d.Agg = *a }), nil

	case q.From == nil:
		return e.joinPathOptions(q, buf), nil

	case q.WhereState == sqlir.ClausePending:
		return options(buf, uniform, e.model.WhereCount(ctx), sqlir.Decision{Kind: sqlir.DecideWhereCount}, setCount), nil

	case q.WhereState == sqlir.ClausePresent && len(q.Where.Preds) >= 2 && !q.Where.ConjSet:
		return options(buf, uniform, e.model.WhereConj(ctx), sqlir.Decision{Kind: sqlir.DecideWhereConj},
			func(d *sqlir.Decision, op *sqlir.LogicalOp) { d.Conj = *op }), nil

	case firstPredWithout(q, predColUnset) >= 0:
		idx := firstPredWithout(q, predColUnset)
		return options(buf, uniform, e.model.WhereColumn(ctx, idx), sqlir.Decision{Kind: sqlir.DecidePredColumn, Index: int32(idx)}, setCol), nil

	case firstPredWithout(q, predOpUnset) >= 0:
		idx := firstPredWithout(q, predOpUnset)
		return options(buf, uniform, e.model.WhereOp(ctx, q.Where.Preds[idx].Col), sqlir.Decision{Kind: sqlir.DecidePredOp, Index: int32(idx)}, setOp), nil

	case firstPredWithout(q, predValUnset) >= 0:
		idx := firstPredWithout(q, predValUnset)
		pr := q.Where.Preds[idx]
		return options(buf, uniform, e.model.WhereValue(ctx, pr.Col, pr.Op), sqlir.Decision{Kind: sqlir.DecidePredValue, Index: int32(idx)}, setVal), nil

	case q.GroupByState == sqlir.ClausePending:
		// GROUP BY is determined by SQL semantics: every unaggregated
		// projection must be grouped. No unaggregated projections means
		// the branch has no valid grouping within the task scope.
		if !slices.ContainsFunc(q.Select, sqlir.SelectItem.Unaggregated) {
			return buf, nil
		}
		return append(buf, option{sqlir.Decision{Kind: sqlir.DecideGroupBy}, 1}), nil

	case q.GroupByState == sqlir.ClausePresent && q.HavingState == sqlir.ClausePending && q.Having == nil:
		for _, s := range e.model.HavingPresent(ctx) {
			prob := s.Prob
			if uniform {
				prob = 1
			}
			if !s.Class {
				buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideHaving}, prob})
				continue
			}
			acs := e.model.HavingAggCol(ctx)
			for i := range acs {
				pac := acs[i].Prob
				if uniform {
					pac = 1
				}
				buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideHaving, Present: true,
					Agg: acs[i].Class.Agg, Col: &acs[i].Class.Col}, prob * pac})
			}
		}
		return buf, nil

	case q.HavingState == sqlir.ClausePresent && !q.Having.OpSet:
		return options(buf, uniform, e.model.HavingOp(ctx), sqlir.Decision{Kind: sqlir.DecideHavingOp}, setOp), nil

	case q.HavingState == sqlir.ClausePresent && !q.Having.ValSet:
		return options(buf, uniform, e.model.HavingValue(ctx), sqlir.Decision{Kind: sqlir.DecideHavingValue}, setVal), nil

	case q.OrderByState == sqlir.ClausePending:
		return options(buf, uniform, e.model.OrderKey(ctx), sqlir.Decision{Kind: sqlir.DecideOrderKey},
			func(d *sqlir.Decision, k *guidance.AggCol) { d.Agg, d.Col = k.Agg, &k.Col }), nil

	case q.OrderByState == sqlir.ClausePresent && !q.OrderBy.DirSet:
		return options(buf, uniform, e.model.OrderDir(ctx), sqlir.Decision{Kind: sqlir.DecideOrderDir},
			func(d *sqlir.Decision, dl *guidance.DirLimit) { d.Desc, d.Count = dl.Desc, int32(dl.Limit) }), nil
	}
	return nil, fmt.Errorf("enumerate: no pending decision for %s", q)
}

// How a module's class becomes a decision's argument.
func setCount(d *sqlir.Decision, n *int)           { d.Count = int32(*n) }
func setCol(d *sqlir.Decision, c *sqlir.ColumnRef) { d.Col = c }
func setOp(d *sqlir.Decision, op *sqlir.Op)        { d.Op = *op }
func setVal(d *sqlir.Decision, v *sqlir.Value)     { d.Val = v }

// options turns a module distribution into options: one per output class,
// each dec with the class filled in by set.
func options[T any](buf []option, uniform bool, scored []guidance.Scored[T], dec sqlir.Decision, set func(*sqlir.Decision, *T)) []option {
	for i := range scored {
		prob := scored[i].Prob
		if uniform {
			prob = 1
		}
		set(&dec, &scored[i].Class)
		buf = append(buf, option{dec, prob})
	}
	return buf
}

// pathPenalty discounts expansion tables beyond the minimal Steiner tree so
// the candidate stream is not flooded by semantically-superfluous join
// variants of the same logical query. The §3.3.4 length tie-breaker alone
// cannot separate them once deeper decisions differentiate confidence.
const pathPenalty = 0.45

// joinPathOptions expands progressive join path construction (Algorithm 2):
// one option per candidate path. The minimal paths keep the parent's
// confidence (as in the paper); each expansion table multiplies in
// pathPenalty, and path length remains the secondary tiebreaker.
func (e *Enumerator) joinPathOptions(q *sqlir.Query, buf []option) []option {
	paths, err := e.graph.ConstructJoinPaths(q)
	if err != nil {
		// Disconnected column sets have no valid FROM clause: prune.
		return buf
	}
	minLen := 0
	for i, jp := range paths {
		if i == 0 || jp.Len() < minLen {
			minLen = jp.Len()
		}
	}
	for _, jp := range paths {
		prob := math.Pow(pathPenalty, float64(jp.Len()-minLen))
		buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideFrom, From: jp}, prob})
	}
	return buf
}

func firstUndecidedCol(q *sqlir.Query) int {
	for i, s := range q.Select {
		if !s.ColSet {
			return i
		}
	}
	return -1
}

func firstUndecidedAgg(q *sqlir.Query) int {
	for i, s := range q.Select {
		if !s.AggSet {
			return i
		}
	}
	return -1
}

func predColUnset(p sqlir.Predicate) bool { return !p.ColSet }
func predOpUnset(p sqlir.Predicate) bool  { return !p.OpSet }
func predValUnset(p sqlir.Predicate) bool { return !p.ValSet }

func firstPredWithout(q *sqlir.Query, unset func(sqlir.Predicate) bool) int {
	if q.WhereState != sqlir.ClausePresent {
		return -1
	}
	for i, p := range q.Where.Preds {
		if unset(p) {
			return i
		}
	}
	return -1
}

// SchemaGraph exposes the enumerator's schema graph (used by the PBE
// baseline and tooling to share join path construction).
func (e *Enumerator) SchemaGraph() *schemagraph.Graph { return e.graph }

// VerifierStats exposes the verifier's per-stage counters.
func (e *Enumerator) VerifierStats() verify.Stats { return e.verifier.Stats() }

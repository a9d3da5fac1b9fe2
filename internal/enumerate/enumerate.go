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

	// Workers is ignored: a search, its guidance and every child's cascade
	// (§3.4), database stages included, run on the Enumerate caller's
	// goroutine. bench/ sets it, so it stays until bench/ stops.
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
	// holds what was verified up to that point. The search is sequential, so
	// a truncated candidate list is always a prefix of the untruncated run's.
	// MaxStates, MaxCandidates, and emit-stopped searches are complete
	// answers under their configured bounds, not truncations.
	Truncated bool
	Elapsed   time.Duration
}

// state is one search state: a decision, not a query. A state that survives
// verification is the popped state it extends plus the decision that
// extends it, the path GPQE's partial query is (§3.3). Its query is never
// kept; expand replays the path from the root whenever the state is
// expanded. States live in the frontier's slots and never move, so a child
// may point at its parent.
type state struct {
	parent   *state         // nil for the root; in a free slot, the next free slot
	dec      sqlir.Decision // the zero Decision for the root
	logConf  float64
	depth    int32 // decision depth, the NoGuide BFS key
	verified bool  // the state passed the cascade, so its children inherit its proofs
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
	e   *Enumerator
	ctx context.Context
	// mctx is the request's guidance context. It holds the lexical model's
	// memoised answers, into which queued decisions point.
	mctx *guidance.Context

	queue frontier
	// cur holds the popped state being expanded, replayed from path, and
	// scratch the one child of it being looked at, its whole cascade
	// included. Nothing that outlives the look may point into either: an
	// emitted candidate is a copy of its own (Query.Clone), and so is the
	// query a model that is not a guidance.Borrower is handed.
	cur, scratch sqlir.Scratch
	borrow       bool             // the model may be handed cur itself
	path         []sqlir.Decision // the decisions cur replays, reused
	opts         []option         // the current expansion, reused
	seq          int

	// needVerify reports whether a child runs the verification cascade:
	// always under GPQE/NoGuide; only complete queries under NoPQ.
	needVerify func(complete bool) bool
}

// newSearch prepares a search whose frontier holds the empty query. The
// caller must close it.
func (e *Enumerator) newSearch(ctx context.Context, nlq string, literals []sqlir.Value) *search {
	s := &search{
		e:      e,
		ctx:    ctx,
		mctx:   guidance.NewContextDB(nlq, literals, e.db, nil),
		queue:  frontier{noGuide: e.opts.Mode == ModeNoGuide, geoMean: e.opts.GeoMeanPriority},
		borrow: guidance.Borrows(e.model),
		needVerify: func(complete bool) bool {
			return e.opts.Mode != ModeNoPQ || complete
		},
	}
	s.queue.push(state{}, 0, 0) // the empty query
	return s
}

// close hands the search's frontier storage on to the next search.
func (s *search) close() { s.queue.release() }

// expand is EnumNextStep (Algorithm 1, Line 5) for a popped state: its
// query, replayed into cur (and cloned out of it for a model that does not
// borrow), and one option per output class of the next module. Both are
// valid until the next call.
func (s *search) expand(n *state) (*sqlir.Query, []option, error) {
	q := s.replay(n)
	if !s.borrow {
		q = q.Clone() // the model may keep the query it is handed
	}
	opts, err := s.e.nextStep(s.mctx, q, s.opts[:0])
	if err != nil {
		return nil, nil, err
	}
	s.opts = opts
	return q, opts, nil
}

// replay builds n's query in cur from the decisions on its path from the
// root; the root's own is the zero Decision and is not applied.
func (s *search) replay(n *state) *sqlir.Query {
	s.path = s.path[:0]
	for ; n.parent != nil; n = n.parent {
		s.path = append(s.path, n.dec)
	}
	slices.Reverse(s.path)
	return s.cur.Replay(s.path)
}

// verifyResult is what the search learns about one child of an expansion.
type verifyResult struct {
	q         *sqlir.Query   // the child, in the scratch: valid until the next verifyChild
	complete  bool           // the child has no holes left
	verified  bool           // the child needed verifying: out is its outcome
	out       verify.Outcome // meaningful only when verified
	err       error
	cancelled bool // the request died, or drew an injected fault, mid-check
}

// verifyChild builds the child of q by decision d in the scratch and runs
// its whole cascade there, inheriting q's proofs when q passed the cascade.
// A transient error — the request was cancelled or faulted mid-check, so the
// partial outcome is meaningless — reports cancellation instead.
func (s *search) verifyChild(q *sqlir.Query, inherit bool, d sqlir.Decision) (r verifyResult) {
	r.q = s.scratch.Apply(q, d)
	r.complete = r.q.Complete()
	if r.verified = s.needVerify(r.complete); !r.verified {
		return r
	}
	if !inherit {
		d = sqlir.Decision{} // nothing proved to inherit
	}
	out, err := s.e.verifier.VerifyChild(s.ctx, r.q, d)
	if verify.Transient(err) {
		r.cancelled = true
	} else {
		r.out, r.err = out, err
	}
	return r
}

// child numbers the child of the popped state p by option o, given what
// verification said about it (r), and queues it as (p, decision) when it
// passed with holes left. It reports whether the child is a candidate: a
// complete query that passed.
func (s *search) child(p *state, o *option, r *verifyResult) bool {
	s.seq++ // every child, kept or not: arrival breaks ties
	if r.verified && !r.out.OK {
		return false
	}
	if r.complete {
		return true
	}
	s.queue.push(state{parent: p, dec: o.dec, logConf: logConf(p, o), depth: p.depth + 1, verified: r.verified},
		r.q.From.Len(), s.seq)
	return false
}

// logConf is the log confidence of p's child by option o.
func logConf(p *state, o *option) float64 {
	if o.prob > 0 {
		return p.logConf + math.Log(o.prob)
	}
	return math.Inf(-1)
}

// Enumerate runs Algorithm 1, invoking emit for each candidate query in
// ranked order. emit returning false stops the search early.
//
// Cancellation and the Budget deadline produce an anytime result, not an
// error: the returned Result carries the candidates verified so far (a
// deterministic prefix of the untruncated run) with Truncated set.
func (e *Enumerator) Enumerate(ctx context.Context, nlq string, literals []sqlir.Value, emit func(Candidate) bool) (res *Result, err error) {
	start := time.Now()
	res = &Result{}
	defer func() { res.Elapsed = time.Since(start) }()
	if e.opts.Budget > 0 {
		// The budget rides the context so a verification query mid-scan
		// sees the expiry at the executor's cancellation checkpoints
		// instead of running to completion.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(e.opts.Budget))
		defer cancel()
	}
	s := e.newSearch(ctx, nlq, literals)
	defer s.close()

	seen := map[string]bool{} // canonical dedup of emitted candidates
	emitted := 0

	for s.queue.len() > 0 {
		if res.States >= e.opts.MaxStates {
			return res, nil
		}
		select {
		case <-ctx.Done():
			res.Truncated = true
			return res, nil
		default:
		}

		p := s.queue.pop()
		res.States++

		q, opts, err := s.expand(p)
		if err != nil {
			return res, err
		}
		for i := range opts {
			o := &opts[i]
			r := s.verifyChild(q, p.verified, o.dec)
			if r.cancelled {
				// The request died (or drew an injected fault) mid-
				// verification: degrade to the candidates already emitted.
				res.Truncated = true
				return res, nil
			}
			if r.err != nil {
				return res, r.err
			}
			if !s.child(p, o, &r) {
				continue
			}
			key := r.q.Canonical()
			if seen[key] {
				continue
			}
			seen[key] = true
			emitted++
			cand := Candidate{
				Query:      r.q.Clone(),
				Confidence: math.Exp(logConf(p, o)),
				Rank:       emitted,
				States:     res.States,
			}
			res.Candidates = append(res.Candidates, cand)
			if emit != nil && !emit(cand) {
				return res, nil
			}
			if e.opts.MaxCandidates > 0 && emitted >= e.opts.MaxCandidates {
				return res, nil
			}
		}
		// Only the best MaxStates − States states can still be popped.
		s.queue.bound(e.opts.MaxStates - res.States)
	}
	res.Exhausted = !s.queue.dropped
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
	if err != nil || len(paths) == 0 {
		// Disconnected column sets have no valid FROM clause: prune.
		return buf
	}
	minLen := paths[0].Len() // the paths come shortest first
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

// VerifierStats exposes the verifier's per-stage counters.
func (e *Enumerator) VerifierStats() verify.Stats { return e.verifier.Stats() }

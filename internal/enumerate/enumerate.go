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
	// The search has no clock of its own: the front-end's pre-specified
	// timeout (§4) is the deadline of the context Enumerate is given. A
	// capped search keeps what it queued: at most 1 + MaxStates × the
	// widest expansion states, 96 bytes each, and the query of each of the
	// MaxStates states it expanded, a 120-byte header and the one slice or
	// clause its decision wrote.
	MaxStates int
	// GeoMeanPriority orders states by the geometric mean of their module
	// softmax values instead of the product — the alternative confidence
	// definition §3.3.3 discusses (it removes the preference for shorter
	// queries at the cost of Property 1). Off by default, as in the paper.
	GeoMeanPriority bool

	// Workers is ignored: a search, its guidance and every cascade it runs
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
	Exhausted  bool // the queue emptied before MaxStates: the whole space was enumerated
	// Truncated marks an anytime partial result: the search was cut short by
	// cancellation or deadline expiry, and Candidates holds what was
	// verified up to that point. The search is sequential, so a truncated
	// candidate list is always a prefix of the untruncated run's.
	// MaxStates, MaxCandidates, and emit-stopped searches are complete
	// answers under their configured bounds, not truncations.
	Truncated bool
	Elapsed   time.Duration
}

// state is one search state: a decision, not a query. A state is the query
// of the expanded state it extends, kept by the search, plus the decision
// that extends it: GPQE's partial query is its parent plus one decision
// (§3.3). Its own query is built when it is popped, by one Apply, and kept
// only if it is expanded.
//
// A child with holes left is queued before its cascade runs (§3.4): it owes
// it, and pays it when it is popped, if it ever is. Only a state that passed
// is expanded.
type state struct {
	base     *sqlir.Query   // the kept query of the state this one extends; nil for the root
	dec      sqlir.Decision // the zero Decision for the root
	logConf  float64
	depth    int32 // decision depth, the NoGuide BFS key
	verified bool  // the state passed the cascade, so its children inherit its proofs
	owes     bool  // the state's cascade has not run yet
	inherit  bool  // the state it extends passed its cascade, so it inherits its proofs
}

// option is one output class of an expansion: the decision that makes the
// child and the log of the probability the module gave it.
type option struct {
	dec sqlir.Decision
	log float64
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
	// kept holds the query of every state expanded, the base of the
	// children queued from it.
	kept *store
	// cur holds the popped state's query, its decision applied to its base,
	// being checked; scratch the one child of an expanded state being
	// looked at, its whole cascade included. Nothing that outlives the look
	// may point into either: a state that passes is expanded from its kept
	// copy, an emitted candidate is a copy of its own (Query.Clone), and so
	// is the query a model that is not a guidance.Borrower is handed.
	cur, scratch sqlir.Scratch
	root         sqlir.Query // the root's query: the zero Query, never written
	borrow       bool        // the model may be handed a kept query itself
	opts         []option    // the current expansion, reused
	seq          int

	// partial reports whether a query with holes left owes the cascade:
	// under GPQE and NoGuide; NoPQ verifies complete queries only.
	partial bool
}

// newSearch prepares a search whose frontier holds the empty query. The
// caller must close it.
func (e *Enumerator) newSearch(ctx context.Context, nlq string, literals []sqlir.Value) *search {
	s := &search{
		e:       e,
		ctx:     ctx,
		mctx:    guidance.NewContextDB(nlq, literals, e.db, nil),
		queue:   frontier{noGuide: e.opts.Mode == ModeNoGuide, geoMean: e.opts.GeoMeanPriority},
		kept:    storePool.Get().(*store),
		borrow:  guidance.Borrows(e.model),
		partial: e.opts.Mode != ModeNoPQ,
	}
	s.queue.push(state{}, 0, 0) // the empty query, which has nothing to prove
	return s
}

// close hands the search's frontier and kept queries on to the next search.
func (s *search) close() {
	s.queue.release()
	s.kept.release()
	s.kept = nil
}

// expand is EnumNextStep (Algorithm 1, Line 5) for a popped state whose
// kept query is q: one option per output class of the next module, valid
// until the next call. A model that does not borrow is handed a clone of q.
func (s *search) expand(q *sqlir.Query) ([]option, error) {
	if !s.borrow {
		q = q.Clone() // the model may keep the query it is handed
	}
	opts, err := s.e.nextStep(s.mctx, q, s.opts[:0])
	if err != nil {
		return nil, err
	}
	s.opts = opts
	return opts, nil
}

// replay builds n's query in cur: n's decision applied to its base, one
// decision at any depth. The root extends nothing; its query is the zero
// Query.
func (s *search) replay(n *state) *sqlir.Query {
	if n.base == nil {
		return &s.root
	}
	return s.cur.Apply(n.base, n.dec)
}

// check runs on q, the query of the popped state n, the cascade n owes:
// inheriting the proofs of n's parent when the parent passed its own. It
// records the outcome in n.
// A transient error (verify.Transient) means the request was cancelled or
// faulted mid-check, and the outcome is meaningless.
func (s *search) check(n *state, q *sqlir.Query) (verify.Outcome, error) {
	d := n.dec
	if !n.inherit {
		d = sqlir.Decision{} // nothing proved to inherit
	}
	out, err := s.e.verifier.VerifyChild(s.ctx, q, d)
	if err != nil {
		return out, err
	}
	n.owes, n.verified = false, out.OK
	return out, nil
}

// verifyResult is what the search learns about one child of an expansion.
type verifyResult struct {
	q        *sqlir.Query   // the child, in the scratch: valid until the next verifyChild
	complete bool           // the child has no holes left, and out is its outcome
	out      verify.Outcome // meaningful only when complete
	err      error          // a transient one: see check
}

// verifyChild builds the child of q by decision d in the scratch and, when
// it is complete, runs its whole cascade there, inheriting q's proofs when
// q passed the cascade. A child with holes left is queued unchecked: it owes
// the cascade until it is popped.
func (s *search) verifyChild(q *sqlir.Query, inherit bool, d sqlir.Decision) (r verifyResult) {
	r.q = s.scratch.Apply(q, d)
	if r.complete = r.q.Complete(); !r.complete {
		return r
	}
	if !inherit {
		d = sqlir.Decision{} // nothing proved to inherit
	}
	r.out, r.err = s.e.verifier.VerifyChild(s.ctx, r.q, d)
	return r
}

// child numbers the child of the popped state p, whose kept query is base,
// by option o, given what verifyChild said about it (r), and queues it as
// (base, decision) when it has holes left. It reports whether the child is
// a candidate: a complete query that passed.
func (s *search) child(p *state, base *sqlir.Query, o *option, r *verifyResult) bool {
	s.seq++ // every child, kept or not: arrival breaks ties
	if r.complete {
		return r.out.OK
	}
	s.queue.push(state{base: base, dec: o.dec, logConf: p.logConf + o.log, depth: p.depth + 1, owes: s.partial, inherit: p.verified},
		r.q.From.Len(), s.seq)
	return false
}

// stop ends a search on a verification error. A transient one — the request
// was cancelled or expired mid-check — degrades to the candidates already
// emitted.
func stop(res *Result, err error) (*Result, error) {
	if verify.Transient(err) {
		res.Truncated = true
		return res, nil
	}
	return res, err
}

// Enumerate runs Algorithm 1, invoking emit for each candidate query in
// ranked order. emit returning false stops the search early.
//
// A child with holes left runs the §3.4 cascade when it is popped, not when
// it is generated: most children that pass are never expanded. A popped
// state that fails is dropped uncounted, so the states expanded, in their
// order, are those of verifying every child as it is generated. One that
// passes has its query kept, and its children are queued against it.
//
// Cancellation and the context's deadline produce an anytime result, not
// an error: the returned Result carries the candidates verified so far (a
// deterministic prefix of the untruncated run) with Truncated set.
func (e *Enumerator) Enumerate(ctx context.Context, nlq string, literals []sqlir.Value, emit func(Candidate) bool) (*Result, error) {
	s := e.newSearch(ctx, nlq, literals)
	defer s.close()
	return s.run(emit)
}

// run is Enumerate's loop over the search's frontier.
func (s *search) run(emit func(Candidate) bool) (res *Result, err error) {
	start := time.Now()
	res = &Result{}
	defer func() { res.Elapsed = time.Since(start) }()
	e := s.e
	seen := map[string]bool{} // canonical dedup of emitted candidates
	emitted := 0

	for s.queue.len() > 0 {
		if res.States >= e.opts.MaxStates {
			return res, nil
		}
		select {
		case <-s.ctx.Done():
			res.Truncated = true
			return res, nil
		default:
		}

		p := s.queue.pop()
		q := s.replay(p)
		if p.owes {
			out, err := s.check(p, q)
			if err != nil {
				return stop(res, err)
			}
			if !out.OK {
				s.queue.discard(p)
				continue
			}
		}
		res.States++
		q = s.kept.keep(q, p.base)

		opts, err := s.expand(q)
		if err != nil {
			return res, err
		}
		for i := range opts {
			o := &opts[i]
			r := s.verifyChild(q, p.verified, o.dec)
			if r.err != nil {
				return stop(res, r.err)
			}
			if !s.child(p, q, o, &r) {
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
				Confidence: math.Exp(p.logConf + o.log),
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
		s.queue.discard(p)
	}
	res.Exhausted = true
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
		return append(buf, option{sqlir.Decision{Kind: sqlir.DecideGroupBy}, 0}), nil // log 1

	case q.GroupByState == sqlir.ClausePresent && q.HavingState == sqlir.ClausePending && q.Having == nil:
		for _, s := range e.model.HavingPresent(ctx) {
			prob, log := s.Prob, s.Log
			if uniform {
				prob, log = 1, 0
			}
			if !s.Class {
				buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideHaving}, log})
				continue
			}
			acs := e.model.HavingAggCol(ctx)
			for i := range acs {
				pac := acs[i].Prob
				if uniform {
					pac = 1
				}
				// The log of the product, which is not bit for bit the
				// sum of the logs.
				buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideHaving, Present: true,
					Agg: acs[i].Class.Agg, Col: &acs[i].Class.Col}, math.Log(prob * pac)})
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
// each dec with the class filled in by set and the log-probability stored
// beside the class (log 1 = 0 for every class when uniform).
func options[T any](buf []option, uniform bool, scored []guidance.Scored[T], dec sqlir.Decision, set func(*sqlir.Decision, *T)) []option {
	for i := range scored {
		log := scored[i].Log
		if uniform {
			log = 0
		}
		set(&dec, &scored[i].Class)
		buf = append(buf, option{dec, log})
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
		buf = append(buf, option{sqlir.Decision{Kind: sqlir.DecideFrom, From: jp}, math.Log(prob)})
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

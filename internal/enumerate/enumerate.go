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
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
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

// state is one search node: a partial query plus its confidence. The query
// is immutable (sqlir/derive.go): children share its structure, and emitted
// candidates and verification workers keep pointers to it.
type state struct {
	q *sqlir.Query
	// dec is the decision that derived q from its parent when that parent
	// passed verification — q's own check then inherits the parent's proofs
	// (verify.Begin) — and the zero Decision otherwise.
	dec      sqlir.Decision
	complete bool // q.Complete()
	verified bool // q passed the cascade
	logConf  float64
	joinLen  int // §3.3.4 tiebreaker: shorter join paths first
	depth    int // decision depth, the NoGuide BFS key
	seq      int // FIFO tiebreaker for determinism
}

// stateQueue is the priority collection P of Algorithm 1.
type stateQueue struct {
	items   []*state
	noGuide bool
	geoMean bool
}

func (pq *stateQueue) Len() int { return len(pq.items) }

// priority returns the best-first key for a state.
func (pq *stateQueue) priority(s *state) float64 {
	if pq.geoMean && s.depth > 0 {
		return s.logConf / float64(s.depth)
	}
	return s.logConf
}

func (pq *stateQueue) Less(i, j int) bool {
	a, b := pq.items[i], pq.items[j]
	if pq.noGuide {
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.seq < b.seq
	}
	pa, pb := pq.priority(a), pq.priority(b)
	if pa != pb {
		return pa > pb
	}
	if a.joinLen != b.joinLen {
		return a.joinLen < b.joinLen
	}
	return a.seq < b.seq
}
func (pq *stateQueue) Swap(i, j int) { pq.items[i], pq.items[j] = pq.items[j], pq.items[i] }
func (pq *stateQueue) Push(x any)    { pq.items = append(pq.items, x.(*state)) }
func (pq *stateQueue) Pop() any {
	old := pq.items
	n := len(old)
	it := old[n-1]
	pq.items = old[:n-1]
	return it
}

// Enumerator runs GPQE for one synthesis task.
type Enumerator struct {
	db       *storage.Database
	graph    *schemagraph.Graph
	model    guidance.Model
	verifier *verify.Verifier
	opts     Options

	seq int
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
	mctx := guidance.NewContextDB(nlq, literals, e.db, nil)

	pq := &stateQueue{noGuide: e.opts.Mode == ModeNoGuide, geoMean: e.opts.GeoMeanPriority}
	root := &state{q: sqlir.NewQuery(), logConf: 0}
	heap.Push(pq, root)

	// needVerify reports whether a child state runs the verification
	// cascade: always under GPQE/NoGuide; only complete queries under NoPQ.
	needVerify := func(c *state) bool {
		return e.opts.Mode != ModeNoPQ || c.complete
	}
	var pool *verifyPool
	if e.opts.Workers > 1 {
		pool = newVerifyPool(ctx, e.verifier, e.opts.Workers)
		defer pool.close()
	}

	res := &Result{}
	seen := map[string]bool{} // canonical dedup of emitted candidates
	emitted := 0

	// truncate finalizes the anytime partial result for a search cut short.
	truncate := func() (*Result, error) {
		res.Truncated = true
		res.Elapsed = time.Since(start)
		return res, nil
	}

	for pq.Len() > 0 {
		if res.States >= e.opts.MaxStates {
			return res, nil
		}
		select {
		case <-ctx.Done():
			return truncate()
		default:
		}

		p := heap.Pop(pq).(*state)
		res.States++

		children, err := e.nextStep(mctx, p)
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
		if pool != nil && len(children) > 1 {
			batch = pool.verifyBatch(children, needVerify)
		}
		for i, c := range children {
			if needVerify(c) {
				var r verifyResult
				if batch != nil {
					r = batch[i]
				} else {
					r = verifyChild(ctx, e.verifier, c)
				}
				if r.cancelled {
					// The request died (or drew an injected fault) mid-
					// verification: degrade to the candidates already emitted.
					return truncate()
				}
				if r.err != nil {
					return res, r.err
				}
				if !r.out.OK {
					continue
				}
				c.verified = true
			}
			if c.complete {
				key := c.q.Canonical()
				if seen[key] {
					continue
				}
				seen[key] = true
				emitted++
				cand := Candidate{
					Query:      c.q,
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
			} else {
				heap.Push(pq, c)
			}
		}
	}
	res.Exhausted = true
	res.Elapsed = time.Since(start)
	return res, nil
}

// child wraps q — the parent's query with decision dec applied, with
// probability p — as a search state.
func (e *Enumerator) child(parent *state, p float64, q *sqlir.Query, dec sqlir.Decision) *state {
	e.seq++
	lc := parent.logConf
	if p > 0 {
		lc += math.Log(p)
	} else {
		lc = math.Inf(-1)
	}
	if !parent.verified {
		dec = sqlir.Decision{} // nothing proved to inherit
	}
	return &state{q: q, dec: dec, complete: q.Complete(), logConf: lc, joinLen: q.From.Len(), depth: parent.depth + 1, seq: e.seq}
}

// nextStep is EnumNextStep (Algorithm 1, Line 5): it finds the next pending
// decision in module execution order (§3.3.1) and produces one child state
// per output class of the corresponding module.
func (e *Enumerator) nextStep(ctx *guidance.Context, p *state) ([]*state, error) {
	q := p.q
	// The search owns ctx and a model reads it only during a call, so it is
	// rebound in place instead of copied (Context.WithQuery) per state.
	ctx.Query = q
	uniform := e.opts.Mode == ModeNoGuide

	switch {
	case !q.KWSet:
		return mapChildren(e, p, uniform, e.model.Keywords(ctx), sqlir.Decision{Kind: sqlir.DecideKeywords},
			func(ks guidance.KeywordSet) *sqlir.Query { return q.WithKeywords(ks.Where, ks.GroupBy, ks.OrderBy) }), nil

	case !q.SelectCountSet:
		return mapChildren(e, p, uniform, e.model.SelectCount(ctx), sqlir.Decision{Kind: sqlir.DecideSelectCount},
			q.WithSelectCount), nil

	case firstUndecidedCol(q) >= 0:
		idx := firstUndecidedCol(q)
		return mapChildren(e, p, uniform, e.model.SelectColumn(ctx, idx), sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: idx},
			func(c sqlir.ColumnRef) *sqlir.Query { return q.WithSelectColumn(idx, c) }), nil

	case firstUndecidedAgg(q) >= 0:
		idx := firstUndecidedAgg(q)
		return mapChildren(e, p, uniform, e.model.SelectAgg(ctx, idx, q.Select[idx].Col), sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: idx},
			func(a sqlir.AggFunc) *sqlir.Query { return q.WithSelectAgg(idx, a) }), nil

	case q.From == nil:
		return e.joinPathChildren(p)

	case q.WhereState == sqlir.ClausePending:
		return mapChildren(e, p, uniform, e.model.WhereCount(ctx), sqlir.Decision{Kind: sqlir.DecideWhereCount},
			q.WithWhereCount), nil

	case q.WhereState == sqlir.ClausePresent && len(q.Where.Preds) >= 2 && !q.Where.ConjSet:
		return mapChildren(e, p, uniform, e.model.WhereConj(ctx), sqlir.Decision{Kind: sqlir.DecideWhereConj},
			q.WithWhereConj), nil

	case firstPredWithout(q, predColUnset) >= 0:
		idx := firstPredWithout(q, predColUnset)
		return mapChildren(e, p, uniform, e.model.WhereColumn(ctx, idx), sqlir.Decision{Kind: sqlir.DecidePredColumn, Index: idx},
			func(c sqlir.ColumnRef) *sqlir.Query { return q.WithPredColumn(idx, c) }), nil

	case firstPredWithout(q, predOpUnset) >= 0:
		idx := firstPredWithout(q, predOpUnset)
		return mapChildren(e, p, uniform, e.model.WhereOp(ctx, q.Where.Preds[idx].Col), sqlir.Decision{Kind: sqlir.DecidePredOp, Index: idx},
			func(op sqlir.Op) *sqlir.Query { return q.WithPredOp(idx, op) }), nil

	case firstPredWithout(q, predValUnset) >= 0:
		idx := firstPredWithout(q, predValUnset)
		pr := q.Where.Preds[idx]
		return mapChildren(e, p, uniform, e.model.WhereValue(ctx, pr.Col, pr.Op), sqlir.Decision{Kind: sqlir.DecidePredValue, Index: idx},
			func(v sqlir.Value) *sqlir.Query { return q.WithPredValue(idx, v) }), nil

	case q.GroupByState == sqlir.ClausePending:
		// GROUP BY is determined by SQL semantics: every unaggregated
		// projection must be grouped. No unaggregated projections means
		// the branch has no valid grouping within the task scope.
		cols := unaggregatedCols(q)
		if len(cols) == 0 {
			return nil, nil
		}
		return []*state{e.child(p, 1, q.WithGroupBy(cols), sqlir.Decision{Kind: sqlir.DecideGroupBy})}, nil

	case q.GroupByState == sqlir.ClausePresent && q.HavingState == sqlir.ClausePending && !q.Having.AggSet:
		var out []*state
		dec := sqlir.Decision{Kind: sqlir.DecideHaving}
		for _, s := range e.model.HavingPresent(ctx) {
			prob := s.Prob
			if uniform {
				prob = 1
			}
			if !s.Class {
				out = append(out, e.child(p, prob, q.WithoutHaving(), dec))
				continue
			}
			for _, ac := range e.model.HavingAggCol(ctx) {
				pac := ac.Prob
				if uniform {
					pac = 1
				}
				out = append(out, e.child(p, prob*pac, q.WithHavingAgg(ac.Class.Agg, ac.Class.Col), dec))
			}
		}
		return out, nil

	case q.HavingState == sqlir.ClausePresent && !q.Having.OpSet:
		return mapChildren(e, p, uniform, e.model.HavingOp(ctx), sqlir.Decision{Kind: sqlir.DecideHavingOp},
			q.WithHavingOp), nil

	case q.HavingState == sqlir.ClausePresent && !q.Having.ValSet:
		return mapChildren(e, p, uniform, e.model.HavingValue(ctx), sqlir.Decision{Kind: sqlir.DecideHavingValue},
			q.WithHavingValue), nil

	case q.OrderByState == sqlir.ClausePending:
		return mapChildren(e, p, uniform, e.model.OrderKey(ctx), sqlir.Decision{Kind: sqlir.DecideOrderKey},
			func(k guidance.AggCol) *sqlir.Query { return q.WithOrderKey(sqlir.OrderKey{Agg: k.Agg, Col: k.Col}) }), nil

	case q.OrderByState == sqlir.ClausePresent && !q.OrderBy.DirSet:
		return mapChildren(e, p, uniform, e.model.OrderDir(ctx), sqlir.Decision{Kind: sqlir.DecideOrderDir},
			func(d guidance.DirLimit) *sqlir.Query { return q.WithOrderDir(d.Desc, d.Limit) }), nil
	}
	return nil, fmt.Errorf("enumerate: no pending decision for %s", q)
}

// pathPenalty discounts expansion tables beyond the minimal Steiner tree so
// the candidate stream is not flooded by semantically-superfluous join
// variants of the same logical query. The §3.3.4 length tie-breaker alone
// cannot separate them once deeper decisions differentiate confidence.
const pathPenalty = 0.45

// joinPathChildren expands progressive join path construction (Algorithm 2):
// one child per candidate path. The minimal paths keep the parent's
// confidence (as in the paper); each expansion table multiplies in
// pathPenalty, and path length remains the secondary tiebreaker.
func (e *Enumerator) joinPathChildren(p *state) ([]*state, error) {
	paths, err := e.graph.ConstructJoinPaths(p.q)
	if err != nil {
		// Disconnected column sets have no valid FROM clause: prune.
		return nil, nil
	}
	minLen := 0
	for i, jp := range paths {
		if i == 0 || jp.Len() < minLen {
			minLen = jp.Len()
		}
	}
	out := make([]*state, 0, len(paths))
	for _, jp := range paths {
		prob := math.Pow(pathPenalty, float64(jp.Len()-minLen))
		out = append(out, e.child(p, prob, p.q.WithFrom(jp), sqlir.Decision{Kind: sqlir.DecideFrom}))
	}
	return out, nil
}

// mapChildren turns a module distribution into child states: one per output
// class, each the parent's query with decision dec filled in by derive.
func mapChildren[T any](e *Enumerator, p *state, uniform bool, scored []guidance.Scored[T], dec sqlir.Decision, derive func(class T) *sqlir.Query) []*state {
	out := make([]*state, 0, len(scored))
	for _, s := range scored {
		prob := s.Prob
		if uniform {
			prob = 1
		}
		out = append(out, e.child(p, prob, derive(s.Class), dec))
	}
	return out
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

// unaggregatedCols lists the unaggregated projected columns (the GROUP BY
// key mandated by SQL semantics).
func unaggregatedCols(q *sqlir.Query) []sqlir.ColumnRef {
	var out []sqlir.ColumnRef
	for _, s := range q.Select {
		if s.Complete() && s.Agg == sqlir.AggNone && !s.Col.IsStar() {
			out = append(out, s.Col)
		}
	}
	return out
}

// SchemaGraph exposes the enumerator's schema graph (used by the PBE
// baseline and tooling to share join path construction).
func (e *Enumerator) SchemaGraph() *schemagraph.Graph { return e.graph }

// VerifierStats exposes the verifier's per-stage counters.
func (e *Enumerator) VerifierStats() verify.Stats { return e.verifier.Stats() }

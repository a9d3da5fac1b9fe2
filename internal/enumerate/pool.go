package enumerate

import (
	"context"
	"errors"
	"sync"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/verify"
)

// transientErr reports whether err reflects the request's fate —
// cancellation, deadline expiry, or an injected fault — rather than a real
// verification failure. Transient errors truncate the search into an
// anytime partial result instead of surfacing as errors.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		faultinject.IsInjected(err)
}

// verifyResult is what the search learns about one child of an expansion.
// idx is the child's position within its expansion, so results arriving
// out of order can be reassembled into the sequential engine's processing
// order.
type verifyResult struct {
	idx      int
	complete bool // the child has no holes left
	// q is the child as a query of its own, built because its check went on
	// to Finish and needed one that outlives the scratch; nil otherwise.
	q         *sqlir.Query
	out       verify.Outcome // meaningful only when the child needed verifying
	err       error
	cancelled bool // the request died, or drew an injected fault, mid-check
}

// verifyJob is one pending check handed to the pool: the child's result so
// far and what is left of its check.
type verifyJob struct {
	r     verifyResult
	check verify.Check
}

// settle closes r with a finished check: a transient error — the request
// was cancelled or faulted mid-check, so the partial outcome is meaningless
// — reports cancellation instead.
func (r *verifyResult) settle(out verify.Outcome, err error) {
	if transientErr(err) {
		r.cancelled = true
		return
	}
	r.out, r.err = out, err
}

// begin builds the child of q by decision d in the scratch and runs its
// check on the search goroutine as far as that takes no database work
// (verify.Begin), inheriting q's proofs when q passed the cascade. What it
// learns goes into r. A check left pending comes back with the child
// derived for real in r.q: the scratch is the next child's a moment later.
func (s *search) begin(q *sqlir.Query, inherit bool, d sqlir.Decision, r *verifyResult) verify.Check {
	c := s.scratch.Apply(q, d)
	r.complete = c.Complete()
	if !s.needVerify(r.complete) {
		return verify.Check{}
	}
	proved := d
	if !inherit {
		proved = sqlir.Decision{} // nothing proved to inherit
	}
	chk, err := s.e.verifier.Begin(s.ctx, c, proved)
	if err != nil || !chk.Pending() {
		r.settle(chk.Outcome(), err)
		return verify.Check{}
	}
	r.q = q.Apply(d)
	return chk
}

// verifyChild runs one child's whole cascade on the search goroutine.
func (s *search) verifyChild(q *sqlir.Query, inherit bool, d sqlir.Decision) (r verifyResult) {
	if chk := s.begin(q, inherit, d, &r); chk.Pending() {
		r.settle(s.e.verifier.Finish(s.ctx, chk, r.q))
	}
	return r
}

// verifyBatch checks one expansion's children and returns the results in a
// slice aligned with opts — the reordering buffer that keeps emission order
// identical to the sequential engine. The slice is valid until the next
// call. Every check's no-database prefix runs here; those left pending go
// to the pool when there are two or more — one alone is finished where it
// stands.
func (s *search) verifyBatch(q *sqlir.Query, inherit bool, opts []option) []verifyResult {
	p := s.pool
	p.results = append(p.results[:0], make([]verifyResult, len(opts))...)
	p.pending = p.pending[:0]
	for i := range opts {
		r := &p.results[i]
		r.idx = i
		if chk := s.begin(q, inherit, opts[i].dec, r); chk.Pending() {
			p.pending = append(p.pending, verifyJob{r: *r, check: chk})
		}
	}
	switch len(p.pending) {
	case 0:
	case 1:
		j := &p.pending[0]
		p.results[j.r.idx].settle(p.v.Finish(p.ctx, j.check, j.r.q))
	default:
		p.run()
	}
	return p.results
}

// verifyPool is a bounded pool of workers doing the database work of TSQ
// verification concurrently. The search goroutine runs every check's
// no-database prefix itself (search.begin); only checks that reach a memo
// miss or the by-order execution come here, each with a query of its own,
// and only when an expansion has two or more of them (search.verifyBatch).
// The frontier and guidance scoring stay on the enumerator's goroutine to
// keep the paper's best-first order deterministic. A pool is bound to one
// Enumerate call and must be closed when the search ends. It is the only
// parallelism inside a request: every query a worker runs scans on that
// worker's goroutine.
type verifyPool struct {
	ctx context.Context
	v   *verify.Verifier
	n   int

	// jobs and done are created, and the workers started, by the first
	// batch that has database work: a request the memos answer entirely
	// never starts a goroutine.
	jobs chan verifyJob
	done chan verifyResult
	wg   sync.WaitGroup

	// Per-batch scratch, reused across expansions.
	results []verifyResult
	pending []verifyJob
}

// newVerifyPool prepares a pool of up to n workers verifying against v.
func newVerifyPool(ctx context.Context, v *verify.Verifier, n int) *verifyPool {
	return &verifyPool{ctx: ctx, v: v, n: n}
}

// start launches the workers. They exit when the pool is closed; a
// cancelled context makes them report cancellation instead of verifying, so
// a cancelled search drains quickly.
func (p *verifyPool) start() {
	p.jobs = make(chan verifyJob)
	p.done = make(chan verifyResult)
	p.wg.Add(p.n)
	for i := 0; i < p.n; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				if p.ctx.Err() != nil {
					j.r.cancelled = true
					p.done <- j.r
					continue
				}
				j.r.settle(p.v.Finish(p.ctx, j.check, j.r.q))
				p.done <- j.r
			}
		}()
	}
}

// run hands the pending checks to the workers, starting them if this is the
// first batch to need any, and files each result under its child's index.
func (p *verifyPool) run() {
	if p.jobs == nil {
		p.start()
	}
	// Dispatch and collect in one loop: done is unbuffered, so a worker
	// with a result must be received from before it can take a new job.
	for sent, got := 0, 0; got < len(p.pending); {
		var jobs chan<- verifyJob
		var next verifyJob
		if sent < len(p.pending) {
			jobs, next = p.jobs, p.pending[sent]
		}
		select {
		case jobs <- next:
			sent++
		case r := <-p.done:
			p.results[r.idx] = r
			got++
		}
	}
}

// close shuts the pool down and waits for all workers to exit.
func (p *verifyPool) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
}

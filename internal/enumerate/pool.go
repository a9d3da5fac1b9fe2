package enumerate

import (
	"context"
	"errors"
	"sync"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlexec"
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

// verifyJob is one pending check handed to the pool. idx is the child's
// position within its expansion batch, so results arriving out of order can
// be reassembled into the sequential engine's processing order.
type verifyJob struct {
	idx   int
	check verify.Check
}

// verifyResult is one verification outcome fed back to the search loop.
type verifyResult struct {
	idx       int
	out       verify.Outcome
	err       error
	cancelled bool // the request died, or drew an injected fault, mid-check
}

// settled turns a finished check into a result: a transient error — the
// request was cancelled or faulted mid-check, so the partial outcome is
// meaningless — reports cancellation instead.
func settled(idx int, out verify.Outcome, err error) verifyResult {
	if transientErr(err) {
		return verifyResult{idx: idx, cancelled: true}
	}
	return verifyResult{idx: idx, out: out, err: err}
}

// verifyChild runs one child's whole cascade on the calling goroutine.
func verifyChild(ctx context.Context, v *verify.Verifier, c *state) verifyResult {
	chk, err := v.Begin(ctx, c.q, c.dec)
	if err != nil || !chk.Pending() {
		return settled(0, chk.Outcome(), err)
	}
	out, err := v.Finish(ctx, chk)
	return settled(0, out, err)
}

// verifyPool is a bounded pool of workers doing the database work of TSQ
// verification concurrently. The search goroutine runs every check's
// no-database prefix itself (verify.Begin); only checks that reach a memo
// miss or the by-order execution come here, and only when an expansion has
// two or more of them — one alone is finished where it stands. The priority
// queue and guidance scoring stay on the enumerator's goroutine to keep the
// paper's best-first order deterministic. A pool is bound to one Enumerate
// call and must be closed when the search ends.
//
// When the context carries the engine's shared sqlexec.WorkerPool, each
// worker holds one of its tokens for the duration of a job (advisory, via
// TryAcquire — verification itself never blocks on the pool). A held token
// shrinks what the morsel fan-out inside that very verification can
// additionally recruit, so inter-state parallelism and intra-query morsel
// parallelism draw on one budget: with a full batch in flight every token
// is held here and probes run sequentially; with a single check in flight
// its probes can fan out across the idle tokens — either way total
// parallelism stays capped at the engine's Workers setting.
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
	shared := sqlexec.PoolFrom(p.ctx)
	p.wg.Add(p.n)
	for i := 0; i < p.n; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				if p.ctx.Err() != nil {
					p.done <- verifyResult{idx: j.idx, cancelled: true}
					continue
				}
				held := shared.TryAcquire()
				out, err := p.v.Finish(p.ctx, j.check)
				if held {
					shared.Release()
				}
				p.done <- settled(j.idx, out, err)
			}
		}()
	}
}

// verifyBatch checks one expansion's children and returns the outcomes in a
// slice aligned with states — the reordering buffer that keeps emission
// order identical to the sequential engine. The slice is valid until the
// next call. Children for which needVerify reports false are left as zero
// values and must not be consulted by the caller.
func (p *verifyPool) verifyBatch(states []*state, needVerify func(*state) bool) []verifyResult {
	p.results = append(p.results[:0], make([]verifyResult, len(states))...)
	p.pending = p.pending[:0]
	for i, s := range states {
		if !needVerify(s) {
			continue
		}
		chk, err := p.v.Begin(p.ctx, s.q, s.dec)
		if err == nil && chk.Pending() {
			p.pending = append(p.pending, verifyJob{idx: i, check: chk})
			continue
		}
		p.results[i] = settled(i, chk.Outcome(), err)
	}
	switch len(p.pending) {
	case 0:
	case 1:
		j := p.pending[0]
		out, err := p.v.Finish(p.ctx, j.check)
		p.results[j.idx] = settled(j.idx, out, err)
	default:
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
	return p.results
}

// close shuts the pool down and waits for all workers to exit.
func (p *verifyPool) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
}

package enumerate

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// poolVerifier checks against a one-tuple TSQ, so every complete query has
// database work (at least the by-order execution) for the pool to do.
func poolVerifier() *verify.Verifier {
	return verify.New(movieDB(), semrules.Default(), &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText},
		Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump"))}},
	}, nil)
}

// poolStates builds n states holding a complete query that satisfies
// poolVerifier's TSQ.
func poolStates(n int) []*state {
	q := sqlparse.MustParse(movieDB().Schema, "SELECT title FROM movie")
	out := make([]*state, n)
	for i := range out {
		out[i] = &state{q: q, complete: true}
	}
	return out
}

// TestPoolReorderSkipsUnverified: the reordering buffer leaves slots whose
// needVerify said no as zero values and fills every dispatched slot, in
// index alignment, regardless of worker completion order.
func TestPoolReorderSkipsUnverified(t *testing.T) {
	pool := newVerifyPool(context.Background(), poolVerifier(), 4)
	defer pool.close()

	states := poolStates(16)
	for round := 0; round < 8; round++ {
		results := pool.verifyBatch(states, func(s *state) bool {
			return indexOf(states, s)%2 == 0
		})
		if len(results) != len(states) {
			t.Fatalf("got %d results for %d states", len(results), len(states))
		}
		for i, r := range results {
			if i%2 == 1 {
				if r.cancelled || r.err != nil || r.out.OK {
					t.Fatalf("slot %d was skipped but holds %+v", i, r)
				}
				continue
			}
			if r.cancelled || r.err != nil || !r.out.OK {
				t.Fatalf("slot %d: outcome %+v, want verified OK", i, r)
			}
		}
	}
}

func indexOf(states []*state, s *state) int {
	for i := range states {
		if states[i] == s {
			return i
		}
	}
	return -1
}

// TestPoolCancelMidDrain cancels the search context halfway through a
// batch's inline prefix, so the whole batch is dispatched to workers that
// already see the cancellation. Every dispatched slot must still come back
// — as a real outcome or as a cancellation — in index alignment, and
// close() must not deadlock on the drained queue.
func TestPoolCancelMidDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := newVerifyPool(ctx, poolVerifier(), 3)
	defer pool.close()

	states := poolStates(24)
	var dispatched atomic.Int64
	results := pool.verifyBatch(states, func(*state) bool {
		if dispatched.Add(1) == int64(len(states)/2) {
			cancel()
		}
		return true
	})

	sawCancelled := false
	for i, r := range results {
		switch {
		case r.cancelled:
			sawCancelled = true
		case r.err == nil && r.out.OK:
			// verified before the cancellation landed
		default:
			t.Fatalf("slot %d: neither verified nor cancelled: %+v", i, r)
		}
	}
	if !sawCancelled {
		t.Skip("cancellation landed after the whole batch drained (scheduling)")
	}

	// A batch dispatched entirely after cancellation reports cancelled
	// everywhere: a cancelled search drains without touching the verifier.
	results = pool.verifyBatch(poolStates(6), func(*state) bool { return true })
	for i, r := range results {
		if !r.cancelled {
			t.Fatalf("slot %d after cancel: %+v, want cancelled", i, r)
		}
	}
}

// TestEnumerateEmitStopParallel: emit returning false stops the search with
// the pool still loaded, the engine returns exactly the candidates emitted
// so far, and the parallel engine's truncated stream equals the sequential
// engine's — the reorder buffer keeps emission order stable even when the
// caller cuts the search short.
func TestEnumerateEmitStopParallel(t *testing.T) {
	db := movieDB()
	nlq := "titles of movies before 1995"
	lits := []sqlir.Value{num(1995)}
	runWith := func(workers int) []string {
		v := verify.New(db, semrules.Default(), nil, lits)
		e := New(db, guidance.NewLexicalModel(), v, Options{
			Mode:      ModeGPQE,
			MaxStates: 20000,
			Workers:   workers,
		})
		var got []string
		res, err := e.Enumerate(context.Background(), nlq, lits, func(c Candidate) bool {
			got = append(got, c.Query.Canonical())
			return len(got) < 3
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 3 {
			t.Fatalf("workers=%d: emit saw %d candidates, want 3", workers, len(got))
		}
		if len(res.Candidates) != 3 {
			t.Fatalf("workers=%d: result has %d candidates, want the 3 emitted", workers, len(res.Candidates))
		}
		return got
	}
	seq := runWith(1)
	par := runWith(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("candidate %d diverges:\n sequential %s\n parallel   %s", i, seq[i], par[i])
		}
	}
}

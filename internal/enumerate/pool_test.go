package enumerate

import (
	"context"
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

// poolSearch is a search over poolVerifier with a pool of n workers.
func poolSearch(ctx context.Context, n int) *search {
	e := New(movieDB(), guidance.NewLexicalModel(), poolVerifier(), Options{Workers: n})
	return e.newSearch(ctx, "", nil)
}

// poolOptions builds a parent and n options for it, alternating between
// one that completes it into a query satisfying poolVerifier's TSQ — which
// therefore has by-order work for the pool — and one that leaves it
// incomplete.
func poolOptions(n int) (*sqlir.Query, []option) {
	full := sqlparse.MustParse(movieDB().Schema, "SELECT title FROM movie")
	parent := *full
	parent.From = nil
	opts := make([]option, n)
	for i := range opts {
		opts[i] = option{sqlir.Decision{Kind: sqlir.DecideFrom, From: full.From}, 1}
		if i%2 == 1 {
			opts[i] = option{sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggNone}, 1}
		}
	}
	return &parent, opts
}

// TestPoolReorderSkipsUnverified: the reordering buffer leaves slots whose
// needVerify said no unverified and fills every dispatched slot, in index
// alignment, regardless of worker completion order.
func TestPoolReorderSkipsUnverified(t *testing.T) {
	s := poolSearch(context.Background(), 4)
	defer s.close()
	s.needVerify = func(complete bool) bool { return complete } // ModeNoPQ's rule

	parent, opts := poolOptions(16)
	for round := 0; round < 8; round++ {
		results := s.verifyBatch(parent, false, opts)
		if len(results) != len(opts) {
			t.Fatalf("got %d results for %d options", len(results), len(opts))
		}
		for i, r := range results {
			if i%2 == 1 {
				if r.complete || r.q != nil || r.cancelled || r.err != nil || r.out.OK {
					t.Fatalf("slot %d was skipped but holds %+v", i, r)
				}
				continue
			}
			if !r.complete || r.q == nil || r.cancelled || r.err != nil || !r.out.OK {
				t.Fatalf("slot %d: result %+v, want verified OK on a query of its own", i, r)
			}
		}
	}
}

// TestPoolCancelMidDrain cancels the search context halfway through a
// batch's inline prefix, so the whole batch is dispatched to workers that
// already see the cancellation. Every dispatched slot must still come back
// — as a real outcome or as a cancellation — in index alignment, and
// close() must not deadlock on the drained queue.
func TestPoolCancelMidDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := poolSearch(ctx, 3)
	defer s.close()

	parent, opts := poolOptions(48)
	begun := 0
	s.needVerify = func(complete bool) bool {
		if begun++; begun == len(opts)/2 {
			cancel()
		}
		return complete
	}
	results := s.verifyBatch(parent, false, opts)

	sawCancelled := false
	for i, r := range results {
		switch {
		case i%2 == 1:
			// incomplete: not verified
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
	parent, opts = poolOptions(12)
	for i, r := range s.verifyBatch(parent, false, opts) {
		if i%2 == 0 && !r.cancelled {
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

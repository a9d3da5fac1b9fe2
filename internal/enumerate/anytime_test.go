package enumerate

// Anytime-result properties: a search cut short by cancellation or deadline
// expiry returns the candidates verified so far as a deterministic prefix of
// what the untruncated run would have produced, with Truncated set — and the
// search's own bounds (MaxStates, MaxCandidates, emit stop) are NOT
// truncations.

import (
	"context"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/verify"
)

// anytimeTask is the shared fixture: a literal-bearing search whose
// untruncated run produces a healthy stream of ranked candidates.
func anytimeTask(t *testing.T) (run func(ctx context.Context, emit func(Candidate) bool) *Result) {
	t.Helper()
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	return func(ctx context.Context, emit func(Candidate) bool) *Result {
		v := verify.New(db, semrules.Default(), sketch, lits)
		e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 20})
		res, err := e.Enumerate(ctx, "movies before 1995", lits, emit)
		if err != nil {
			t.Fatalf("enumerate: %v", err)
		}
		return res
	}
}

func canonicals(res *Result) []string {
	out := make([]string, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = c.Query.Canonical()
	}
	return out
}

// requirePrefix fails unless got is an exact ranked prefix of ref.
func requirePrefix(t *testing.T, ref, got []string, label string) {
	t.Helper()
	if len(got) > len(ref) {
		t.Fatalf("%s: %d candidates, reference has %d", label, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: candidate %d diverges from reference:\n got %s\nwant %s",
				label, i+1, got[i], ref[i])
		}
	}
}

// TestCancelMidSearchTruncatedPrefix cancels the context from inside emit at
// every possible candidate rank and checks, deterministically, that the
// anytime result is a prefix of the untruncated run containing at least the
// candidates emitted before the cancel.
func TestCancelMidSearchTruncatedPrefix(t *testing.T) {
	run := anytimeTask(t)
	ref := run(context.Background(), nil)
	if len(ref.Candidates) < 3 {
		t.Fatalf("reference run found only %d candidates", len(ref.Candidates))
	}
	refC := canonicals(ref)
	sawTruncated := false
	for k := 1; k < len(refC); k++ {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		res := run(ctx, func(Candidate) bool {
			n++
			if n == k {
				cancel()
			}
			return true
		})
		cancel()
		requirePrefix(t, refC, canonicals(res), "cancel")
		if len(res.Candidates) < k {
			t.Fatalf("cancel at rank %d: only %d candidates returned", k, len(res.Candidates))
		}
		// The cancel is noticed at the next checkpoint, so the same
		// expansion may legally emit a few more candidates first; but the
		// run must either be truncated or have reached the same natural
		// stopping point as the reference.
		if res.Truncated {
			sawTruncated = true
		} else if len(res.Candidates) != len(refC) {
			t.Fatalf("cancel at rank %d: %d candidates, neither truncated nor complete (%d)",
				k, len(res.Candidates), len(refC))
		}
		if res.Exhausted && res.Truncated {
			t.Fatalf("cancel at rank %d: both Exhausted and Truncated", k)
		}
	}
	if !sawTruncated {
		t.Fatal("no cancellation point produced a Truncated result")
	}
}

// TestDeadlineExpiryAnytimePrefix drives wall-clock deadlines through the
// context, the way the service layer's per-request budgets arrive. Wherever
// the deadline lands, the result must be err-free and a prefix of the
// untruncated run.
func TestDeadlineExpiryAnytimePrefix(t *testing.T) {
	run := anytimeTask(t)
	refC := canonicals(run(context.Background(), nil))
	for _, budget := range []time.Duration{100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res := run(ctx, nil)
		cancel()
		requirePrefix(t, refC, canonicals(res), budget.String())
		if !res.Truncated && len(res.Candidates) != len(refC) {
			t.Fatalf("budget %v: %d candidates, neither truncated nor complete (%d)",
				budget, len(res.Candidates), len(refC))
		}
	}
}

// TestCancelRacesScan cancels from a timer goroutine at a spread of delays,
// so the cancellation lands mid-scan, mid-verification and between states;
// run under -race this is the data-race gate for the cancellation paths. The
// anytime prefix property must hold at every cancellation point.
func TestCancelRacesScan(t *testing.T) {
	run := anytimeTask(t)
	refC := canonicals(run(context.Background(), nil))
	for i := 0; i < 24; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(i) * 37 * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		res := run(ctx, nil)
		timer.Stop()
		cancel()
		requirePrefix(t, refC, canonicals(res), "race")
		if !res.Truncated && len(res.Candidates) != len(refC) {
			t.Fatalf("iteration %d: %d candidates, neither truncated nor complete (%d)",
				i, len(res.Candidates), len(refC))
		}
	}
}

// TestBoundsAreNotTruncations: stopping at the search's own configured
// bounds is a complete answer, not an anytime degradation.
func TestBoundsAreNotTruncations(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)

	res, err := New(db, guidance.NewLexicalModel(), v, Options{MaxStates: 50}).
		Enumerate(context.Background(), "movies", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("MaxStates stop marked Truncated")
	}

	res, err = New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 2}).
		Enumerate(context.Background(), "movie titles", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("MaxCandidates stop marked Truncated")
	}

	count := 0
	res, err = New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 20}).
		Enumerate(context.Background(), "movie titles", nil, func(Candidate) bool {
			count++
			return count < 2
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("emit stop marked Truncated")
	}
}

package service

import (
	"context"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// An expired deadline is an anytime result, not an error: the request
// returns promptly with the candidates verified so far, Truncated set, and
// the cancel-to-return gap lands in the stats. Each request's context holds
// its first executor poll — inside a memo's computation — until its 10 ms
// deadline passes (see faultCtx), so each request expires inside a probe
// however fast the machine is, and must unwind from there for the gap to
// stay under its bound. Only that poll can end a request early, so a
// truncated request is one whose deadline fired there.
func TestRequestDeadlineAnytimeResult(t *testing.T) {
	const n, deadline, bound = 10, 10 * time.Millisecond, 50 * time.Millisecond
	e := newTestEngine(t, Config{MaxCandidates: 50})
	s, _ := e.Session("movies")
	// The first candidate needs join probes (see
	// TestNewEpochSnapshotNeverWaitsForAProbeInFlight).
	in := Input{
		NLQ:      "names of actors starring in Forrest Gump",
		Literals: []sqlir.Value{sqlir.NewText("Forrest Gump")},
		Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Tom Hanks"))}}},
	}
	for i := 0; i < n; i++ {
		res, err := s.Synthesize(holdAt(1, deadline), in)
		if err != nil {
			t.Fatalf("request %d: deadline expiry must not be an error: %v", i, err)
		}
		if !res.Truncated {
			t.Errorf("request %d: expired request not flagged Truncated", i)
		}
	}
	st := e.Stats().Databases[0]
	t.Logf("cancel-to-return p50 %v, p99 %v", st.CancelP50, st.CancelP99)
	if st.Truncated != n {
		t.Errorf("Truncated counter = %d, want %d", st.Truncated, n)
	}
	if st.CancelReturns != n {
		t.Errorf("CancelReturns = %d, want %d", st.CancelReturns, n)
	}
	if st.CancelP99 > bound {
		t.Errorf("cancel-to-return p99 = %v, want <= %v (p50 %v)", st.CancelP99, bound, st.CancelP50)
	}
	if st.Interrupted != 0 {
		t.Errorf("Interrupted = %d, want 0 (deadline, not disconnect)", st.Interrupted)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

// A request's own Deadline bounds it, and its expiry is accounted as a
// deadline, not a disconnect.
func TestInputDeadlineApplied(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("movies")
	in := moviesInput()
	in.Deadline = time.Nanosecond
	res, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("request past its own Deadline not truncated")
	}
	if st := e.Stats().Databases[0]; st.CancelReturns != 1 || st.Interrupted != 0 {
		t.Errorf("CancelReturns = %d, Interrupted = %d, want 1 and 0", st.CancelReturns, st.Interrupted)
	}
}

// DefaultDeadline applies to requests that do not carry their own budget,
// and its expiry is accounted like any other deadline's.
func TestDefaultDeadlineApplied(t *testing.T) {
	e := newTestEngine(t, Config{DefaultDeadline: time.Nanosecond})
	s, _ := e.Session("movies")
	res, err := s.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("request under DefaultDeadline not truncated")
	}
	if st := e.Stats().Databases[0]; st.CancelReturns != 1 {
		t.Errorf("CancelReturns = %d, want 1", st.CancelReturns)
	}
}

// MaxDeadline clamps both over-asking requests and requests that ask for no
// deadline at all.
func TestMaxDeadlineClamp(t *testing.T) {
	e := newTestEngine(t, Config{MaxDeadline: time.Nanosecond})
	s, _ := e.Session("movies")

	in := moviesInput()
	in.Deadline = time.Hour
	res, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("over-asking request not clamped to MaxDeadline")
	}

	res, err = s.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("no-deadline request not clamped to MaxDeadline")
	}
}

// A caller-cancelled request counts as an interruption, distinct from
// deadline truncations.
func TestClientCancelCountsInterrupted(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("movies")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Synthesize(ctx, moviesInput())
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if !res.Truncated {
		t.Error("cancelled request not flagged Truncated")
	}
	st := e.Stats().Databases[0]
	if st.Interrupted != 1 {
		t.Errorf("Interrupted = %d, want 1", st.Interrupted)
	}
	if st.CancelReturns != 1 {
		t.Errorf("CancelReturns = %d, want 1", st.CancelReturns)
	}
}

// A request that finishes within its deadline is a plain success: no
// truncation, no cancel accounting.
func TestDeadlineNotReachedIsClean(t *testing.T) {
	e := newTestEngine(t, Config{MaxCandidates: 5})
	s, _ := e.Session("movies")
	in := moviesInput()
	in.Deadline = time.Minute
	res, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("in-budget request flagged Truncated")
	}
	if len(res.Candidates) == 0 {
		t.Error("no candidates")
	}
	st := e.Stats().Databases[0]
	if st.CancelReturns != 0 || st.Truncated != 0 || st.Interrupted != 0 {
		t.Errorf("clean request left cancel accounting: %+v", st)
	}
}

// A context that fires after a complete search cut nothing short, so the
// request is neither truncated nor counted as a cancel-return or an
// interruption. "names of authors" with a sketch holding no tuple makes no
// executor poll, so a context due to fire at its first Err poll could fire
// only if the stats asked it after the search had finished.
func TestContextFiringAfterSearchIsNotACancel(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("mas")
	res, err := s.Synthesize(cancelAt(1), Input{
		NLQ:    "names of authors",
		Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("a search no poll cut short is flagged Truncated")
	}
	for _, st := range e.Stats().Databases {
		if st.Database != "mas" {
			continue
		}
		if st.Truncated != 0 || st.CancelReturns != 0 || st.Interrupted != 0 {
			t.Errorf("Truncated = %d, CancelReturns = %d, Interrupted = %d, want 0, 0 and 0",
				st.Truncated, st.CancelReturns, st.Interrupted)
		}
		return
	}
	t.Fatal("no stats for mas")
}

package service

import (
	"context"
	"testing"
	"time"
)

// An expired per-request deadline is an anytime result, not an error: the
// request returns promptly with the candidates verified so far, Truncated
// set, and the cancel-to-return gap lands in the stats.
func TestRequestDeadlineAnytimeResult(t *testing.T) {
	e := newTestEngine(t, Config{MaxCandidates: 50})
	s, _ := e.Session("movies")
	in := moviesInput()
	in.Deadline = time.Nanosecond
	start := time.Now()
	res, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatalf("deadline expiry must not be an error: %v", err)
	}
	if !res.Truncated {
		t.Error("expired request not flagged Truncated")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("expired request took %v to return", el)
	}
	st := e.Stats().Databases[0]
	if st.Truncated != 1 {
		t.Errorf("Truncated counter = %d, want 1", st.Truncated)
	}
	if st.CancelReturns != 1 {
		t.Errorf("CancelReturns = %d, want 1", st.CancelReturns)
	}
	if st.Interrupted != 0 {
		t.Errorf("Interrupted = %d, want 0 (deadline, not disconnect)", st.Interrupted)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

// DefaultDeadline applies to requests that do not carry their own budget.
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
	e := newTestEngine(t, Config{Budget: 2 * time.Second, MaxCandidates: 5})
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

package duoquest_test

import (
	"context"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
)

// TestSessionIterativeRefinement walks the Figure 1 loop: an ambiguous NLQ
// yields several candidates; adding an example tuple from the fact bank
// narrows them; the desired query surfaces.
func TestSessionIterativeRefinement(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 10
	syn := duoquest.New(db, cfg)
	sess := syn.NewSession(duoquest.Input{
		NLQ:      "movies before 1995",
		Literals: []duoquest.Value{duoquest.Number(1995)},
	})
	if err := sess.SetTypes(duoquest.TypeText); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Candidates)
	if before == 0 {
		t.Fatal("no candidates in first round")
	}

	// Refine: the user knows Forrest Gump belongs in the answer.
	if err := sess.AddTuple(duoquest.Tuple{duoquest.Exact(duoquest.Text("Forrest Gump"))}); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates after refinement")
	}
	if len(res.Candidates) > before {
		t.Errorf("refinement should not widen the list: %d -> %d", before, len(res.Candidates))
	}
	gold, _ := duoquest.ParseSQL(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	if res.Candidates[0].Query.Canonical() != gold.Canonical() {
		t.Errorf("top after refinement = %s", res.Candidates[0].Query)
	}
}

func TestSessionRejectFiltersCandidate(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 5
	syn := duoquest.New(db, cfg)
	sess := syn.NewSession(duoquest.Input{NLQ: "movie titles"})
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) < 2 {
		t.Skip("need at least two candidates")
	}
	rejectedSQL := res.Candidates[0].Query.Canonical()
	if err := sess.Reject(1); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Query.Canonical() == rejectedSQL {
			t.Error("rejected candidate reappeared")
		}
	}
	// Ranks are re-numbered contiguously.
	for i, c := range res.Candidates {
		if c.Rank != i+1 {
			t.Errorf("rank %d at position %d", c.Rank, i)
		}
	}
}

func TestSessionAcceptFromPreview(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 5
	syn := duoquest.New(db, cfg)
	sess := syn.NewSession(duoquest.Input{NLQ: "movie titles"})
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.AcceptFromPreview(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Input().Sketch.Tuples); got != 1 {
		t.Errorf("sketch tuples = %d", got)
	}
	// The accepted example constrains the next round.
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Error("no candidates after accepting an example")
	}
}

func TestSessionErrors(t *testing.T) {
	db := movieDB(t)
	syn := duoquest.New(db, duoquest.DefaultConfig())
	sess := syn.NewSession(duoquest.Input{NLQ: "movies"})
	if err := sess.Reject(1); err == nil {
		t.Error("reject before Run should error")
	}
	if err := sess.AcceptFromPreview(context.Background(), 1, 0); err == nil {
		t.Error("accept before Run should error")
	}
	if err := sess.AddTuple(duoquest.Tuple{duoquest.Exact(duoquest.Text("a")), duoquest.Exact(duoquest.Text("b"))}); err != nil {
		t.Fatal(err)
	}
	// A ragged second tuple is rejected by validation.
	if err := sess.AddTuple(duoquest.Tuple{duoquest.Exact(duoquest.Text("c"))}); err == nil {
		t.Error("ragged tuple should fail validation")
	}
}

func TestSessionRephrase(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 1 * time.Second
	cfg.MaxCandidates = 3
	syn := duoquest.New(db, cfg)
	sess := syn.NewSession(duoquest.Input{NLQ: "stuff"})
	sess.Rephrase("titles of movies", nil)
	if sess.Input().NLQ != "titles of movies" {
		t.Error("rephrase did not apply")
	}
	sess.SetSorted(true)
	if !sess.Input().Sketch.Sorted {
		t.Error("sorted flag not applied")
	}
}

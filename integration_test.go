package duoquest_test

// End-to-end integration: the full public-API pipeline on a generated
// benchmark database — schema validation, autocomplete-driven literal
// tagging, TSQ construction from known rows, synthesis, soundness, and
// execution-equality with the task's gold query.

import (
	"context"
	"testing"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

// TestEndToEndOnGeneratedBenchmark runs the dual-specification flow on the
// first few tasks of every difficulty from one generated database.
func TestEndToEndOnGeneratedBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	bench := dataset.SpiderDev()
	picked := map[dataset.Difficulty]*dataset.Task{}
	for _, task := range bench.Tasks {
		if task.DB != bench.Databases[0] {
			continue
		}
		if _, ok := picked[task.Difficulty]; !ok {
			picked[task.Difficulty] = task
		}
	}
	if len(picked) != 3 {
		t.Fatalf("picked %d difficulties", len(picked))
	}
	for diff, task := range picked {
		cfg := duoquest.DefaultConfig()
		cfg.MaxCandidates = 10
		syn := duoquest.New(task.DB, cfg)
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 99)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		res, err := syn.Synthesize(context.Background(), duoquest.Input{
			NLQ:      task.NLQ,
			Literals: task.Literals,
			Sketch:   sketch,
		})
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if len(res.Candidates) == 0 {
			t.Errorf("%s (%s): no candidates", task.ID, diff)
			continue
		}
		// Soundness on every candidate.
		for _, c := range res.Candidates {
			rs, err := duoquest.Execute(task.DB, c.Query)
			if err != nil {
				t.Fatalf("%s: exec candidate: %v", task.ID, err)
			}
			if !sketch.Satisfies(rs) {
				t.Errorf("%s: unsound candidate %s", task.ID, c.Query)
			}
		}
		// The gold query is among the top candidates.
		found := false
		for _, c := range res.Candidates {
			if c.Query.Canonical() == task.Gold.Canonical() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s (%s): gold not in top %d\n  gold: %s",
				task.ID, diff, len(res.Candidates), task.Gold)
		}
	}
}

// TestEndToEndAutocompleteToSynthesis drives the literal-tagging workflow:
// find a value through autocomplete, tag it, and synthesize with it.
func TestEndToEndAutocompleteToSynthesis(t *testing.T) {
	db := dataset.MAS()
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 5
	syn := duoquest.New(db, cfg)
	hits := syn.Autocomplete("Datab", 3)
	if len(hits) == 0 || hits[0].Value != "Databases" {
		t.Fatalf("autocomplete hits = %v", hits)
	}
	res, err := syn.Synthesize(context.Background(), duoquest.Input{
		NLQ:      "List authors in domain " + hits[0].Value,
		Literals: []duoquest.Value{duoquest.Text(hits[0].Value)},
		Sketch:   &duoquest.TSQ{Types: []duoquest.Type{duoquest.TypeText}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	// The tagged literal appears in the top candidate's predicates.
	lits := res.Candidates[0].Query.Literals()
	found := false
	for _, l := range lits {
		if l.Equal(duoquest.Text("Databases")) {
			found = true
		}
	}
	if !found {
		t.Errorf("tagged literal unused in %s", res.Candidates[0].Query)
	}
}

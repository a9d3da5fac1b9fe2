// Academic: runs the paper's Appendix A user-study tasks on the synthetic
// Microsoft Academic Search database through the public API, showing the
// dual-specification flow for expressive queries with grouping, HAVING, and
// ordering.
//
// Run with: go run ./examples/academic
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

func main() {
	tasks, _ := dataset.MASTasks()
	// Run the three hardest NLI-study tasks: grouped counts with HAVING.
	want := map[string]bool{"A4": true, "B3": true, "B4": true}

	for _, task := range tasks {
		if !want[task.ID] {
			continue
		}
		fmt.Printf("=== Task %s [%s] ===\n%s\n", task.ID, task.Difficulty, task.NLQ)

		// Build the sketch as a study user would: two known facts from the
		// task's fact bank, plus the expected column types.
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sketch: %s\n", sketch)

		cfg := duoquest.DefaultConfig()
		cfg.DefaultDeadline = 3 * time.Second
		cfg.MaxCandidates = 3
		syn := duoquest.New(task.DB, cfg)
		res, err := syn.Synthesize(context.Background(), duoquest.Input{
			NLQ:      task.NLQ,
			Literals: task.Literals,
			Sketch:   sketch,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range res.Candidates {
			match := ""
			if c.Query.Canonical() == task.Gold.Canonical() {
				match = "   <-- desired query"
			}
			fmt.Printf("  #%d %s%s\n", c.Rank, c.Query, match)
		}
		fmt.Printf("(%d states, %v)\n\n", res.States, res.Elapsed.Round(time.Millisecond))
	}
}

// Ablation: the §5.4.3 comparison on one task — full GPQE vs NoPQ (no
// partial-query pruning, i.e. the naïve chaining approach of §3.5) vs
// NoGuide (breadth-first enumeration ignoring confidence scores).
//
// Run with: go run ./examples/ablation
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
	var task *dataset.Task
	for _, t := range tasks {
		if t.ID == "A3" { // grouped count per Michigan author
			task = t
		}
	}
	sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Task %s: %s\nGold: %s\n\n", task.ID, task.NLQ, task.SQL)

	for _, mode := range []duoquest.Mode{duoquest.ModeGPQE, duoquest.ModeNoPQ, duoquest.ModeNoGuide} {
		cfg := duoquest.DefaultConfig()
		cfg.Mode = mode
		cfg.DefaultDeadline = 2 * time.Second
		cfg.MaxCandidates = 200
		syn := duoquest.New(task.DB, cfg)
		start := time.Now()
		rank, states := 0, 0
		res, err := syn.SynthesizeStream(context.Background(), duoquest.Input{
			NLQ:      task.NLQ,
			Literals: task.Literals,
			Sketch:   sketch,
		}, func(c duoquest.Candidate) bool {
			if c.Query.Canonical() == task.Gold.Canonical() {
				rank = c.Rank
				return false
			}
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		states = res.States
		if rank > 0 {
			fmt.Printf("%-8s found the desired query at rank %d after %d states in %v\n",
				mode, rank, states, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Printf("%-8s did NOT find the desired query within budget (%d states, %d candidates)\n",
				mode, states, len(res.Candidates))
		}
	}
}

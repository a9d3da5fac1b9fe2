// Autocomplete: the literal-tagging workflow of the paper's front end (§4).
// Typing a double-quote in the search bar queries a master inverted column
// index over every text column; the selected completion becomes a tagged
// literal for the NLQ and can prefill TSQ cells.
//
// Run with: go run ./examples/autocomplete
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
	db := dataset.MAS()
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 2 * time.Second
	cfg.MaxCandidates = 3
	syn := duoquest.New(db, cfg)

	// The user types: List all publications in conference "SIG...
	for _, prefix := range []string{"SIG", "sigm", "univ", "alice"} {
		fmt.Printf("complete(%q):\n", prefix)
		for _, hit := range syn.Autocomplete(prefix, 5) {
			fmt.Printf("  %-30s (%s.%s)\n", hit.Value, hit.Table, hit.Column)
		}
	}

	// The first completion is tagged as a literal and the query issued.
	input := duoquest.Input{
		NLQ:      `List all publications in conference SIGMOD`,
		Literals: []duoquest.Value{duoquest.Text("SIGMOD")},
		Sketch: &duoquest.TSQ{
			Types: []duoquest.Type{duoquest.TypeText},
		},
	}
	res, err := syn.Synthesize(context.Background(), input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNLQ: %s\n", input.NLQ)
	for _, c := range res.Candidates {
		fmt.Printf("  #%d %s\n", c.Rank, c.Query)
	}
}

// Quickstart: build a tiny database, issue a dual-specification query
// (NLQ + table sketch query), and print the ranked candidate SQL.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	duoquest "github.com/duoquest/duoquest"
)

func main() {
	// 1. Define a schema: cities with populations.
	city := duoquest.NewTable("city", "cid",
		duoquest.Column{Name: "cid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "name", Type: duoquest.TypeText},
		duoquest.Column{Name: "country", Type: duoquest.TypeText},
		duoquest.Column{Name: "population", Type: duoquest.TypeNumber},
	)
	schema := duoquest.NewSchema(city)
	if err := schema.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. Load data.
	rows := []struct {
		name, country string
		pop           float64
	}{
		{"Springfield", "Freedonia", 120000},
		{"Riverton", "Freedonia", 80000},
		{"Lakewood", "Genovia", 250000},
		{"Fairview", "Genovia", 42000},
		{"Georgetown", "Sylvania", 310000},
	}
	for i, r := range rows {
		city.MustInsert(duoquest.Number(float64(i+1)), duoquest.Text(r.name),
			duoquest.Text(r.country), duoquest.Number(r.pop))
	}
	db := duoquest.NewDatabase("world", schema)

	// 3. Ask in natural language, with one example tuple as a sketch: the
	// user remembers Lakewood should be in the answer.
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 2 * time.Second
	cfg.MaxCandidates = 5
	syn := duoquest.New(db, cfg)
	input := duoquest.Input{
		NLQ:      "names of cities with population over 100000",
		Literals: []duoquest.Value{duoquest.Number(100000)},
		Sketch: &duoquest.TSQ{
			Types:  []duoquest.Type{duoquest.TypeText},
			Tuples: []duoquest.Tuple{{duoquest.Exact(duoquest.Text("Lakewood"))}},
		},
	}
	res, err := syn.Synthesize(context.Background(), input)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Print ranked candidates with previews.
	fmt.Printf("NLQ: %s\n\n", input.NLQ)
	for _, c := range res.Candidates {
		fmt.Printf("#%d (confidence %.3f): %s\n", c.Rank, c.Confidence, c.Query)
		preview, err := syn.Preview(context.Background(), c.Query, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range preview.Rows {
			fmt.Printf("    %v\n", row[0].Display())
		}
	}
	fmt.Printf("\nexplored %d states in %v\n", res.States, res.Elapsed.Round(time.Millisecond))
}

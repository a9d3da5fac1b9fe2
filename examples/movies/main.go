// Movies: the paper's §2 motivating example, end to end.
//
// Kevin issues an ambiguous NLQ about movies "from before 1995, and those
// after 2000". Without a sketch, the interpretation is ambiguous (CQ1, CQ2,
// CQ3 in the paper all read plausibly). With his two-fact table sketch query
// (Table 2) — Tom Hanks in Forrest Gump before 1995, Sandra Bullock in
// Gravity between 2010 and 2017 — Duoquest prunes the wrong readings and
// returns the intended query.
//
// Run with: go run ./examples/movies
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	duoquest "github.com/duoquest/duoquest"
)

func buildDB() *duoquest.Database {
	actor := duoquest.NewTable("actor", "aid",
		duoquest.Column{Name: "aid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "name", Type: duoquest.TypeText},
		duoquest.Column{Name: "gender", Type: duoquest.TypeText},
		duoquest.Column{Name: "birth_yr", Type: duoquest.TypeNumber},
	)
	movie := duoquest.NewTable("movie", "mid",
		duoquest.Column{Name: "mid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "title", Type: duoquest.TypeText},
		duoquest.Column{Name: "year", Type: duoquest.TypeNumber},
	)
	starring := duoquest.NewTable("starring", "sid",
		duoquest.Column{Name: "sid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "aid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "mid", Type: duoquest.TypeNumber},
	)
	schema := duoquest.NewSchema(actor, movie, starring)
	schema.AddForeignKey("starring", "aid", "actor", "aid")
	schema.AddForeignKey("starring", "mid", "movie", "mid")

	type a struct {
		name, gender string
		birth        float64
	}
	actors := []a{
		{"Tom Hanks", "male", 1956},
		{"Sandra Bullock", "female", 1964},
		{"Brad Pitt", "male", 1963},
		{"Meryl Streep", "female", 1949},
	}
	for i, x := range actors {
		actor.MustInsert(duoquest.Number(float64(i+1)), duoquest.Text(x.name),
			duoquest.Text(x.gender), duoquest.Number(x.birth))
	}
	type m struct {
		title string
		year  float64
	}
	movies := []m{
		{"Forrest Gump", 1994},
		{"Gravity", 2013},
		{"Fight Club", 1999},
		{"Cast Away", 2000},
		{"The Post", 2017},
	}
	for i, x := range movies {
		movie.MustInsert(duoquest.Number(float64(i+1)), duoquest.Text(x.title), duoquest.Number(x.year))
	}
	links := [][2]float64{{1, 1}, {2, 2}, {3, 3}, {1, 4}, {4, 5}}
	for i, l := range links {
		starring.MustInsert(duoquest.Number(float64(i+1)), duoquest.Number(l[0]), duoquest.Number(l[1]))
	}
	return duoquest.NewDatabase("movies", schema)
}

func main() {
	db := buildDB()
	nlq := "Show titles of movies starring actors from before 1995, and those after 2000, with actor names and years, from earliest to most recent"
	literals := []duoquest.Value{duoquest.Number(1995), duoquest.Number(2000)}

	// Kevin's table sketch query (Table 2 in the paper): three columns
	// (text, text, number); Forrest Gump / Tom Hanks with an unknown year,
	// Gravity / Sandra Bullock somewhere in 2010-2017; output sorted.
	sketch := &duoquest.TSQ{
		Types: []duoquest.Type{duoquest.TypeText, duoquest.TypeText, duoquest.TypeNumber},
		Tuples: []duoquest.Tuple{
			{duoquest.Exact(duoquest.Text("Forrest Gump")), duoquest.Exact(duoquest.Text("Tom Hanks")), duoquest.Empty()},
			{duoquest.Exact(duoquest.Text("Gravity")), duoquest.Exact(duoquest.Text("Sandra Bullock")), duoquest.Range(2010, 2017)},
		},
		Sorted: true,
	}

	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 5 * time.Second
	cfg.MaxCandidates = 5
	syn := duoquest.New(db, cfg)

	fmt.Println("=== NLQ only (the NLI experience) ===")
	res, err := syn.Synthesize(context.Background(), duoquest.Input{NLQ: nlq, Literals: literals})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Candidates {
		fmt.Printf("  #%d %s\n", c.Rank, c.Query)
	}

	fmt.Println("\n=== NLQ + TSQ (dual specification) ===")
	res, err = syn.Synthesize(context.Background(), duoquest.Input{
		NLQ: nlq, Literals: literals, Sketch: sketch,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Candidates {
		fmt.Printf("  #%d %s\n", c.Rank, c.Query)
		preview, err := syn.Preview(context.Background(), c.Query, 5)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range preview.Rows {
			fmt.Printf("      %s | %s | %s\n", row[0].Display(), row[1].Display(), row[2].Display())
		}
	}
}

package duoquest_test

import (
	"context"
	"strings"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
)

// movieDB builds the paper's §2 movie database through the public API.
func movieDB(t *testing.T) *duoquest.Database {
	t.Helper()
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
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}

	actor.MustInsert(duoquest.Number(1), duoquest.Text("Tom Hanks"), duoquest.Text("male"), duoquest.Number(1956))
	actor.MustInsert(duoquest.Number(2), duoquest.Text("Sandra Bullock"), duoquest.Text("female"), duoquest.Number(1964))
	actor.MustInsert(duoquest.Number(3), duoquest.Text("Brad Pitt"), duoquest.Text("male"), duoquest.Number(1963))
	movie.MustInsert(duoquest.Number(1), duoquest.Text("Forrest Gump"), duoquest.Number(1994))
	movie.MustInsert(duoquest.Number(2), duoquest.Text("Gravity"), duoquest.Number(2013))
	movie.MustInsert(duoquest.Number(3), duoquest.Text("Fight Club"), duoquest.Number(1999))
	starring.MustInsert(duoquest.Number(1), duoquest.Number(1), duoquest.Number(1))
	starring.MustInsert(duoquest.Number(2), duoquest.Number(2), duoquest.Number(2))
	starring.MustInsert(duoquest.Number(3), duoquest.Number(3), duoquest.Number(3))

	return duoquest.NewDatabase("movies", schema)
}

func TestSynthesizeDualSpecification(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 3 * time.Second
	cfg.MaxCandidates = 20
	syn := duoquest.New(db, cfg)
	res, err := syn.Synthesize(context.Background(), duoquest.Input{
		NLQ:      "titles of movies before 1995",
		Literals: []duoquest.Value{duoquest.Number(1995)},
		Sketch: &duoquest.TSQ{
			Types:  []duoquest.Type{duoquest.TypeText},
			Tuples: []duoquest.Tuple{{duoquest.Exact(duoquest.Text("Forrest Gump"))}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	top := res.Candidates[0]
	want, err := duoquest.ParseSQL(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	if err != nil {
		t.Fatal(err)
	}
	if top.Query.Canonical() != want.Canonical() {
		t.Errorf("top candidate = %s", top.Query)
	}
	// Soundness: every candidate's result contains Forrest Gump.
	for _, c := range res.Candidates {
		rs, err := duoquest.Execute(db, c.Query)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range rs.Rows {
			if row[0].Equal(duoquest.Text("Forrest Gump")) {
				found = true
			}
		}
		if !found {
			t.Errorf("unsound candidate: %s", c.Query)
		}
	}
}

func TestSynthesizeNLQOnly(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 10
	syn := duoquest.New(db, cfg)
	res, err := syn.Synthesize(context.Background(), duoquest.Input{NLQ: "all movie titles"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates without a sketch")
	}
}

func TestSynthesizeStreamStops(t *testing.T) {
	db := movieDB(t)
	cfg := duoquest.DefaultConfig()
	syn := duoquest.New(db, cfg)
	n := 0
	_, err := syn.SynthesizeStream(context.Background(), duoquest.Input{NLQ: "movie titles"},
		func(c duoquest.Candidate) bool {
			n++
			return false
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("emit calls = %d", n)
	}
}

func TestInvalidSketchRejected(t *testing.T) {
	db := movieDB(t)
	syn := duoquest.New(db, duoquest.DefaultConfig())
	_, err := syn.Synthesize(context.Background(), duoquest.Input{
		NLQ:    "movies",
		Sketch: &duoquest.TSQ{Limit: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("invalid sketch should be rejected: %v", err)
	}
}

func TestAutocomplete(t *testing.T) {
	db := movieDB(t)
	syn := duoquest.New(db, duoquest.DefaultConfig())
	hits := syn.Autocomplete("gump", 5)
	if len(hits) != 1 || hits[0].Value != "Forrest Gump" {
		t.Errorf("hits = %v", hits)
	}
	hits = syn.Autocomplete("tom", 5)
	if len(hits) == 0 || hits[0].Table != "actor" {
		t.Errorf("hits = %v", hits)
	}
}

func TestPreview(t *testing.T) {
	db := movieDB(t)
	syn := duoquest.New(db, duoquest.DefaultConfig())
	q, err := duoquest.ParseSQL(db.Schema, "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Preview(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("preview rows = %d", len(res.Rows))
	}
}

func TestModesExposed(t *testing.T) {
	db := movieDB(t)
	for _, mode := range []duoquest.Mode{duoquest.ModeGPQE, duoquest.ModeNoPQ, duoquest.ModeNoGuide} {
		cfg := duoquest.DefaultConfig()
		cfg.Mode = mode
		cfg.DefaultDeadline = 500 * time.Millisecond
		cfg.MaxCandidates = 5
		cfg.MaxStates = 20000
		syn := duoquest.New(db, cfg)
		if _, err := syn.Synthesize(context.Background(), duoquest.Input{NLQ: "movie titles"}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestDefaultRulesExposed(t *testing.T) {
	if duoquest.DefaultRules().Len() == 0 {
		t.Error("default rules empty")
	}
}

package nli

import (
	"context"
	"testing"

	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

func testDB() *storage.Database {
	movie := storage.NewTable("movie", "mid",
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "year", Type: sqlir.TypeNumber},
	)
	movie.MustInsert(sqlir.NewInt(1), sqlir.NewText("Forrest Gump"), sqlir.NewInt(1994))
	movie.MustInsert(sqlir.NewInt(2), sqlir.NewText("Gravity"), sqlir.NewInt(2013))
	return storage.NewDatabase("m", storage.NewSchema(movie))
}

func TestNLISynthesizeRankedList(t *testing.T) {
	db := testDB()
	sys := New(db)
	res, err := sys.Synthesize(context.Background(), "movie titles", nil,
		Options{MaxCandidates: 10, MaxStates: 20000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie")
	if !sqlir.Equivalent(res.Candidates[0].Query, gold) {
		t.Errorf("top candidate = %s", res.Candidates[0].Query)
	}
}

// TestNLIIsUnsound: without a TSQ, the NLI can return candidates that would
// violate a sketch — the soundness gap of Table 1.
func TestNLIIsUnsound(t *testing.T) {
	db := testDB()
	sys := New(db)
	sketch := &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Forrest Gump"))}}}
	res, err := sys.Synthesize(context.Background(), "movies before 1995",
		[]sqlir.Value{sqlir.NewInt(1995)},
		Options{MaxCandidates: 30, MaxStates: 20000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for _, c := range res.Candidates {
		r, err := sqlexec.Execute(db, c.Query)
		if err != nil {
			continue
		}
		if !sketch.Satisfies(r) {
			violations++
		}
	}
	if violations == 0 {
		t.Error("expected at least one candidate violating the sketch")
	}
}

func TestNLIEmitStops(t *testing.T) {
	db := testDB()
	sys := NewWithModel(db, guidance.NewLexicalModel())
	n := 0
	_, err := sys.Synthesize(context.Background(), "titles", nil,
		Options{MaxStates: 20000}, func(c enumerate.Candidate) bool {
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

// TestNLIHonorsLiterals: candidates must use every tagged literal.
func TestNLIHonorsLiterals(t *testing.T) {
	db := testDB()
	sys := New(db)
	res, err := sys.Synthesize(context.Background(), "movies before 1995",
		[]sqlir.Value{sqlir.NewInt(1995)},
		Options{MaxCandidates: 20, MaxStates: 20000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		found := false
		for _, lit := range c.Query.Literals() {
			if lit.Equal(sqlir.NewInt(1995)) {
				found = true
			}
		}
		if !found {
			t.Errorf("candidate ignores tagged literal: %s", c.Query)
		}
	}
}

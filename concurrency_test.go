package duoquest_test

import (
	"context"
	"sync"
	"testing"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

// One Synthesizer, many goroutines: Autocomplete (lazy shared index),
// Synthesize (shared verification caches), and Preview (shared join cache)
// must be free of data races — CI runs this under -race. This covers the
// former s.idx lazy-build race between Autocomplete and everything else.
func TestSynthesizerConcurrentUse(t *testing.T) {
	db := dataset.Movies()
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 3
	syn := duoquest.New(db, cfg)
	in := duoquest.Input{
		NLQ:      "titles of movies before 1995",
		Literals: []duoquest.Value{duoquest.Number(1995)},
		Sketch: &duoquest.TSQ{
			Types:  []duoquest.Type{duoquest.TypeText},
			Tuples: []duoquest.Tuple{{duoquest.Exact(duoquest.Text("Forrest Gump"))}},
		},
	}
	q, err := duoquest.ParseSQL(db.Schema, "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if hits := syn.Autocomplete("fo", 5); len(hits) == 0 {
					t.Error("no autocomplete hits")
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := syn.Synthesize(context.Background(), in)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Candidates) == 0 {
				t.Error("no candidates")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := syn.Preview(context.Background(), q, 2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := syn.Stats()
	if len(st.Databases) != 1 || st.Databases[0].Requests != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Databases[0].AutocompleteSize == 0 {
		t.Error("shared autocomplete index not built")
	}
}

// The multi-database Engine is reachable through the public API: a second
// database registered on a Synthesizer's engine serves its own sessions.
func TestPublicEngineMultiDB(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	syn := duoquest.New(dataset.Movies(), cfg)
	if err := syn.Engine().Register(dataset.MAS()); err != nil {
		t.Fatal(err)
	}
	ses, err := syn.Engine().Session("mas")
	if err != nil {
		t.Fatal(err)
	}
	if hits := ses.Autocomplete("SIG", 3); len(hits) == 0 {
		t.Error("no MAS autocomplete hits")
	}
	st := syn.Stats()
	if len(st.Databases) != 2 {
		t.Errorf("engine databases = %d, want 2", len(st.Databases))
	}
}

package enumerate

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

func text(s string) sqlir.Value { return sqlir.NewText(s) }
func num(f float64) sqlir.Value { return sqlir.NewNumber(f) }

func movieDB() *storage.Database {
	actor := storage.NewTable("actor", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "gender", Type: sqlir.TypeText},
		storage.Column{Name: "birth_yr", Type: sqlir.TypeNumber},
	)
	movie := storage.NewTable("movie", "mid",
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "year", Type: sqlir.TypeNumber},
		storage.Column{Name: "revenue", Type: sqlir.TypeNumber},
	)
	starring := storage.NewTable("starring", "sid",
		storage.Column{Name: "sid", Type: sqlir.TypeNumber},
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(actor, movie, starring)
	s.AddForeignKey("starring", "aid", "actor", "aid")
	s.AddForeignKey("starring", "mid", "movie", "mid")

	actor.MustInsert(num(1), text("Tom Hanks"), text("male"), num(1956))
	actor.MustInsert(num(2), text("Sandra Bullock"), text("female"), num(1964))
	actor.MustInsert(num(3), text("Brad Pitt"), text("male"), num(1963))

	movie.MustInsert(num(1), text("Forrest Gump"), num(1994), num(678))
	movie.MustInsert(num(2), text("Gravity"), num(2013), num(723))
	movie.MustInsert(num(3), text("Fight Club"), num(1999), num(101))
	movie.MustInsert(num(4), text("Cast Away"), num(2000), num(429))

	starring.MustInsert(num(1), num(1), num(1))
	starring.MustInsert(num(2), num(2), num(2))
	starring.MustInsert(num(3), num(3), num(3))
	starring.MustInsert(num(4), num(1), num(4))

	return storage.NewDatabase("movies", s)
}

// synthTSQ builds a Full TSQ from the gold query's result (§5.4.1): type
// annotations, up to two example tuples, τ and k from the gold query.
func synthTSQ(t *testing.T, db *storage.Database, gold *sqlir.Query) *tsq.TSQ {
	t.Helper()
	res, err := sqlexec.Execute(db, gold)
	if err != nil {
		t.Fatalf("gold exec: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("gold query has empty result")
	}
	sk := &tsq.TSQ{
		Types:  res.Types,
		Sorted: gold.OrderByState == sqlir.ClausePresent,
		Limit:  gold.Limit,
	}
	for i := 0; i < len(res.Rows) && i < 2; i++ {
		var tp tsq.Tuple
		for _, v := range res.Rows[i] {
			tp = append(tp, tsq.Exact(v))
		}
		sk.Tuples = append(sk.Tuples, tp)
	}
	return sk
}

// runTask enumerates with the given model/sketch and returns the rank of the
// gold query (0 = not found).
func runTask(t *testing.T, db *storage.Database, model guidance.Model, sketch *tsq.TSQ,
	nlq string, lits []sqlir.Value, gold *sqlir.Query, mode Mode) (int, *Result) {
	t.Helper()
	v := verify.New(db, semrules.Default(), sketch, lits)
	e := New(db, model, v, Options{Mode: mode, MaxCandidates: 100})
	goldRank := 0
	res, err := e.Enumerate(context.Background(), nlq, lits, func(c Candidate) bool {
		if goldRank == 0 && sqlir.Equivalent(c.Query, gold) {
			goldRank = c.Rank
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	return goldRank, res
}

// TestOracleFindsGoldImmediately: with a zero-noise oracle, GPQE must emit
// the gold query at rank 1 for a variety of query shapes (completeness +
// ordering sanity).
func TestOracleFindsGoldImmediately(t *testing.T) {
	db := movieDB()
	tasks := []struct {
		nlq  string
		sql  string
		lits []sqlir.Value
	}{
		{"all movie titles", "SELECT title FROM movie", nil},
		{"how many movies are there", "SELECT COUNT(*) FROM movie", nil},
		{"titles of movies before 1995", "SELECT title FROM movie WHERE year < 1995", []sqlir.Value{num(1995)}},
		{"titles and years ordered by year", "SELECT title, year FROM movie ORDER BY year ASC", nil},
		{"movies before 1995 or after 2000",
			"SELECT title FROM movie WHERE year < 1995 OR year > 2000", []sqlir.Value{num(1995), num(2000)}},
		{"actors and number of movies each",
			"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON s.aid = a.aid GROUP BY a.name", nil},
		{"actors with more than 1 movie",
			"SELECT a.name FROM actor a JOIN starring s ON s.aid = a.aid GROUP BY a.name HAVING COUNT(*) > 1",
			[]sqlir.Value{num(1)}},
		{"top 2 movies by revenue",
			"SELECT title FROM movie ORDER BY revenue DESC LIMIT 2", []sqlir.Value{num(2)}},
		{"names of actors in Gravity",
			"SELECT a.name FROM actor a JOIN starring s ON s.aid = a.aid JOIN movie m ON s.mid = m.mid WHERE m.title = 'Gravity'",
			[]sqlir.Value{text("Gravity")}},
	}
	for _, task := range tasks {
		gold := sqlparse.MustParse(db.Schema, task.sql)
		sketch := synthTSQ(t, db, gold)
		model := guidance.NewOracleModel(gold, 0)
		rank, res := runTask(t, db, model, sketch, task.nlq, task.lits, gold, ModeGPQE)
		if rank != 1 {
			t.Errorf("%q: gold rank = %d (states=%d, candidates=%d), want 1",
				task.sql, rank, res.States, len(res.Candidates))
		}
	}
}

// TestSoundness: every emitted candidate satisfies the TSQ (the soundness
// guarantee of Table 1).
func TestSoundness(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title, year FROM movie WHERE year > 2000")
	sketch := synthTSQ(t, db, gold)
	v := verify.New(db, semrules.Default(), sketch, []sqlir.Value{num(2000)})
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 50})
	res, err := e.Enumerate(context.Background(), "movies after 2000 with their years",
		[]sqlir.Value{num(2000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range res.Candidates {
		r, err := sqlexec.Execute(db, c.Query)
		if err != nil {
			t.Fatalf("candidate %s: %v", c.Query, err)
		}
		if !sketch.Satisfies(r) {
			t.Errorf("unsound candidate emitted: %s", c.Query)
		}
	}
}

// TestTSQPrunesVsNLI: the dual-specification run must rank the gold query at
// least as high as the NLQ-only run, and typically strictly higher — the
// core claim of the paper.
func TestTSQPrunesVsNLI(t *testing.T) {
	db := movieDB()
	tasks := []struct {
		nlq  string
		sql  string
		lits []sqlir.Value
	}{
		{"show movies and actors and years from before 1995 and after 2000 from earliest to most recent",
			"SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON s.aid = a.aid JOIN movie m ON s.mid = m.mid " +
				"WHERE m.year < 1995 OR m.year > 2000 ORDER BY m.year ASC",
			[]sqlir.Value{num(1995), num(2000)}},
		{"names of movies before 1995",
			"SELECT title FROM movie WHERE year < 1995", []sqlir.Value{num(1995)}},
	}
	for _, task := range tasks {
		gold := sqlparse.MustParse(db.Schema, task.sql)
		sketch := synthTSQ(t, db, gold)
		model := guidance.NewLexicalModel()
		dqRank, _ := runTask(t, db, model, sketch, task.nlq, task.lits, gold, ModeGPQE)
		nliRank, _ := runTask(t, db, model, nil, task.nlq, task.lits, gold, ModeGPQE)
		if dqRank == 0 {
			t.Errorf("%q: Duoquest did not find gold", task.sql)
			continue
		}
		if nliRank != 0 && dqRank > nliRank {
			t.Errorf("%q: Duoquest rank %d worse than NLI rank %d", task.sql, dqRank, nliRank)
		}
	}
}

// TestDeterminism: two identical runs produce identical candidate lists.
func TestDeterminism(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	run := func() []string {
		v := verify.New(db, semrules.Default(), sketch, lits)
		e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 20})
		res, err := e.Enumerate(context.Background(), "movies before 1995", lits, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range res.Candidates {
			out = append(out, c.Query.Canonical())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("candidate %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestConfidenceMonotone: under GPQE (best-first on the product confidence),
// emitted candidates are in non-increasing confidence order.
func TestConfidenceMonotone(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	v := verify.New(db, semrules.Default(), sketch, lits)
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 25})
	res, err := e.Enumerate(context.Background(), "movies before 1995", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Confidence > res.Candidates[i-1].Confidence+1e-12 {
			t.Errorf("confidence increased at rank %d: %v > %v",
				i+1, res.Candidates[i].Confidence, res.Candidates[i-1].Confidence)
		}
	}
}

// TestNoPQExploresMoreStates: without partial pruning, reaching the gold
// query costs at least as many states.
func TestNoPQExploresMoreStates(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema,
		"SELECT m.title, a.name FROM actor a JOIN starring s ON s.aid = a.aid JOIN movie m ON s.mid = m.mid WHERE m.year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	model := guidance.NewLexicalModel()
	_, gp := runTask(t, db, model, sketch, "movies and actor names before 1995", lits, gold, ModeGPQE)
	_, np := runTask(t, db, model, sketch, "movies and actor names before 1995", lits, gold, ModeNoPQ)
	if np.States < gp.States {
		t.Errorf("NoPQ states %d < GPQE states %d", np.States, gp.States)
	}
}

// TestNoGuideFindsGold: NoGuide explores the same space in BFS order, so it
// still finds a shallow gold query — just without confidence ranking.
func TestNoGuideFindsGold(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title, year FROM movie")
	sketch := synthTSQ(t, db, gold)
	rank, _ := runTask(t, db, guidance.NewLexicalModel(), sketch, "movie titles and years", nil, gold, ModeNoGuide)
	if rank == 0 {
		t.Error("NoGuide should still find the gold query")
	}
}

// TestNoGuideDrownsOnDeepQueries: for a literal-bearing task the BFS order
// floods the candidate list with shallow spurious queries before the gold
// one — the behaviour Figure 12 measures. The guided run finds gold within
// the same candidate budget.
func TestNoGuideDrownsOnDeepQueries(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	guidedRank, _ := runTask(t, db, guidance.NewLexicalModel(), sketch, "movies before 1995", lits, gold, ModeGPQE)
	bfsRank, _ := runTask(t, db, guidance.NewLexicalModel(), sketch, "movies before 1995", lits, gold, ModeNoGuide)
	if guidedRank == 0 {
		t.Fatal("guided run should find gold")
	}
	if bfsRank != 0 && bfsRank <= guidedRank {
		t.Errorf("NoGuide rank %d should trail guided rank %d", bfsRank, guidedRank)
	}
}

// TestContextCancellation stops the search.
func TestContextCancellation(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Enumerate(ctx, "movies", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.States > 1 {
		t.Errorf("cancelled run explored %d states", res.States)
	}
}

// TestSearchRunsOnCallersGoroutine: a search starts no goroutine, whatever
// Workers says. A TSQ search that does database work sees, at every
// emission, no more goroutines than there were before Enumerate began.
func TestSearchRunsOnCallersGoroutine(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	v := verify.New(db, semrules.Default(), sketch, lits)
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 5, Workers: 8})
	before := runtime.NumGoroutine()
	emitted := 0
	_, err := e.Enumerate(context.Background(), "movies before 1995", lits, func(Candidate) bool {
		emitted++
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("candidate %d: %d goroutines inside emit, %d before Enumerate", emitted, n, before)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); emitted == 0 || st.DBQueries == 0 {
		t.Fatalf("%d candidates after %d database queries: the search must do both", emitted, st.DBQueries)
	}
}

// TestSharedVerifierConcurrentEnumerations: distinct enumerators sharing one
// verifier (and thus one memo cache) may run concurrently, as requests that
// share a verify.Cache do, so hammer its memos and counters from several full
// searches at once. Run with -race to make this a data-race test.
func TestSharedVerifierConcurrentEnumerations(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995)}
	v := verify.New(db, semrules.Default(), sketch, lits)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 20})
			if _, err := e.Enumerate(context.Background(), "movies before 1995", lits, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := v.Stats(); st.Checked == 0 {
		t.Error("verifier saw no checks")
	}
}

// TestMaxStatesCap bounds exploration.
func TestMaxStatesCap(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxStates: 50})
	res, err := e.Enumerate(context.Background(), "movies", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.States > 50 {
		t.Errorf("states = %d exceeds cap", res.States)
	}
}

// TestBoundedFrontierIsTheSameSearch: a search capped at MaxStates is the
// uncapped search up to its cap — its candidates are the uncapped run's up
// to the cap, state counts included — and does not claim to have exhausted
// a space whose queue it left unemptied. Stopping at the cap is a return
// like any other: the result says how long the search took.
func TestBoundedFrontierIsTheSameSearch(t *testing.T) {
	db := movieDB()
	run := func(maxStates int) *Result {
		v := verify.New(db, semrules.Default(), nil, nil)
		e := New(db, guidance.NewLexicalModel(), v, Options{MaxStates: maxStates})
		res, err := e.Enumerate(context.Background(), "titles of movies and their years", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const limit = 700
	capped, free := run(limit), run(50*limit)
	if capped.States != limit || capped.Exhausted || capped.Truncated {
		t.Fatalf("capped run: %d states, exhausted %v, truncated %v; want the cap reached, neither flag", capped.States, capped.Exhausted, capped.Truncated)
	}
	if capped.Elapsed <= 0 {
		t.Errorf("capped run of %d states took %v", capped.States, capped.Elapsed)
	}
	var want []Candidate
	for _, c := range free.Candidates {
		if c.States <= limit {
			want = append(want, c)
		}
	}
	if len(want) == 0 || len(want) == len(free.Candidates) {
		t.Fatalf("%d of the uncapped run's %d candidates fall under the cap; the comparison needs some, not all", len(want), len(free.Candidates))
	}
	if len(capped.Candidates) != len(want) {
		t.Fatalf("capped run emitted %d candidates, the uncapped run %d by state %d", len(capped.Candidates), len(want), limit)
	}
	for i, c := range capped.Candidates {
		w := want[i]
		if c.Query.Canonical() != w.Query.Canonical() || c.Confidence != w.Confidence || c.Rank != w.Rank || c.States != w.States {
			t.Errorf("candidate %d: capped %s (conf %v, state %d), uncapped %s (conf %v, state %d)",
				i, c.Query, c.Confidence, c.States, w.Query, w.Confidence, w.States)
		}
	}
}

// TestCappedSearchRetention: the frontier keeps every child a search
// queues, and the store the query of every state it expands, so what a
// capped search retains is bounded by what it expanded. On every benchmark
// Spider task, with its TSQ and without, at the benchmark's cap, the walk
// accounts for both after every expansion: the frontier holds the states
// queued — the root and each child with holes left — less those popped; its
// slots in use are those states and the one being expanded, and every slot
// it handed out is in use or free; a popped state's slot is handed back
// when it fails or once its expansion is over, and freed slots are taken
// before new ones, so the slots never exceed 1 + the most states queued at
// once. The store holds one query per state expanded. The search itself
// expands as many states, hands out as many slots and keeps as many
// queries. Exhausted says whether the queue emptied: always when the search
// ends under its cap, and never for a search cut at its cap with states
// still queued — checked on a tiny table too, whose uncapped search drains
// its queue.
func TestCappedSearchRetention(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	type peak struct {
		keys, slots, keptBytes int
		id                     string
	}
	largest := map[bool]*peak{true: {}, false: {}}
	for i, st := range spiderTasks(t) {
		if i%stride != 0 {
			continue
		}
		for _, dual := range []bool{true, false} {
			var sketch *tsq.TSQ
			if dual {
				sketch = st.sketch
			}
			id := modeName(dual) + " " + st.ID
			expanded, used := 0, 0
			t.Run(id, func(t *testing.T) {
				in := walkInput{st.ID, st.DB, guidance.NewLexicalModel(), sketch, st.NLQ, st.Literals}
				queued, failed, most := 1, 0, 1 // the root is queued
				free := 0                       // slots free after the last expansion's pushes
				walk(t, in, sketch, ModeGPQE, spiderMaxStates, observer{
					settled: func(x settlement) {
						// Past the cap the walk checks what is still queued
						// as a step of its own: those states are not popped.
						if !x.out.OK && expanded < spiderMaxStates {
							failed++
							free++
						}
					},
					expanded: func(x expansion) {
						expanded, used = expanded+1, x.queue.used
						pushed := 0
						for _, r := range x.results {
							if !r.complete {
								pushed++
							}
						}
						queued += pushed
						most = max(most, x.queue.len())
						// The slots handed back since the last expansion's
						// pushes — its own, and those of the states that
						// failed since — are taken first.
						wantFree := max(0, free-pushed)
						free = len(x.queue.free)
						if x.queue.len() != queued-expanded-failed || used != x.queue.len()+1+free || free != wantFree {
							t.Fatalf("after %d expansions, %d states queued and %d failed: the frontier holds %d in %d slots, %d free (want %d)",
								expanded, queued, failed, x.queue.len(), used, free, wantFree)
						}
						if used > 1+most {
							t.Fatalf("%d slots handed out after %d expansions, at most %d states queued at once", used, expanded, most)
						}
						if n := keptQueries(x.kept); n != expanded {
							t.Fatalf("%d queries kept after %d expansions", n, expanded)
						}
						if p := largest[dual]; x.queue.len() > p.keys {
							p.keys, p.slots, p.id = x.queue.len(), used, st.ID
						}
						if p := largest[dual]; keptBytes(x.kept) > p.keptBytes {
							p.keptBytes = keptBytes(x.kept)
						}
						free++ // the walk hands the expanded state's slot back
					},
				})
			})
			v := verify.New(st.DB, semrules.Default(), sketch, st.Literals)
			s := New(st.DB, guidance.NewLexicalModel(), v, Options{MaxStates: spiderMaxStates}).newSearch(context.Background(), st.NLQ, st.Literals)
			res, err := s.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.States != expanded || s.queue.used != used || keptQueries(s.kept) != res.States {
				t.Errorf("%s: the search expanded %d states into %d slots, keeping %d queries; the walk %d into %d",
					id, res.States, s.queue.used, keptQueries(s.kept), expanded, used)
			}
			if emptied := s.queue.len() == 0; res.Exhausted != emptied || !emptied && res.States < spiderMaxStates {
				t.Errorf("%s: %d states, %d still queued, exhausted %v", id, res.States, s.queue.len(), res.Exhausted)
			}
			s.close()
		}
	}
	for _, dual := range []bool{true, false} {
		p := largest[dual]
		t.Logf("%s: largest frontier %d queued states (%d slots, %.2f MB at 96 B a slot), %s; largest store of kept queries %.2f MB",
			modeName(dual), p.keys, p.slots, float64(p.slots*96)/(1<<20), p.id, float64(p.keptBytes)/(1<<20))
	}

	items := storage.NewTable("items", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "label", Type: sqlir.TypeText},
		storage.Column{Name: "price", Type: sqlir.TypeNumber},
	)
	items.MustInsert(num(1), text("a"), num(5))
	items.MustInsert(num(2), text("b"), num(7))
	items.MustInsert(num(3), text("a"), num(9))
	tiny := storage.NewDatabase("tiny", storage.NewSchema(items))
	run := func(maxStates int) *Result {
		v := verify.New(tiny, semrules.Default(), &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}}, nil)
		res, err := New(tiny, guidance.NewLexicalModel(), v, Options{MaxStates: maxStates}).Enumerate(context.Background(), "labels", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	if !free.Exhausted || len(free.Candidates) == 0 || free.States < 2 {
		t.Fatalf("the uncapped search of the tiny table: %d states, exhausted %v, %d candidates; want it exhausted with some", free.States, free.Exhausted, len(free.Candidates))
	}
	if capped := run(free.States / 2); capped.States != free.States/2 || capped.Exhausted || capped.Truncated {
		t.Errorf("the tiny table's search capped at %d: %d states, exhausted %v, truncated %v; want the cap reached, neither flag", free.States/2, capped.States, capped.Exhausted, capped.Truncated)
	}
}

// arrival is what a test pushes: a state and the rest of its key.
type arrival struct {
	logConf float64
	depth   int32
	joinLen int16
	seq     int
}

// push queues a as a state whose decision carries a's seq, so a popped
// state says which arrival it is.
func (a *arrival) push(f *frontier) {
	f.push(state{dec: sqlir.Decision{Index: int32(a.seq)}, logConf: a.logConf, depth: a.depth}, int(a.joinLen), a.seq)
}

func (a *arrival) key(f *frontier) key {
	st := state{logConf: a.logConf, depth: a.depth}
	return f.key(&st, int(a.joinLen), a.seq)
}

// is reports whether the popped st is a, field for field.
func (a *arrival) is(st *state) bool {
	return st.dec.Index == int32(a.seq) && st.depth == a.depth &&
		(st.logConf == a.logConf || math.IsInf(st.logConf, -1) && math.IsInf(a.logConf, -1))
}

// entryLess is the order the frontier kept before it moved keys, when it
// compared whole queued entries field by field.
func entryLess(f *frontier, a, b *arrival) bool {
	if f.noGuide {
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.seq < b.seq
	}
	priority := func(e *arrival) float64 {
		if f.geoMean && e.depth > 0 {
			return e.logConf / float64(e.depth)
		}
		return e.logConf
	}
	pa, pb := priority(a), priority(b)
	if pa != pb {
		return pa > pb
	}
	if a.joinLen != b.joinLen {
		return a.joinLen < b.joinLen
	}
	return a.seq < b.seq
}

// TestFrontierOrderIsTheEntryOrder: with pushes, pops and discards
// interleaved at random the way a search makes them — a pop, then the
// pushes of its expansion, if any, then its slot handed back; or a pop
// whose state fails, its slot handed back at once, and the next pop with no
// push between — in every ordering mode, the frontier pops the states a
// sort by the entry comparator says it should, each as it was pushed,
// whether its slot was fresh or handed back and whether its key filled the
// hole a pop left or was sifted up from the bottom. Now and then the
// frontier is released with a hole open and used again from empty.
// Confidences tie often and include −Inf.
func TestFrontierOrderIsTheEntryOrder(t *testing.T) {
	ops := 200000
	if testing.Short() {
		ops = 20000
	}
	rng := rand.New(rand.NewSource(11))
	for _, f := range []*frontier{{}, {geoMean: true}, {noGuide: true}} {
		var held []arrival // what the frontier holds, sorted by entryLess
		seq, pops, popAfterPop, intoHole, reused, releases := 0, 0, 0, 0, 0, 0
		push := func() {
			seq++
			a := arrival{logConf: -float64(rng.Intn(12)) / 4, depth: int32(rng.Intn(8)), joinLen: int16(rng.Intn(4)), seq: seq}
			if rng.Intn(10) == 0 {
				a.logConf = math.Inf(-1)
			}
			i := sort.Search(len(held), func(i int) bool { return entryLess(f, &a, &held[i]) })
			held = slices.Insert(held, i, a)
			if len(f.free) > 0 {
				reused++
			}
			if f.hole {
				intoHole++
			}
			a.push(f)
		}
		for range ops {
			if len(held) == 0 {
				push() // a search's root
				continue
			}
			if f.hole {
				popAfterPop++
			}
			got := f.pop()
			if !held[0].is(got) {
				t.Fatalf("pop %d: %+v, want %+v", pops, *got, held[0])
			}
			held = held[1:]
			pops++
			if rng.Intn(3) == 0 {
				f.discard(got) // it failed its cascade
			} else {
				for range rng.Intn(4) { // its expansion's children with holes left
					push()
				}
				f.discard(got) // its expansion is over
			}
			if f.hole && rng.Intn(1000) == 0 {
				f.release() // a search stopped between a pop and its pushes
				if f.len() != 0 || f.hole || f.used != 0 {
					t.Fatalf("released with a hole open, the frontier holds %d states in %d slots, hole %v", f.len(), f.used, f.hole)
				}
				held = nil
				releases++
			}
			if f.len() != len(held) {
				t.Fatalf("the frontier holds %d states, the entry order %d", f.len(), len(held))
			}
		}
		for len(held) > 0 {
			got := f.pop()
			if !held[0].is(got) {
				t.Fatalf("pop %d: %+v, want %+v", pops, *got, held[0])
			}
			held = held[1:]
			f.discard(got)
		}
		if pops == 0 || popAfterPop == 0 || intoHole == 0 || reused == 0 || releases == 0 {
			t.Fatalf("%d pops, %d after a pop, %d pushes into a hole, %d into handed-back slots, %d releases: the test is not exercising the frontier",
				pops, popAfterPop, intoHole, reused, releases)
		}
		f.release()
	}
}

// TestFrontierRecyclesChunks: closing a search zeroes every slot its
// frontier used — queued, popped and discarded — its key slice and its free
// list, and every query its store kept, so no state or query of a search,
// nor the guidance output its decisions point into, outlives its request in
// the pools; and the next frontier of the same peak takes its chunks, its
// key slice and its free list from the pools: what it still allocates is
// its list of chunk pointers, not one chunk.
func TestFrontierRecyclesChunks(t *testing.T) {
	db := movieDB()
	e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), nil, nil), Options{})
	base := &sqlir.Query{KWSet: true}
	const peak = 3*chunkLen + 5
	fill := func(f *frontier) {
		push := func(i int) {
			f.push(state{base: base, dec: sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 1}, logConf: -float64(i % 7)}, 1, i)
		}
		for i := range peak {
			push(i)
		}
		for range peak / 2 {
			f.discard(f.pop()) // it failed its cascade
		}
		for i := range peak / 8 {
			push(peak + i) // into slots the discards freed
		}
	}

	s := e.newSearch(context.Background(), "titles", nil)
	fill(&s.queue)
	if len(s.queue.free) == 0 {
		t.Fatal("the pushes used every slot the discards freed")
	}
	kept := s.kept.keep(s.replay(s.queue.pop()), nil)
	kept = s.kept.keep(s.cur.Apply(kept, sqlir.Decision{Kind: sqlir.DecideKeywords, Where: true}), kept)
	kept = s.kept.keep(s.cur.Apply(kept, sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 2}), kept)
	chunks, keys, free := s.queue.chunks, s.queue.keys[:cap(s.queue.keys)], s.queue.free[:cap(s.queue.free)]
	headers, sel := s.kept.headers.chunks[0], s.kept.sel.chunks[0]
	s.close()
	for ci, c := range chunks {
		for i := range c {
			if c[i] != (state{}) {
				t.Fatalf("chunk %d slot %d still holds %+v after close", ci, i, c[i])
			}
		}
	}
	for i, k := range keys {
		if k != (key{}) {
			t.Fatalf("key %d still holds %+v after close", i, k)
		}
	}
	for i, n := range free {
		if n != nil {
			t.Fatalf("free list entry %d still holds a slot after close", i)
		}
	}
	if !reflect.ValueOf(*headers).IsZero() || *sel != ([slabLen]sqlir.SelectItem{}) {
		t.Fatalf("the store still holds %s after close", kept)
	}

	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of what it is given")
	}
	var list []*[chunkLen]state
	growths := 0
	for range chunks {
		if len(list) == cap(list) {
			growths++
		}
		list = append(list, nil)
	}
	n := testing.AllocsPerRun(20, func() {
		var f frontier
		fill(&f)
		f.release()
	})
	if n > float64(growths) {
		t.Errorf("a frontier of %d chunks cost %.0f allocations, want at most the %d of its chunk list", len(chunks), n, growths)
	}
}

// TestSearchStateSizes pins the structs a search writes or moves per state:
// the query header every replay and every child in the scratch copies, the
// state written once into a frontier slot and the key the heap moves.
// DESIGN.md §14 ("A decision is data", "What a search state is") accounts
// for every field; a field added here belongs in that account.
func TestSearchStateSizes(t *testing.T) {
	if n := reflect.TypeFor[sqlir.Query]().Size(); n > 128 {
		t.Errorf("sqlir.Query is %d bytes, over 128: see DESIGN.md §14 on what the search-state header holds", n)
	}
	if n := reflect.TypeFor[state]().Size(); n > 72 {
		t.Errorf("enumerate.state is %d bytes, over 72: see DESIGN.md §14 on what a search state is", n)
	}
	if n := reflect.TypeFor[key]().Size(); n > 24 {
		t.Errorf("enumerate.key is %d bytes, over 24: see DESIGN.md §14 on what a search state is", n)
	}
}

// TestEmitStop: returning false from emit stops the search.
func TestEmitStop(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{})
	count := 0
	res, err := e.Enumerate(context.Background(), "movie titles", nil, func(c Candidate) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 || len(res.Candidates) != 3 {
		t.Errorf("count = %d, candidates = %d", count, len(res.Candidates))
	}
}

// TestCandidatesDeduped: no two emitted candidates are canonically equal.
func TestCandidatesDeduped(t *testing.T) {
	db := movieDB()
	gold := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995 OR year > 2000")
	sketch := synthTSQ(t, db, gold)
	lits := []sqlir.Value{num(1995), num(2000)}
	v := verify.New(db, semrules.Default(), sketch, lits)
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 30})
	res, err := e.Enumerate(context.Background(), "movies before 1995 or after 2000", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range res.Candidates {
		k := c.Query.Canonical()
		if seen[k] {
			t.Errorf("duplicate candidate: %s", k)
		}
		seen[k] = true
	}
}

// TestExhaustiveSmallSpace: a tightly constrained TSQ on a tiny schema lets
// the enumerator exhaust the space.
func TestExhaustiveSmallSpace(t *testing.T) {
	items := storage.NewTable("items", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "label", Type: sqlir.TypeText},
	)
	items.MustInsert(num(1), text("a"))
	items.MustInsert(num(2), text("b"))
	db := storage.NewDatabase("tiny", storage.NewSchema(items))
	sketch := &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}}
	v := verify.New(db, semrules.Default(), sketch, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{})
	res, err := e.Enumerate(context.Background(), "labels", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Errorf("small space should be exhausted (states=%d)", res.States)
	}
	if len(res.Candidates) == 0 {
		t.Error("no candidates found")
	}
}

// TestModeString names.
func TestModeString(t *testing.T) {
	if ModeGPQE.String() != "GPQE" || ModeNoPQ.String() != "NoPQ" || ModeNoGuide.String() != "NoGuide" {
		t.Error("mode names")
	}
}

// keptQueries is the number of queries k holds.
func keptQueries(k *store) int { return max(0, k.headers.n-1)*slabLen + k.headers.off }

// keptBytes is what k's pieces in use weigh, the tails of chunks that did
// not fit a run included.
func keptBytes(k *store) int {
	return slabBytes(&k.headers) + slabBytes(&k.sel) + slabBytes(&k.preds) +
		slabBytes(&k.groupBy) + slabBytes(&k.having) + slabBytes(&k.orderBy)
}

func slabBytes[T any](s *slab[T]) int {
	return (max(0, s.n-1)*slabLen + s.off) * int(reflect.TypeFor[T]().Size())
}

package enumerate

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

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

// TestBoundedFrontierIsTheSameSearch: under a MaxStates cap the frontier
// drops what can no longer be popped. The capped search must expand exactly
// the states an unbounded frontier would — its candidates are the uncapped
// run's up to the cap, state counts included — and must not claim to have
// exhausted a space it threw part of away. Stopping at the cap is a return
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

// TestBoundsKeepTheStatesThatPass: a queued state owes its cascade until it
// is popped, so a bound that must keep the k best states that pass settles
// the owing states among the best, removes those that fail, and repeats
// over the shortfall. On dual inputs whose bounds remove failing states —
// Spider tasks with their full TSQ, and a table small enough to exhaust —
// every capped search is the uncapped one up to its cap, Result for Result:
// the same candidates, confidences, ranks and state counts; the cap
// reached, neither flag set, when the uncapped search went past it; and
// the whole uncapped Result, Exhausted included, when the cap is exactly
// the state count of an uncapped search that exhausted the space.
func TestBoundsKeepTheStatesThatPass(t *testing.T) {
	items := storage.NewTable("items", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "label", Type: sqlir.TypeText},
		storage.Column{Name: "price", Type: sqlir.TypeNumber},
	)
	items.MustInsert(num(1), text("a"), num(5))
	items.MustInsert(num(2), text("b"), num(7))
	items.MustInsert(num(3), text("a"), num(9))
	tiny := storage.NewDatabase("tiny", storage.NewSchema(items))
	type input struct {
		id     string
		db     *storage.Database
		sketch *tsq.TSQ
		nlq    string
		lits   []sqlir.Value
		caps   []int // fractions of the uncapped state count, in percent
	}
	ins := []input{{"tiny", tiny, &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}}, "labels", nil, []int{100, 99, 30}}}
	stride := 6
	if testing.Short() {
		stride = 24
	}
	for i, st := range spiderTasks(t) {
		if i%stride == 0 {
			ins = append(ins, input{st.ID, st.DB, st.sketch, st.NLQ, st.Literals, []int{50, 10}})
		}
	}
	removed := 0
	for _, in := range ins {
		run := func(maxStates int) *Result {
			v := verify.New(in.db, semrules.Default(), in.sketch, in.lits)
			s := New(in.db, guidance.NewLexicalModel(), v, Options{MaxStates: maxStates}).newSearch(context.Background(), in.nlq, in.lits)
			defer s.close()
			res, err := s.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			removed += s.queue.failed
			return res
		}
		free := run(20000)
		for _, pct := range in.caps {
			limit := max(1, free.States*pct/100)
			capped := run(limit)
			want := &Result{States: limit}
			if limit == free.States {
				want.Exhausted = free.Exhausted
			}
			for _, c := range free.Candidates {
				if c.States <= limit {
					want.Candidates = append(want.Candidates, c)
				}
			}
			if capped.States != want.States || capped.Exhausted != want.Exhausted || capped.Truncated || len(capped.Candidates) != len(want.Candidates) {
				t.Fatalf("%s capped at %d of %d states: %d states, exhausted %v, truncated %v, %d candidates; want %d, %v, false, %d",
					in.id, limit, free.States, capped.States, capped.Exhausted, capped.Truncated, len(capped.Candidates),
					want.States, want.Exhausted, len(want.Candidates))
			}
			for i, c := range capped.Candidates {
				w := want.Candidates[i]
				if c.Query.Canonical() != w.Query.Canonical() || c.Confidence != w.Confidence || c.Rank != w.Rank || c.States != w.States {
					t.Errorf("%s capped at %d, candidate %d: %s (conf %v, state %d), uncapped %s (conf %v, state %d)",
						in.id, limit, i, c.Query, c.Confidence, c.States, w.Query, w.Confidence, w.States)
				}
			}
		}
		if in.db == tiny && (!free.Exhausted || len(free.Candidates) == 0) {
			t.Fatalf("%s: the uncapped search of %d states exhausted the space %v, with %d candidates; want it exhausted with some", in.id, free.States, free.Exhausted, len(free.Candidates))
		}
	}
	if removed == 0 {
		t.Fatal("no bound removed a state that fails: the test is not exercising the settling")
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

// TestFrontierBoundKeepsTheBest: after bound(k) the frontier pops exactly
// the k best states of what it held, in the order of their keys, in every
// ordering mode.
func TestFrontierBoundKeepsTheBest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []*frontier{{}, {geoMean: true}, {noGuide: true}} {
		var all []arrival
		for i := 0; i < 1000; i++ {
			a := arrival{logConf: -float64(rng.Intn(40)), seq: i, depth: int32(1 + rng.Intn(6)), joinLen: int16(rng.Intn(3))}
			all = append(all, a)
			a.push(f)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].key(f).before(all[j].key(f)) })
		f.bound(600, nil) // holds fewer than twice that: nothing to drop
		if f.len() != 1000 || f.dropped {
			t.Fatalf("bound(600) of 1000 states left %d, dropped %v", f.len(), f.dropped)
		}
		for _, k := range []int{300, 7, 1} {
			f.bound(k, nil)
			if f.len() != k || !f.dropped {
				t.Fatalf("bound(%d) left %d states, dropped %v", k, f.len(), f.dropped)
			}
			if got := f.pop(); !all[0].is(got) {
				t.Fatalf("after bound(%d) the best state is %+v, want %+v", k, *got, all[0])
			}
			all = all[1:]
		}
		if f.len() != 0 {
			t.Fatalf("%d states left", f.len())
		}
		// Popping in order after a bound: rebuild, into the slots the
		// bounds freed, and drain.
		for i := range all[:200] {
			all[i].push(f)
		}
		f.bound(50, nil)
		for i := 0; f.len() > 0; i++ {
			if got := f.pop(); !all[i].is(got) {
				t.Fatalf("pop %d after bound: %+v, want %+v", i, *got, all[i])
			}
		}
		f.release()
	}
}

// failThirds is a settler under which a state fails its cascade when its
// arrival's seq is a multiple of 3.
type failThirds struct{}

func (failThirds) settle(st *state) (bool, error) {
	ok := st.dec.Index%3 != 0
	st.owes, st.verified = false, ok
	return ok, nil
}

// TestFrontierBoundSettlesTheBest: when the states owe their cascade, a
// bound(k) keeps exactly the k best of those that pass, in the order of
// their keys, settling the ones it needs and removing those that fail, in
// every ordering mode; and it reports dropping a state that passes only
// when it did, settling the rest until one passes, so that a frontier whose
// dropped states all fail can still claim to have exhausted the space.
func TestFrontierBoundSettlesTheBest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	owing := func(f *frontier, a arrival) {
		f.push(state{dec: sqlir.Decision{Index: int32(a.seq)}, logConf: a.logConf, depth: a.depth, owes: true}, int(a.joinLen), a.seq)
	}
	for _, f := range []*frontier{{}, {geoMean: true}, {noGuide: true}} {
		var pass []arrival
		for i := 1; i <= 1000; i++ {
			a := arrival{logConf: -float64(rng.Intn(40)), seq: i, depth: int32(1 + rng.Intn(6)), joinLen: int16(rng.Intn(3))}
			owing(f, a)
			if i%3 != 0 {
				pass = append(pass, a)
			}
		}
		sort.Slice(pass, func(i, j int) bool { return pass[i].key(f).before(pass[j].key(f)) })
		f.bound(600, failThirds{})
		if f.len() != 1000 || f.failed != 0 || f.dropped {
			t.Fatalf("bound(600) of 1000 states left %d, removed %d, dropped %v", f.len(), f.failed, f.dropped)
		}
		f.bound(300, failThirds{})
		if f.len() != 300 || f.failed == 0 || !f.dropped {
			t.Fatalf("bound(300) left %d states, removed %d, dropped %v", f.len(), f.failed, f.dropped)
		}
		for i := 0; f.len() > 0; i++ {
			if got := f.pop(); !pass[i].is(got) || got.owes || !got.verified {
				t.Fatalf("pop %d after bound: %+v, want %+v, settled", i, *got, pass[i])
			}
		}
		f.release()
		f.failed, f.dropped = 0, false

		// Ten states that pass ahead of thirty that fail: the bound keeps
		// the ten and settles all thirty to learn that none passes.
		var kept []arrival
		for i := 1; i <= 40; i++ {
			a := arrival{logConf: -float64(i), seq: 3 * i, depth: int32(i)}
			if i <= 10 {
				a.seq--
				kept = append(kept, a)
			}
			owing(f, a)
		}
		f.bound(10, failThirds{})
		if f.len() != 10 || f.failed != 30 || f.dropped {
			t.Fatalf("bound(10) ahead of failures left %d states, removed %d, dropped %v; want 10, 30, false", f.len(), f.failed, f.dropped)
		}
		for i := 0; f.len() > 0; i++ {
			if got := f.pop(); !kept[i].is(got) {
				t.Fatalf("pop %d: %+v, want %+v", i, *got, kept[i])
			}
		}
		f.release()
	}
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

// TestFrontierOrderIsTheEntryOrder: with pushes, pops and bounds
// interleaved at random, in every ordering mode, the frontier pops the
// states a sort by the entry comparator says it should, each as it was
// pushed — whether its slot was fresh or one a bound freed — and drops what
// that sort puts beyond a bound. Confidences tie often and include −Inf.
func TestFrontierOrderIsTheEntryOrder(t *testing.T) {
	ops := 200000
	if testing.Short() {
		ops = 20000
	}
	rng := rand.New(rand.NewSource(11))
	for _, f := range []*frontier{{}, {geoMean: true}, {noGuide: true}} {
		var held []arrival // what the frontier holds, sorted by entryLess
		seq, pops, drops := 0, 0, 0
		pop := func() {
			if got := f.pop(); !held[0].is(got) {
				t.Fatalf("pop %d: %+v, want %+v", pops, *got, held[0])
			}
			held = held[1:]
			pops++
		}
		for range ops {
			switch r := rng.Intn(400); {
			case r < 232:
				seq++
				a := arrival{logConf: -float64(rng.Intn(12)) / 4, depth: int32(rng.Intn(8)), joinLen: int16(rng.Intn(4)), seq: seq}
				if rng.Intn(10) == 0 {
					a.logConf = math.Inf(-1)
				}
				i := sort.Search(len(held), func(i int) bool { return entryLess(f, &a, &held[i]) })
				held = slices.Insert(held, i, a)
				a.push(f)
			case r < 399:
				if len(held) > 0 {
					pop()
				}
			default:
				k := rng.Intn(len(held) + 1)
				f.bound(k, nil)
				if len(held) > 2*k {
					drops += len(held) - k
					held = held[:k]
				}
			}
			if f.len() != len(held) {
				t.Fatalf("the frontier holds %d states, the entry order %d", f.len(), len(held))
			}
		}
		for len(held) > 0 {
			pop()
		}
		if pops == 0 || drops == 0 || f.dropped != (drops > 0) {
			t.Fatalf("%d pops, %d drops, dropped %v: the test is not exercising the frontier", pops, drops, f.dropped)
		}
		f.release()
	}
}

// TestFrontierRecyclesChunks: closing a search zeroes every slot its
// frontier used — queued, popped and dropped — and its key slice, so no
// state of a search, nor the guidance output its decisions point into,
// outlives its request in the pools; and the next frontier of the same peak
// takes its chunks and its key slice from the pools: what it still
// allocates is its list of chunk pointers, not one chunk.
func TestFrontierRecyclesChunks(t *testing.T) {
	db := movieDB()
	e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), nil, nil), Options{})
	parent := &state{dec: sqlir.Decision{Kind: sqlir.DecideKeywords}}
	const peak = 3*chunkLen + 5
	fill := func(f *frontier) {
		push := func(i int) {
			f.push(state{parent: parent, dec: sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 1}, logConf: -float64(i % 7)}, 1, i)
		}
		for i := range peak {
			push(i)
		}
		for range peak / 2 {
			f.pop()
		}
		f.bound(peak/8, nil)
		for i := range peak / 8 {
			push(peak + i) // into slots the bound freed
		}
	}

	s := e.newSearch(context.Background(), "titles", nil)
	fill(&s.queue)
	if !s.queue.dropped || s.queue.free == nil {
		t.Fatal("the bound dropped nothing, or its pushes used every slot it freed")
	}
	chunks, keys := s.queue.chunks, s.queue.keys[:cap(s.queue.keys)]
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
	if n := unsafe.Sizeof(sqlir.Query{}); n > 128 {
		t.Errorf("sqlir.Query is %d bytes, over 128: see DESIGN.md §14 on what the search-state header holds", n)
	}
	if n := unsafe.Sizeof(state{}); n > 72 {
		t.Errorf("enumerate.state is %d bytes, over 72: see DESIGN.md §14 on what a search state is", n)
	}
	if n := unsafe.Sizeof(key{}); n > 24 {
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

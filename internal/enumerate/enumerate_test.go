package enumerate

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"
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
	// 30s is a ceiling, not the expected runtime: searches stop at the gold
	// query or the candidate cap (well under a second normally; the slack
	// absorbs the -race slowdown on loaded runners).
	e := New(db, model, v, Options{Mode: mode, MaxCandidates: 100, Budget: 30 * time.Second})
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
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 50, Budget: 5 * time.Second})
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
		e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 20, Budget: 5 * time.Second})
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
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 25, Budget: 5 * time.Second})
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

// TestBudgetRespected: a tiny budget terminates promptly.
func TestBudgetRespected(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{Budget: 10 * time.Millisecond})
	start := time.Now()
	_, err := e.Enumerate(context.Background(), "everything about everything", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("budget ignored")
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
// exhausted a space it threw part of away.
func TestBoundedFrontierIsTheSameSearch(t *testing.T) {
	db := movieDB()
	run := func(maxStates int) *Result {
		v := verify.New(db, semrules.Default(), nil, nil)
		e := New(db, guidance.NewLexicalModel(), v, Options{MaxStates: maxStates, Workers: 1})
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

// TestFrontierBoundKeepsTheBest: after bound(k) the frontier pops exactly
// the k best entries of what it held, in order, in every ordering mode.
func TestFrontierBoundKeepsTheBest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []*frontier{{}, {geoMean: true}, {noGuide: true}} {
		var all []entry
		for i := 0; i < 1000; i++ {
			e := entry{logConf: -float64(rng.Intn(40)), seq: i, depth: int32(1 + rng.Intn(6)), joinLen: int16(rng.Intn(3))}
			all = append(all, e)
			f.push(e)
		}
		sort.Slice(all, func(i, j int) bool { return f.less(&all[i], &all[j]) })
		f.bound(600) // holds fewer than twice that: nothing to drop
		if f.len() != 1000 || f.dropped {
			t.Fatalf("bound(600) of 1000 entries left %d, dropped %v", f.len(), f.dropped)
		}
		for _, k := range []int{300, 7, 1} {
			f.bound(k)
			if f.len() != k || !f.dropped {
				t.Fatalf("bound(%d) left %d entries, dropped %v", k, f.len(), f.dropped)
			}
			got := f.pop()
			if got.seq != all[0].seq {
				t.Fatalf("after bound(%d) the best entry is seq %d, want %d", k, got.seq, all[0].seq)
			}
			all = all[1:]
		}
		if f.len() != 0 {
			t.Fatalf("%d entries left", f.len())
		}
		// Popping in order after a bound: rebuild and drain.
		for _, e := range all[:200] {
			f.push(e)
		}
		f.bound(50)
		for i := 0; f.len() > 0; i++ {
			if got := f.pop(); got.seq != all[i].seq {
				t.Fatalf("pop %d after bound: seq %d, want %d", i, got.seq, all[i].seq)
			}
		}
	}
}

// TestFrontierRecyclesChunks: closing a search zeroes every slot of its
// frontier's chunks, so no query outlives its request in the pool, and the
// next frontier of the same peak takes its chunks from the pool: what it
// still allocates is its list of chunk pointers, not one chunk.
func TestFrontierRecyclesChunks(t *testing.T) {
	db := movieDB()
	e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), nil, nil), Options{Workers: 1})
	q := sqlir.NewQuery().Apply(sqlir.Decision{Kind: sqlir.DecideKeywords})
	const peak = 3*chunkLen + 5
	fill := func(f *frontier) {
		for i := range peak {
			f.push(entry{q: q, dec: sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 1}, logConf: -float64(i % 7), seq: i})
		}
		for range peak / 2 {
			f.pop()
		}
	}

	s := e.newSearch(context.Background(), "titles", nil)
	fill(&s.queue)
	chunks := s.queue.chunks
	s.close()
	for ci, c := range chunks {
		for i := range c {
			if c[i] != (entry{}) {
				t.Fatalf("chunk %d slot %d still holds %+v after close", ci, i, c[i])
			}
		}
	}

	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of what it is given")
	}
	var list []*[chunkLen]entry
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

// TestSearchStateSizes pins the two structs a search moves per state: the
// query header every popped state copies and the entry the frontier holds
// by value. DESIGN.md §14 ("A decision is data", "What a queue entry holds")
// accounts for every field; a field added here belongs in that account.
func TestSearchStateSizes(t *testing.T) {
	if n := unsafe.Sizeof(sqlir.Query{}); n > 128 {
		t.Errorf("sqlir.Query is %d bytes, over 128: see DESIGN.md §14 on what the search-state header holds", n)
	}
	if n := unsafe.Sizeof(entry{}); n > 80 {
		t.Errorf("enumerate.entry is %d bytes, over 80: see DESIGN.md §14 on what a queue entry holds", n)
	}
}

// TestEmitStop: returning false from emit stops the search.
func TestEmitStop(t *testing.T) {
	db := movieDB()
	v := verify.New(db, semrules.Default(), nil, nil)
	e := New(db, guidance.NewLexicalModel(), v, Options{Budget: 5 * time.Second})
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
	e := New(db, guidance.NewLexicalModel(), v, Options{MaxCandidates: 30, Budget: 5 * time.Second})
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
	e := New(db, guidance.NewLexicalModel(), v, Options{Budget: 5 * time.Second})
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

package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

func newTestEngine(t *testing.T, opts Config) *Engine {
	t.Helper()
	e := NewEngine(opts)
	if err := e.Register(dataset.Movies()); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(dataset.MAS()); err != nil {
		t.Fatal(err)
	}
	return e
}

func moviesInput() Input {
	return Input{
		NLQ:      "titles of movies before 1995",
		Literals: []sqlir.Value{sqlir.NewNumber(1995)},
		Sketch: &tsq.TSQ{
			Types:  []sqlir.Type{sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Forrest Gump"))}},
		},
	}
}

func TestRegistry(t *testing.T) {
	e := newTestEngine(t, Config{})
	if got := e.Databases(); len(got) != 2 || got[0] != "movies" || got[1] != "mas" {
		t.Errorf("Databases = %v", got)
	}
	if err := e.Register(dataset.Movies()); err == nil {
		t.Error("duplicate register should fail")
	}
	if _, ok := e.Lookup("mas"); !ok {
		t.Error("Lookup(mas) failed")
	}
	if _, err := e.Session("nope"); err == nil {
		t.Error("unknown database session should fail")
	}
}

func TestSessionSynthesize(t *testing.T) {
	e := newTestEngine(t, Config{MaxCandidates: 5})
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	st := e.Stats()
	if len(st.Databases) != 2 {
		t.Fatalf("stats databases = %d", len(st.Databases))
	}
	mov := st.Databases[0]
	if mov.Database != "movies" || mov.Requests != 1 || mov.Errors != 0 {
		t.Errorf("movies stats = %+v", mov)
	}
	if mov.Candidates != int64(len(res.Candidates)) {
		t.Errorf("candidates = %d, want %d", mov.Candidates, len(res.Candidates))
	}
	if mov.P50 <= 0 || mov.P95 < mov.P50 {
		t.Errorf("latency quantiles = %v / %v", mov.P50, mov.P95)
	}
	if st.Admitted != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("admission stats = %+v", st)
	}
}

func TestSketchValidation(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("movies")
	in := moviesInput()
	in.Sketch = &tsq.TSQ{Limit: -1}
	if _, err := s.Synthesize(context.Background(), in); err == nil {
		t.Error("invalid sketch should fail")
	}
}

// Admission control, white-box: fill every slot and the queue by hand.
func TestAdmissionControl(t *testing.T) {
	e := newTestEngine(t, Config{MaxInFlight: 2, MaxQueue: 2})

	r1, err := e.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.InFlight != 2 {
		t.Errorf("InFlight = %d, want 2", got.InFlight)
	}

	// Third request queues; it must report queue depth while waiting and
	// admit once a slot frees.
	admitted := make(chan struct{})
	go func() {
		r3, err := e.admit(context.Background())
		if err != nil {
			t.Error(err)
			close(admitted)
			return
		}
		close(admitted)
		r3()
	}()
	waitFor(t, func() bool { return e.Stats().Queued == 1 })

	// A second waiter fills the queue; it honours context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.admit(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return e.Stats().Queued == 2 })

	// With the queue full, the next request is shed immediately.
	if _, err := e.admit(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overflow err = %v, want ErrOverloaded", err)
	}
	if got := e.Stats(); got.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", got.Rejected)
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v", err)
	}

	r1() // free a slot; the first waiter admits
	<-admitted
	r2()
	waitFor(t, func() bool {
		st := e.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// Concurrent requests against the shared caches must not corrupt them: the
// warm-cache answers stay identical to cold ones, and the cache counters
// show actual cross-request reuse.
func TestSharedCacheConcurrentReuse(t *testing.T) {
	e := newTestEngine(t, Config{MaxCandidates: 5, MaxStates: 4000})
	s, _ := e.Session("movies")

	cold, err := s.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Synthesize(context.Background(), moviesInput())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = sqlStrings(res)
		}(i)
	}
	wg.Wait()
	want := sqlStrings(cold)
	for i, got := range results {
		if !equalStrings(got, want) {
			t.Errorf("warm run %d = %v, want %v", i, got, want)
		}
	}
	st := e.Stats().Databases[0]
	if st.Cache.Pipeline.StreamedExists == 0 {
		t.Error("expected shared-cache activity in stats")
	}
}

// Config.Rules is the whole pruning switch: nil means the Table 4 defaults,
// and an engine built with semrules.Empty() rejects nothing at the semantics
// stage — not even a query every default engine stops there.
func TestEmptyRulesRejectNothingAtSemantics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rules  *semrules.RuleSet
		reject bool
	}{
		{"nil: Table 4 defaults", nil, true},
		{"semrules.Empty()", semrules.Empty(), false},
	} {
		e := newTestEngine(t, Config{Rules: tc.rules})
		snap, err := e.Snapshot("movies")
		if err != nil {
			t.Fatal(err)
		}
		q := sqlparse.MustParse(snap.Database().Schema, "SELECT MAX(title) FROM movie") // aggregate type usage
		out, err := verify.NewWithCache(snap.Database(), e.rules, nil, nil, snap.pin.cache).Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := !out.OK && out.Stage == verify.StageSemantics; got != tc.reject {
			t.Errorf("%s: rejected at semantics = %v, want %v (%+v)", tc.name, got, tc.reject, out)
		}
	}
}

// Insert invalidation end to end: a result cached by the service layer must
// not survive a data change.
func TestServiceInvalidationOnInsert(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("movies")
	q, err := sqlparse.Parse(s.Database().Schema, "SELECT title FROM movie WHERE year = 1994")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Rows)
	s.Database().Table("movie").MustInsert(
		sqlir.NewNumber(99), sqlir.NewText("The Shawshank Redemption"), sqlir.NewNumber(1994))
	res, err = s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before+1 {
		t.Errorf("rows after insert = %d, want %d", len(res.Rows), before+1)
	}
}

// Preview truncation must hand back a private slice: growing it cannot
// touch rows the cache still owns.
func TestPreviewCopiesTruncatedRows(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, _ := e.Session("movies")
	q, err := sqlparse.Parse(s.Database().Schema, "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) < 2 {
		t.Skip("need at least 2 rows")
	}
	trunc, err := s.Preview(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trunc.Rows) != 1 {
		t.Fatalf("truncated rows = %d", len(trunc.Rows))
	}
	// Appending through the truncated slice must not overwrite the second
	// row of a subsequent full result.
	trunc.Rows = append(trunc.Rows, []sqlir.Value{sqlir.NewText("CLOBBER")})
	again, err := s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[1][0].Text == "CLOBBER" {
		t.Error("truncated preview aliases shared rows")
	}
}

func sqlStrings(res *enumerate.Result) []string {
	out := make([]string, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = c.Query.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wideDB is a database of n one-column tables, each but the first holding
// a foreign key to the one before it.
func wideDB(n int) *storage.Database {
	var tables []*storage.Table
	for i := range n {
		tables = append(tables, storage.NewTable(fmt.Sprintf("t%02d", i), "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber}, storage.Column{Name: "prev", Type: sqlir.TypeNumber}))
	}
	s := storage.NewSchema(tables...)
	for i := 1; i < n; i++ {
		s.AddForeignKey(fmt.Sprintf("t%02d", i), "prev", fmt.Sprintf("t%02d", i-1), "id")
	}
	return storage.NewDatabase(fmt.Sprintf("wide%d", n), s)
}

// A registered schema is validated: a catalog holds at most 64 tables, and
// a foreign key must reference a table's key.
func TestRegisterValidatesTheSchema(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Register(wideDB(sqlir.MaxTables)); err != nil {
		t.Errorf("a %d-table schema: %v", sqlir.MaxTables, err)
	}
	if err := e.Register(wideDB(sqlir.MaxTables + 1)); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("a %d-table schema: %v, want an error naming the limit", sqlir.MaxTables+1, err)
	}
	dangling := wideDB(2)
	dangling.Name = "dangling"
	dangling.Schema.AddForeignKey("t01", "prev", "t09", "id")
	if err := e.Register(dangling); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("a dangling foreign key: %v", err)
	}
	if got := e.Databases(); len(got) != 1 {
		t.Errorf("registered %v, want only the 64-table database", got)
	}
}

// A preview runs under its caller's context: asked with a cancelled one
// over a table larger than the executor's cancellation checkpoint, it
// returns context.Canceled instead of scanning.
func TestPreviewHonoursItsContext(t *testing.T) {
	tb := storage.NewTable("big", "id", storage.Column{Name: "id", Type: sqlir.TypeNumber})
	for i := range 4096 {
		tb.MustInsert(sqlir.NewInt(i))
	}
	e := NewEngine(Config{})
	if err := e.Register(storage.NewDatabase("big", storage.NewSchema(tb))); err != nil {
		t.Fatal(err)
	}
	s, err := e.Session("big")
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(s.Database().Schema, "SELECT id FROM big WHERE id > 5000")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PreviewCtx(ctx, q, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("PreviewCtx under a cancelled context: %v, want context.Canceled", err)
	}
	if res, err := s.PreviewCtx(context.Background(), q, 0); err != nil || len(res.Rows) != 0 {
		t.Errorf("PreviewCtx: %v rows, %v", res, err)
	}
}

package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// request is one entry of a test workload: the target database and a
// dual-specification input.
type request struct {
	db string
	in Input
}

// mixedWorkload is a fixed cross-database request mix. MaxStates (not the
// time budget) bounds each search so the reference answers are
// deterministic.
func mixedWorkload() []request {
	text := sqlir.NewText
	num := sqlir.NewNumber
	return []request{
		{"movies", Input{
			NLQ:      "titles of movies before 1995",
			Literals: []sqlir.Value{num(1995)},
			Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
				Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump"))}}},
		}},
		{"movies", Input{
			NLQ:      "names of actors starring in movies after 2000",
			Literals: []sqlir.Value{num(2000)},
			Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
				Tuples: []tsq.Tuple{{tsq.Exact(text("Sandra Bullock"))}}},
		}},
		{"movies", Input{
			NLQ: "how many movies are there",
			Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeNumber},
				Tuples: []tsq.Tuple{{tsq.Range(1, 100)}}},
		}},
		{"mas", Input{
			NLQ:      "List the names of organizations in continent Europe",
			Literals: []sqlir.Value{text("Europe")},
			Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
				Tuples: []tsq.Tuple{{tsq.Exact(text("University of Oxford"))}}},
		}},
		{"mas", Input{
			NLQ:      "names of authors",
			Literals: nil,
			Sketch:   &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}},
		}},
	}
}

func workloadOptions() Config {
	return Config{MaxCandidates: 4, MaxStates: 3000}
}

// faultPlan is one faulty request's fault schedule. The rates are
// aggressive — about a third of faulty requests are force-cancelled and one
// verification in twenty fails — because the property under test is that
// none of it is observable from a clean request.
func faultPlan(seed int64) faultinject.Config {
	return faultinject.Config{
		Seed:          seed,
		ProbeRate:     0.25,
		ProbeLatency:  200 * time.Microsecond,
		VerifyErrRate: 0.05,
		CancelRate:    0.35,
		CancelAfter:   time.Millisecond,
	}
}

// requireFired fails the test unless every named site fired at least once
// across the injectors: a fault that never fired proves nothing.
func requireFired(t *testing.T, injs []*faultinject.Injector, sites ...faultinject.Site) {
	t.Helper()
	for _, site := range sites {
		var calls, faults uint64
		for _, inj := range injs {
			c, f := inj.Counts(site)
			calls, faults = calls+c, faults+f
		}
		t.Logf("%s faults: %d of %d calls", site, faults, calls)
		if faults == 0 {
			t.Errorf("no %s fault fired in %d calls", site, calls)
		}
	}
}

// TestSharedCacheDifferential is the acceptance-criteria proof: for every
// request in a concurrent workload, results served from the warm shared
// caches are identical — SQL, rank, and confidence — to the results a fresh
// engine produces.
//
// It is also the isolation proof. Fault-carrying requests (slow probes,
// injected verify errors, forced mid-flight cancellations) run first on the
// cold caches and then beside every clean round. A fault only degrades its
// own request to an anytime result; no clean request may see a difference,
// so a neighbour's failure never poisons a shared cache.
func TestSharedCacheDifferential(t *testing.T) {
	t.Run("movies+mas", func(t *testing.T) {
		differentialUnderFaults(t, func() *Engine {
			return newTestEngine(t, workloadOptions())
		}, mixedWorkload())
	})
	// Movies and MAS tables are smaller than one cancellation checkpoint, so
	// there a cancellation reaches a shared memo only if it lands between
	// two probes. On the loadgen tables it lands inside one and surfaces in
	// the memo's computation as an error, which must not be remembered.
	t.Run("loadgen-10k", func(t *testing.T) {
		spec, _ := loadgen.Preset("small")
		gen, err := loadgen.Generate(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := gen.Tasks(16, 1)
		if err != nil {
			t.Fatal(err)
		}
		var work []request
		for i, task := range tasks {
			sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			work = append(work, request{gen.DB.Name, Input{NLQ: task.NLQ, Literals: task.Literals, Sketch: sk}})
		}
		differentialUnderFaults(t, func() *Engine {
			e := NewEngine(Config{MaxStates: 3000, MaxCandidates: 3})
			if err := e.Register(gen.DB); err != nil {
				t.Fatal(err)
			}
			return e
		}, work)
	})
}

// differentialUnderFaults runs each request of work on a new engine, which
// shares nothing, for the reference. It then runs work on one shared engine, concurrently and repeated so later rounds hit warm caches. Every
// shared request has a faulty twin. The twins of round 0 run alone on the
// cold caches, every join probe slowed, and each is cancelled 5 ms in, while
// its slow probes are still filling shared entries. (Slowing them all is
// what makes a probe fault certain to fire: a by-order scan stops once its
// answer is settled, so the Movies/MAS requests make only a few dozen join
// probes in all.)
func differentialUnderFaults(t *testing.T, engine func() *Engine, work []request) {
	want := make([][]string, len(work))
	for i, w := range work {
		s, err := engine().Session(w.db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Synthesize(context.Background(), w.in)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		want[i] = describe(res.Candidates)
	}

	shared := engine()
	const rounds = 3
	var (
		wg   sync.WaitGroup
		injs []*faultinject.Injector
	)
	errs := make(chan error, 2*(rounds+1)*len(work))
	send := func(r, i int, inj *faultinject.Injector) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := shared.Session(work[i].db)
			if err != nil {
				errs <- err
				return
			}
			ctx := context.Background()
			if inj != nil {
				ctx = faultinject.With(ctx, inj)
			}
			res, err := s.Synthesize(ctx, work[i].in)
			switch {
			case err != nil:
				errs <- fmt.Errorf("round %d request %d (faulty %v): %w", r, i, inj != nil, err)
			case inj != nil: // any anytime result will do
			case res.Truncated:
				errs <- fmt.Errorf("round %d request %d: clean request truncated", r, i)
			default:
				if got := describe(res.Candidates); !equalStrings(got, want[i]) {
					errs <- fmt.Errorf("round %d request %d:\n got %v\nwant %v", r, i, got, want[i])
				}
			}
		}()
	}
	for r := 0; r <= rounds; r++ {
		for i := range work {
			plan := faultPlan(int64(r*len(work) + i))
			if r == 0 {
				plan.ProbeRate, plan.VerifyErrRate, plan.CancelRate, plan.CancelAfter = 1, 0, 1, 5*time.Millisecond
			}
			inj := faultinject.New(plan)
			injs = append(injs, inj)
			send(r, i, inj)
			if r > 0 {
				send(r, i, nil)
			}
		}
		if r == 0 {
			wg.Wait()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	requireFired(t, injs, faultinject.SiteProbe, faultinject.SiteVerify, faultinject.SiteRequest)
}

// describe renders candidates as comparable strings: rank, SQL, confidence.
func describe(cs []enumerate.Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("#%d %.9f %s", c.Rank, c.Confidence, c.Query.String())
	}
	return out
}

// TestSpiderSharedEngineIsHistoryFree: what a shared engine answers must not
// depend on what it answered before. The 197-task Spider sample of the
// repository benchmark (every third dev task, full TSQ, ten candidates under
// a 3000-state cap) is run on shared engines in list order, in reverse
// order, and split between two concurrent clients; every task must get, each
// time, exactly the candidate list a single client gets from a new engine,
// which shares nothing. (It did not while by-order verification
// ran on cached relations laid out by whichever equal-signature join path
// came first: ties under ORDER BY ... LIMIT then went to a different row.)
func TestSpiderSharedEngineIsHistoryFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 197-task Spider sample four times")
	}
	bench := dataset.SpiderDev()
	var work []request
	for i := 0; i < len(bench.Tasks); i += 3 {
		task := bench.Tasks[i]
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1+int64(len(work)))
		if err != nil {
			t.Fatal(err)
		}
		work = append(work, request{task.DB.Name, Input{NLQ: task.NLQ, Literals: task.Literals, Sketch: sk}})
	}
	engine := func() *Engine {
		e := NewEngine(Config{MaxStates: 3000, MaxCandidates: 10})
		for _, db := range bench.Databases {
			if err := e.Register(db); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	run := func(e *Engine, i int) []string {
		s, err := e.Session(work[i].db)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := s.Synthesize(context.Background(), work[i].in)
		if err != nil {
			t.Errorf("task %d: %v", i, err)
			return nil
		}
		return describe(res.Candidates)
	}

	want := make([][]string, len(work))
	for i := range work {
		want[i] = run(engine(), i)
	}
	check := func(label string, e *Engine, i int) {
		if got := run(e, i); !equalStrings(got, want[i]) {
			t.Errorf("%s, task %d (%s): shared engine diverges from the share-nothing reference:\n got %v\nwant %v",
				label, i, work[i].db, got, want[i])
		}
	}

	forward, reverse, racing := engine(), engine(), engine()
	for i := range work {
		check("list order", forward, i)
		check("reverse order", reverse, len(work)-1-i)
	}
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range work { // client 0 walks forward, client 1 backward
				i := n
				if client == 1 {
					i = len(work) - 1 - n
				}
				check(fmt.Sprintf("two clients (client %d)", client), racing, i)
			}
		}()
	}
	wg.Wait()
}

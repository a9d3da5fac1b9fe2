package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/service"
)

// benchShopDB builds "shop", a caller-registered database at a more
// production-like scale than the bundled demo sets (thousands of customers,
// ~10k purchases), where re-materializing the customer⋈purchase join on
// every request is genuinely expensive. Values are deterministic.
func benchShopDB() *duoquest.Database {
	customer := duoquest.NewTable("customer", "cid",
		duoquest.Column{Name: "cid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "name", Type: duoquest.TypeText},
		duoquest.Column{Name: "city", Type: duoquest.TypeText},
		duoquest.Column{Name: "age", Type: duoquest.TypeNumber},
	)
	purchase := duoquest.NewTable("purchase", "pid",
		duoquest.Column{Name: "pid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "cid", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "item", Type: duoquest.TypeText},
		duoquest.Column{Name: "price", Type: duoquest.TypeNumber},
		duoquest.Column{Name: "year", Type: duoquest.TypeNumber},
	)
	schema := duoquest.NewSchema(customer, purchase)
	schema.AddForeignKey("purchase", "cid", "customer", "cid")

	cities := []string{"Springfield", "Riverton", "Lakeside", "Hillview", "Marston"}
	items := []string{"laptop", "phone", "desk", "chair", "monitor", "camera"}
	const nCustomers = 2000
	for i := 0; i < nCustomers; i++ {
		customer.MustInsert(
			duoquest.Number(float64(i+1)),
			duoquest.Text(fmt.Sprintf("Customer %04d", i+1)),
			duoquest.Text(cities[i%len(cities)]),
			duoquest.Number(float64(18+i%60)),
		)
	}
	for i := 0; i < 10000; i++ {
		purchase.MustInsert(
			duoquest.Number(float64(i+1)),
			duoquest.Number(float64(1+(i*7)%nCustomers)),
			duoquest.Text(items[i%len(items)]),
			duoquest.Number(float64(10+(i*13)%990)),
			duoquest.Number(float64(2000+(i*3)%20)),
		)
	}
	return duoquest.NewDatabase("shop", schema)
}

// benchRequests is the fixed mixed-database workload: movies, MAS, and
// caller-registered shop requests interleave, so the shared per-database
// caches serve three registries at once. MaxStates (not wall clock) bounds
// each search, so answers are deterministic and comparable across engine
// configurations.
var benchRequests = []struct {
	db   string
	body string
}{
	{"movies", `{"nlq": "titles of movies before 1995", "literals": [1995],
		"sketch": {"types": ["text"], "tuples": [["Forrest Gump"]]}}`},
	{"movies", `{"nlq": "names of actors starring in movies after 2000", "literals": [2000],
		"sketch": {"types": ["text"]}}`},
	{"mas", `{"nlq": "List the names of organizations in continent Europe", "literals": ["Europe"],
		"sketch": {"types": ["text"], "tuples": [["University of Oxford"]]}}`},
	{"mas", `{"nlq": "List all publications in conference SIGMOD", "literals": ["SIGMOD"],
		"sketch": {"types": ["text"], "tuples": [["Adaptive Query Processing 1"]]}}`},
	{"mas", `{"nlq": "titles of publications by author Alice Johnson", "literals": ["Alice Johnson"],
		"sketch": {"types": ["text"], "tuples": [["Adaptive Query Processing 1"]]}}`},
	{"shop", `{"nlq": "names of customers with purchases before 2005", "literals": [2005],
		"sketch": {"types": ["text"], "tuples": [["Customer 0008"]]}}`},
	{"shop", `{"nlq": "names of customers in city Springfield", "literals": ["Springfield"],
		"sketch": {"types": ["text"], "tuples": [["Customer 0006"]]}}`},
}

// benchConcurrency is how many clients hammer the server per request kind.
const benchConcurrency = 8

func benchEngine(b *testing.B, perRequestCaches bool) *server {
	b.Helper()
	cfg := service.Config{
		Budget:        30 * time.Second,
		MaxCandidates: 4,
		MaxStates:     3000,
		// Parallelism comes from concurrent requests, not intra-request
		// verification fan-out: one worker per request avoids
		// oversubscribing the scheduler under 48 concurrent syntheses.
		Workers:          1,
		PerRequestCaches: perRequestCaches,
	}
	eng := service.NewEngine(cfg)
	for _, db := range []*duoquest.Database{dataset.Movies(), dataset.MAS(), benchShopDB()} {
		if err := eng.Register(db); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := newServer(eng, "mas")
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// do issues one synthesize call and returns the ordered candidate SQL.
func do(ts *httptest.Server, db, body string) ([]string, error) {
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(withFields(fmt.Sprintf(`"db": %q`, db), body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out synthesizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	sqls := make([]string, len(out.Candidates))
	for i, c := range out.Candidates {
		sqls[i] = c.SQL
	}
	return sqls, nil
}

// BenchmarkServerThroughput serves the concurrent mixed-database workload
// through the full HTTP layer under three cache regimes:
//
//   - PerRequestCache: every request builds private caches — the engine's
//     pre-service-layer behavior and the baseline the shared design must
//     beat;
//   - SharedCold: one process-wide engine per run, caches empty at start
//     (first requests pay the build, concurrent duplicates share it);
//   - SharedWarm: the steady serving state — caches pre-warmed by one pass
//     of the workload.
//
// Every regime's answers are checked byte-identical against the
// per-request-cache reference before timing, so a speedup can never come
// from answering differently. Run it with `go test ./cmd/duoquest-server
// -run '^$' -bench BenchmarkServerThroughput -benchmem`.
func BenchmarkServerThroughput(b *testing.B) {
	// Reference answers, computed once with per-request caches.
	ref := make([][]string, len(benchRequests))
	{
		srv := benchEngine(b, true)
		ts := httptest.NewServer(srv.handler())
		for i, r := range benchRequests {
			sqls, err := do(ts, r.db, r.body)
			if err != nil {
				b.Fatal(err)
			}
			if len(sqls) == 0 {
				b.Fatalf("reference request %d returned no candidates", i)
			}
			ref[i] = sqls
		}
		ts.Close()
	}

	check := func(b *testing.B, ts *httptest.Server) {
		b.Helper()
		for i, r := range benchRequests {
			sqls, err := do(ts, r.db, r.body)
			if err != nil {
				b.Fatal(err)
			}
			if fmt.Sprint(sqls) != fmt.Sprint(ref[i]) {
				b.Fatalf("equivalence check failed for request %d:\n got %v\nwant %v", i, sqls, ref[i])
			}
		}
	}

	// load serves the whole workload benchConcurrency times concurrently.
	load := func(b *testing.B, ts *httptest.Server) {
		var wg sync.WaitGroup
		errs := make(chan error, benchConcurrency*len(benchRequests))
		for c := 0; c < benchConcurrency; c++ {
			for _, r := range benchRequests {
				wg.Add(1)
				go func(db, body string) {
					defer wg.Done()
					if _, err := do(ts, db, body); err != nil {
						errs <- err
					}
				}(r.db, r.body)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	perOp := float64(benchConcurrency * len(benchRequests))

	b.Run("PerRequestCache", func(b *testing.B) {
		srv := benchEngine(b, true)
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		check(b, ts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, ts)
		}
		b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("SharedCold", func(b *testing.B) {
		// Cold: a fresh engine per iteration; the measured load itself
		// builds the shared caches.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := benchEngine(b, false)
			ts := httptest.NewServer(srv.handler())
			b.StartTimer()
			load(b, ts)
			b.StopTimer()
			check(b, ts)
			ts.Close()
			b.StartTimer()
		}
		b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("SharedWarm", func(b *testing.B) {
		srv := benchEngine(b, false)
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		check(b, ts) // also warms every cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, ts)
		}
		b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

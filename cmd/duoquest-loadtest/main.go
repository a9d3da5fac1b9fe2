// Command duoquest-loadtest is the closed-loop load harness: it generates a
// synthetic database (internal/loadgen), registers it in the service-layer
// Engine, synthesizes NLQ+TSQ tasks exactly as the simulation study does,
// and drives concurrent Engine sessions at a fixed closed-loop concurrency,
// recording throughput and latency percentiles. It then sweeps generated
// databases of growing row counts through the shared-cache verification
// surface (Session.Exists) to record how verification cost scales with data
// size.
//
// Results are written to stdout as `go test -bench`-format lines so `make
// bench-loadgen` can pipe them (together with the ingest and sweep
// micro-benchmarks) through cmd/benchjson into BENCH_loadgen.json; the
// human-readable narrative goes to stderr.
//
// With -chaos the normal phases are replaced by the fault-injection
// harness (chaos.go): a clean reference pass, mixed faulty/clean traffic
// gated on byte-equivalence of the clean results, and a deadline
// cancel-to-return sweep whose bench lines `make bench-server` records
// into BENCH_server.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/storage/segment"
)

// config is the parsed command line.
type config struct {
	scale      string
	rows       int
	tables     int
	seed       int64
	workers    int
	requests   int
	tasks      int
	maxStates  int
	maxCand    int
	sweep      string
	sweepProbe int
	short      bool
	qworkers   int
	morselSize int
	dataDir    string
	writeFrac  float64
	writeRows  int
	cpuProfile string

	// chaos mode (see chaos.go): replaces the normal phases.
	chaos       bool
	chaosSeed   int64
	cancelSweep string
	cancelReqs  int
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "duoquest-loadtest: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("duoquest-loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.scale, "scale", "small", "scale preset: small (10k rows), medium (100k), large (1M)")
	fs.IntVar(&cfg.rows, "rows", 0, "override the preset's total row count")
	fs.IntVar(&cfg.tables, "tables", 0, "override the preset's table count (clamped to 3..8)")
	fs.Int64Var(&cfg.seed, "seed", 1, "generation and task-synthesis seed")
	fs.IntVar(&cfg.workers, "c", runtime.GOMAXPROCS(0), "closed-loop concurrency (parallel sessions)")
	fs.IntVar(&cfg.requests, "requests", 96, "total synthesis requests across all sessions")
	fs.IntVar(&cfg.tasks, "tasks", 16, "distinct NLQ+TSQ tasks to synthesize and cycle through")
	fs.IntVar(&cfg.maxStates, "maxstates", 3000, "per-request search state cap")
	fs.IntVar(&cfg.maxCand, "maxcand", 3, "per-request candidate cap")
	fs.StringVar(&cfg.sweep, "sweep", "10000,30000,100000", "comma-separated row counts for the verification scale sweep (empty disables)")
	fs.IntVar(&cfg.sweepProbe, "sweep-probes", 100, "verification probes per sweep scale")
	fs.BoolVar(&cfg.short, "short", false, "CI mode: shrink requests and sweep so the run finishes in seconds")
	fs.IntVar(&cfg.qworkers, "query-workers", 0, "engine-wide intra-query morsel workers per scan (0 = follow engine workers, 1 = single-threaded scans)")
	fs.IntVar(&cfg.morselSize, "morsel-size", 0, "scan rows per morsel (0 = executor default 4096; rounded up to 64)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "segment store directory: cache generated databases by spec+seed content address and cold-start from disk on a hit (empty = always regenerate)")
	fs.Float64Var(&cfg.writeFrac, "write-frac", 0, "mixed read/write phase: fraction of requests that are Engine.Append batches instead of syntheses (0 disables the phase)")
	fs.IntVar(&cfg.writeRows, "write-rows", 128, "rows per Engine.Append batch in the mixed phase")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the load phases to this file")
	fs.BoolVar(&cfg.chaos, "chaos", false, "chaos mode: clean reference pass, mixed faulty/clean traffic with an equivalence gate, then a cancel-to-return sweep (replaces the normal phases)")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 7, "fault-schedule seed (same seed, same faults)")
	fs.StringVar(&cfg.cancelSweep, "cancel-sweep", "10000,100000,300000", "comma-separated row counts for the chaos cancel-to-return sweep")
	fs.IntVar(&cfg.cancelReqs, "cancel-requests", 24, "deadline-bounded requests per cancel-sweep scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.workers < 1 || cfg.requests < 1 || cfg.tasks < 1 {
		return fmt.Errorf("-c, -requests, and -tasks must all be >= 1 (got %d, %d, %d)",
			cfg.workers, cfg.requests, cfg.tasks)
	}
	if cfg.writeFrac < 0 || cfg.writeFrac >= 1 {
		return fmt.Errorf("-write-frac must be in [0, 1), got %g", cfg.writeFrac)
	}
	if cfg.writeRows < 1 {
		return fmt.Errorf("-write-rows must be >= 1, got %d", cfg.writeRows)
	}
	// Parse the sweep lists up front so a malformed flag fails before the
	// generation and load phases spend their time.
	sweepScales, err := parseSweep(cfg.sweep)
	if err != nil {
		return err
	}
	cancelScales, err := parseSweep(cfg.cancelSweep)
	if err != nil {
		return err
	}
	if cfg.short {
		if cfg.requests > 24 {
			cfg.requests = 24
		}
		if cfg.sweep == "10000,30000,100000" {
			sweepScales = []int{10_000, 30_000}
		}
		if cfg.sweepProbe > 40 {
			cfg.sweepProbe = 40
		}
		if cfg.cancelSweep == "10000,100000,300000" {
			cancelScales = []int{10_000, 30_000}
		}
		if cfg.cancelReqs > 10 {
			cfg.cancelReqs = 10
		}
	}
	var store *segment.Store
	if cfg.dataDir != "" {
		store, err = segment.NewStore(cfg.dataDir)
		if err != nil {
			return err
		}
	}
	if cfg.chaos {
		return runChaos(cfg, store, cancelScales, stdout, stderr)
	}

	spec, ok := loadgen.Preset(cfg.scale)
	if !ok {
		return fmt.Errorf("unknown -scale %q (want small, medium, or large)", cfg.scale)
	}
	if cfg.rows > 0 {
		spec.Rows = cfg.rows
	}
	if cfg.tables > 0 {
		spec.Tables = cfg.tables
	}

	start := time.Now()
	g, err := obtainGenerated(store, spec, cfg.seed, stderr)
	if err != nil {
		return err
	}
	genElapsed := time.Since(start)
	fmt.Fprintf(stderr, "obtained %s: %d tables, %d rows in %v (fingerprint %016x)\n",
		g.DB.Name, len(g.DB.Schema.Tables), g.DB.TotalRows(), genElapsed.Round(time.Millisecond), loadgen.Fingerprint(g.DB))

	eng := service.NewEngine(service.Config{
		MaxStates:     cfg.maxStates,
		MaxCandidates: cfg.maxCand,
		Workers:       1, // sessions are the unit of parallelism here
		MaxInFlight:   cfg.workers,
		// Morsel parallelism is engine config only: there is no per-request
		// knob, matching the server's deployment model.
		QueryParallelism: cfg.qworkers,
		MorselSize:       cfg.morselSize,
	})
	if err := eng.Register(g.DB); err != nil {
		return err
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	readP95, err := driveSessions(cfg, g, eng, stdout, stderr)
	if err != nil {
		return err
	}
	if cfg.writeFrac > 0 {
		if err := driveMixed(cfg, g, eng, readP95, stdout, stderr); err != nil {
			return err
		}
	}
	return driveSweep(cfg, store, sweepScales, eng, stdout, stderr)
}

// obtainGenerated returns the generated database for (spec, seed): loaded
// from the segment store when a persisted copy exists (a cold start, not a
// rebuild), and generated then persisted otherwise. Store entries are keyed
// by the content address of every generation knob (loadgen.SpecKey), so a
// hit can only be the database Generate would have built — and the load
// path re-verifies the recorded fingerprint besides. A nil store always
// regenerates.
func obtainGenerated(store *segment.Store, spec loadgen.Spec, seed int64, stderr io.Writer) (*loadgen.Generated, error) {
	if store == nil {
		return loadgen.Generate(spec, seed)
	}
	key := loadgen.SpecKey(spec, seed)
	if store.Has(key) {
		db, info, err := store.Load(key)
		if err == nil {
			g, ferr := loadgen.FromPersisted(db, spec, seed)
			if ferr == nil {
				fmt.Fprintf(stderr, "segment store: cold-started %s in %v (%d segments, %d chunks, %.1f MiB)\n",
					db.Name, info.Elapsed.Round(time.Millisecond), info.Segments, info.Chunks,
					float64(info.Bytes)/(1<<20))
				return g, nil
			}
			err = ferr
		}
		// A corrupt or stale entry must not kill the run: fall back to
		// regeneration, which re-persists a good copy below.
		fmt.Fprintf(stderr, "segment store: entry %s unusable (%v); regenerating\n", key, err)
	}
	g, err := loadgen.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	if _, err := store.PersistAs(key, g.DB); err != nil {
		fmt.Fprintf(stderr, "segment store: persist %s: %v\n", key, err)
	} else {
		fmt.Fprintf(stderr, "segment store: persisted %s as %s\n", g.DB.Name, key)
	}
	return g, nil
}

// synthInputs synthesizes the NLQ+TSQ task mix for one generated database,
// exactly as the simulation study does.
func synthInputs(cfg config, g *loadgen.Generated) ([]service.Input, error) {
	tasks, err := g.Tasks(cfg.tasks, cfg.seed)
	if err != nil {
		return nil, err
	}
	inputs := make([]service.Input, 0, len(tasks))
	for i, task := range tasks {
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, cfg.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", task.ID, err)
		}
		inputs = append(inputs, service.Input{NLQ: task.NLQ, Literals: task.Literals, Sketch: sk})
	}
	return inputs, nil
}

// driveSessions runs the closed-loop synthesis phase and returns the
// read-only p95 latency — the baseline the mixed read/write phase compares
// against.
func driveSessions(cfg config, g *loadgen.Generated, eng *service.Engine, stdout, stderr io.Writer) (time.Duration, error) {
	inputs, err := synthInputs(cfg, g)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stderr, "synthesized %d NLQ+TSQ tasks; driving %d requests over %d sessions\n",
		len(inputs), cfg.requests, cfg.workers)

	var (
		next      atomic.Int64
		errCount  atomic.Int64
		cands     atomic.Int64
		wg        sync.WaitGroup
		latMu     sync.Mutex
		latencies []time.Duration
	)
	ctx := context.Background()
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.Session(g.DB.Name)
			if err != nil {
				errCount.Add(1)
				return
			}
			local := make([]time.Duration, 0, cfg.requests/cfg.workers+1)
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.requests) {
					break
				}
				t0 := time.Now()
				res, err := sess.Synthesize(ctx, inputs[i%int64(len(inputs))])
				local = append(local, time.Since(t0))
				if err != nil {
					errCount.Add(1)
					continue
				}
				cands.Add(int64(len(res.Candidates)))
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if int(errCount.Load()) == cfg.requests {
		return 0, fmt.Errorf("all %d requests failed", cfg.requests)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := quantile(latencies, 0.50)
	p95 := quantile(latencies, 0.95)
	p99 := quantile(latencies, 0.99)
	reqPerSec := float64(cfg.requests) / elapsed.Seconds()
	fmt.Fprintf(stderr, "%d requests in %v: %.1f req/s, p50 %v, p95 %v, p99 %v, %d candidates, %d errors\n",
		cfg.requests, elapsed.Round(time.Millisecond), reqPerSec,
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond),
		cands.Load(), errCount.Load())

	// Machine-readable: ns/op is mean latency per request; throughput and
	// quantiles ride along as custom metrics.
	fmt.Fprintf(stdout, "BenchmarkLoadtestSynthesize/scale=%s \t %d \t %d ns/op \t %.2f req/s \t %.3f p50-ms \t %.3f p95-ms \t %.3f p99-ms\n",
		cfg.scale, cfg.requests, meanNs(latencies), reqPerSec,
		float64(p50)/1e6, float64(p95)/1e6, float64(p99)/1e6)
	return p95, nil
}

// isWrite deterministically spreads the write fraction over the request
// index sequence: request i is a write when crossing the next frac step.
// The same -write-frac therefore always produces the same interleave, no
// matter how the closed-loop workers race.
func isWrite(i int64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	return int64(float64(i)*frac) != int64(float64(i-1)*frac)
}

// driveMixed runs the mixed read/write phase: the same closed loop as
// driveSessions, but -write-frac of the request slots become Engine.Append
// batches publishing new epochs while the remaining syntheses resolve the
// moving head. Read latency is the measurement; the phase's bench line
// reports the read p95 as its ns/op so the benchjson regression gate bounds
// exactly the acceptance metric (p95 under writes vs. the read-only
// baseline).
func driveMixed(cfg config, g *loadgen.Generated, eng *service.Engine, readP95 time.Duration, stdout, stderr io.Writer) error {
	inputs, err := synthInputs(cfg, g)
	if err != nil {
		return err
	}
	// Writes cycle rows of the largest table, captured from the pre-phase
	// snapshot so batch content does not depend on interleaving.
	snap := g.DB.Snapshot()
	var seedTable *storage.Table
	for _, t := range snap.Schema.Tables {
		if seedTable == nil || t.NumRows() > seedTable.NumRows() {
			seedTable = t
		}
	}
	startEpoch := g.DB.Epoch()
	fmt.Fprintf(stderr, "mixed phase: %d requests, write-frac %.2f (%d-row batches into %s), %d sessions\n",
		cfg.requests, cfg.writeFrac, cfg.writeRows, seedTable.Name, cfg.workers)

	var (
		next      atomic.Int64
		errCount  atomic.Int64
		writes    atomic.Int64
		wg        sync.WaitGroup
		latMu     sync.Mutex
		latencies []time.Duration
	)
	ctx := context.Background()
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.Session(g.DB.Name)
			if err != nil {
				errCount.Add(1)
				return
			}
			local := make([]time.Duration, 0, cfg.requests/cfg.workers+1)
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.requests) {
					break
				}
				if isWrite(i, cfg.writeFrac) {
					batch := loadgen.IngestBatch(seedTable, int(i)*cfg.writeRows, cfg.writeRows)
					if _, err := eng.Append(g.DB.Name, seedTable.Name, batch); err != nil {
						errCount.Add(1)
						continue
					}
					writes.Add(1)
					continue
				}
				t0 := time.Now()
				_, err := sess.Synthesize(ctx, inputs[i%int64(len(inputs))])
				local = append(local, time.Since(t0))
				if err != nil {
					errCount.Add(1)
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(latencies) == 0 {
		return fmt.Errorf("mixed phase ran no reads (write-frac %g too high for %d requests)", cfg.writeFrac, cfg.requests)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := quantile(latencies, 0.50)
	p95 := quantile(latencies, 0.95)
	p99 := quantile(latencies, 0.99)
	ratio := 0.0
	if readP95 > 0 {
		ratio = float64(p95) / float64(readP95)
	}
	st := eng.Stats()
	var lagMax int64
	var lagAvg float64
	for _, d := range st.Databases {
		if d.Database == g.DB.Name {
			lagMax, lagAvg = d.EpochLagMax, d.EpochLagAvg
		}
	}
	fmt.Fprintf(stderr, "mixed: %d reads + %d writes in %v: read p50 %v, p95 %v, p99 %v (%.2fx read-only p95 %v), epochs %d..%d, lag max %d avg %.2f, %d errors\n",
		len(latencies), writes.Load(), elapsed.Round(time.Millisecond),
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond),
		ratio, readP95.Round(time.Microsecond), startEpoch, g.DB.Epoch(), lagMax, lagAvg, errCount.Load())
	if ratio > 1.5 {
		fmt.Fprintf(stderr, "WARNING: mixed read p95 is %.2fx the read-only baseline (budget 1.5x)\n", ratio)
	}

	// ns/op is the read p95 (not the mean): the regression gate compares
	// ns/op, and p95-under-writes is the number the epoch design promises.
	fmt.Fprintf(stdout, "BenchmarkLoadtestMixedRW/scale=%s \t %d \t %d ns/op \t %.3f p50-ms \t %.3f p95-ms \t %.3f p99-ms \t %.2f write-frac \t %d writes \t %.3f p95-vs-readonly\n",
		cfg.scale, len(latencies), p95.Nanoseconds(),
		float64(p50)/1e6, float64(p95)/1e6, float64(p99)/1e6,
		cfg.writeFrac, writes.Load(), ratio)
	return nil
}

// driveSweep measures verification ns/op at each swept row count through
// the service layer's shared-cache probe surface.
func driveSweep(cfg config, store *segment.Store, scales []int, eng *service.Engine, stdout, stderr io.Writer) error {
	for _, rows := range scales {
		spec, _ := loadgen.Preset("medium")
		spec.Name = "sweep"
		spec.Rows = rows
		g, err := obtainGenerated(store, spec, cfg.seed, stderr)
		if err != nil {
			return err
		}
		if err := eng.Register(g.DB); err != nil {
			return err
		}
		sess, err := eng.Session(g.DB.Name)
		if err != nil {
			return err
		}
		probes := g.Probes(cfg.sweepProbe, cfg.seed+1)
		// Repeat passes until the measurement is long enough to be stable;
		// the first pass warms the lazily built storage indexes, exactly
		// like production verification traffic does.
		var (
			total time.Duration
			n     int
		)
		for pass := 0; pass < 50 && (pass < 3 || total < 300*time.Millisecond); pass++ {
			t0 := time.Now()
			for pi, eq := range probes {
				if _, err := sess.Exists(eq); err != nil {
					return fmt.Errorf("sweep rows=%d probe %d: %w", rows, pi, err)
				}
			}
			total += time.Since(t0)
			n += len(probes)
		}
		nsPerOp := total.Nanoseconds() / int64(n)
		fmt.Fprintf(stderr, "sweep rows=%d: %d probes, %d ns/op\n", rows, n, nsPerOp)
		fmt.Fprintf(stdout, "BenchmarkLoadtestVerifySweep/rows=%d \t %d \t %d ns/op\n", rows, n, nsPerOp)
	}
	return nil
}

// parseSweep parses the -sweep flag.
func parseSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sweep entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// quantile returns the nearest-rank quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// meanNs returns the mean latency in nanoseconds.
func meanNs(lat []time.Duration) int64 {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return sum.Nanoseconds() / int64(len(lat))
}

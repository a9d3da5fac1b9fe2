// Chaos mode: drive the engine with deterministic injected faults and prove
// two robustness properties end to end. First, isolation — clean requests
// interleaved with faulty ones (slow probes, injected verify errors, forced
// mid-flight cancellations) return results byte-identical to a fault-free
// reference pass, i.e. the shared caches are never poisoned by a neighbour's
// failure. Second, responsiveness — requests carrying a deadline budget
// return an anytime partial result within milliseconds of expiry; the sweep
// records cancel-to-return latency against growing database sizes as
// `BenchmarkLoadtestCancelReturn/rows=N` lines for BENCH_server.json.
package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/storage/segment"
)

// chaosDeadline is the per-request budget for the cancel-to-return sweep:
// far below the tens-of-milliseconds a synthesis takes at these scales, so
// every request expires mid-verification and exercises the unwind path.
const chaosDeadline = 3 * time.Millisecond

// faultPlan is the per-faulty-request fault schedule. Rates are deliberately
// aggressive — roughly a third of faulty requests are force-cancelled and
// one in twenty verifications fails — because the property under test is
// that none of it is observable from a clean request.
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

// runChaos replaces the normal load phases with the fault-injection harness.
// The main database is always generated fresh — its ingest runs under the
// injected stall schedule, which is part of the test — but the cancel
// sweep's databases come through the segment-store cache when one is
// configured.
func runChaos(cfg config, store *segment.Store, cancelScales []int, stdout, stderr io.Writer) error {
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

	// Generation runs under a process-global ingest-stall schedule: the bulk
	// loader has no request context, so this is the one seam the global
	// injector covers. Stalls only cost time — the loaded bytes must be
	// identical, which the clean reference pass then depends on.
	ing := faultinject.New(faultinject.Config{
		Seed:        cfg.chaosSeed,
		IngestRate:  0.1,
		IngestStall: 200 * time.Microsecond,
	})
	faultinject.SetGlobal(ing)
	g, err := loadgen.Generate(spec, cfg.seed)
	faultinject.SetGlobal(nil)
	if err != nil {
		return err
	}
	batches, stalls := ing.Counts(faultinject.SiteIngest)
	fmt.Fprintf(stderr, "chaos: generated %s (%d rows); %d/%d ingest batches stalled\n",
		g.DB.Name, g.DB.TotalRows(), stalls, batches)

	eng := service.NewEngine(service.Config{
		MaxStates:     cfg.maxStates,
		MaxCandidates: cfg.maxCand,
		Workers:       1, // sessions are the unit of parallelism here
		MaxInFlight:   cfg.workers,
	})
	if err := eng.Register(g.DB); err != nil {
		return err
	}
	inputs, err := synthInputs(cfg, g)
	if err != nil {
		return err
	}

	ref, err := chaosReference(g, eng, inputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "chaos: recorded %d-task fault-free reference\n", len(inputs))

	if err := chaosMixed(cfg, g, eng, inputs, ref, stderr); err != nil {
		return err
	}
	if err := chaosIngestStall(cfg, g, eng, inputs, ref, stderr); err != nil {
		return err
	}
	return chaosCancelSweep(cfg, store, cancelScales, eng, stdout, stderr)
}

// chaosIngestStall proves snapshot isolation under faulty ingest: a reader
// pinned to the pre-ingest epoch re-runs every reference task while a writer
// hammers the largest table with appends whose batches draw injected stalls.
// Stalls may only cost the writer time — every pinned result must stay
// byte-identical to the fault-free reference captured before any ingest.
func chaosIngestStall(cfg config, g *loadgen.Generated, eng *service.Engine, inputs []service.Input, ref []string, stderr io.Writer) error {
	sn, err := eng.Snapshot(g.DB.Name)
	if err != nil {
		return err
	}
	pinEpoch := sn.Epoch()

	// Writes run under a process-global ingest-stall schedule (Engine.Append
	// carries no request context, so the global injector is the seam).
	ing := faultinject.New(faultinject.Config{
		Seed:        cfg.chaosSeed + 7,
		IngestRate:  0.1,
		IngestStall: 200 * time.Microsecond,
	})
	faultinject.SetGlobal(ing)
	defer faultinject.SetGlobal(nil)

	// Batch content is captured from the pinned snapshot, so it does not
	// depend on how writes and reads interleave.
	var seedTable *storage.Table
	for _, t := range sn.Database().Schema.Tables {
		if seedTable == nil || t.NumRows() > seedTable.NumRows() {
			seedTable = t
		}
	}

	stop := make(chan struct{})
	var (
		writes   atomic.Int64
		writeErr atomic.Pointer[error]
		wwg      sync.WaitGroup
	)
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		base := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Append(g.DB.Name, seedTable.Name, loadgen.IngestBatch(seedTable, base, 32)); err != nil {
				writeErr.Store(&err)
				return
			}
			base += 32
			writes.Add(1)
		}
	}()

	var (
		mmMu       sync.Mutex
		mismatches []string
		next       atomic.Int64
		rwg        sync.WaitGroup
	)
	fail := func(msg string) {
		mmMu.Lock()
		if len(mismatches) < 5 {
			mismatches = append(mismatches, msg)
		}
		mmMu.Unlock()
	}
	const rounds = 2
	total := int64(rounds * len(inputs))
	for w := 0; w < cfg.workers; w++ {
		// Even workers read through the pinned Snapshot handle, odd workers
		// through a plain session with the epoch pinned per request — the
		// two API routes to the same shard must behave identically.
		usePin := w%2 == 0
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			sess := sn.Session
			if !usePin {
				var serr error
				if sess, serr = eng.Session(g.DB.Name); serr != nil {
					fail(fmt.Sprintf("ingest-stall session: %v", serr))
					return
				}
			}
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				idx := int(i) % len(inputs)
				in := inputs[idx]
				if !usePin {
					in.Epoch = pinEpoch
				}
				res, err := sess.Synthesize(context.Background(), in)
				if err != nil {
					fail(fmt.Sprintf("pinned request %d (task %d) failed under ingest: %v", i, idx, err))
					continue
				}
				if sig := resultSig(res); sig != ref[idx] {
					fail(fmt.Sprintf("pinned request %d (task %d) diverged under faulty ingest:\n--- reference\n%s--- got\n%s",
						i, idx, ref[idx], sig))
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
	if ep := writeErr.Load(); ep != nil {
		return fmt.Errorf("ingest-stall writer: %w", *ep)
	}
	batches, stalls := ing.Counts(faultinject.SiteIngest)
	ds, ok := dbStats(eng, g.DB.Name)
	if !ok {
		return fmt.Errorf("ingest-stall: no stats for %s", g.DB.Name)
	}
	fmt.Fprintf(stderr, "chaos: ingest-stall: %d pinned reads at epoch %d (all byte-identical to reference: %v) under %d appends (%d/%d batches stalled), head epoch %d\n",
		total, pinEpoch, len(mismatches) == 0, writes.Load(), stalls, batches, ds.HeadEpoch)
	if len(mismatches) > 0 {
		return fmt.Errorf("chaos ingest-stall isolation gate failed:\n%s", strings.Join(mismatches, "\n"))
	}
	return nil
}

// chaosReference runs every task once, sequentially and fault-free, and
// returns the per-task result fingerprints the mixed phase asserts against.
func chaosReference(g *loadgen.Generated, eng *service.Engine, inputs []service.Input) ([]string, error) {
	sess, err := eng.Session(g.DB.Name)
	if err != nil {
		return nil, err
	}
	ref := make([]string, len(inputs))
	for i, in := range inputs {
		res, err := sess.Synthesize(context.Background(), in)
		if err != nil {
			return nil, fmt.Errorf("chaos reference task %d: %w", i, err)
		}
		if res.Truncated {
			return nil, fmt.Errorf("chaos reference task %d: truncated with no deadline or faults", i)
		}
		ref[i] = resultSig(res)
	}
	return ref, nil
}

// chaosMixed drives the closed-loop request mix — odd request indices carry
// a per-request fault schedule, even ones are clean — and fails if any clean
// request's result diverges from the reference fingerprint.
func chaosMixed(cfg config, g *loadgen.Generated, eng *service.Engine, inputs []service.Input, ref []string, stderr io.Writer) error {
	var (
		next, clean, faulty   atomic.Int64
		truncated, faultyErrs atomic.Int64
		wg                    sync.WaitGroup
		mmMu                  sync.Mutex
		mismatches            []string
	)
	fail := func(msg string) {
		mmMu.Lock()
		if len(mismatches) < 5 {
			mismatches = append(mismatches, msg)
		}
		mmMu.Unlock()
	}
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.Session(g.DB.Name)
			if err != nil {
				fail(fmt.Sprintf("session: %v", err))
				return
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.requests) {
					return
				}
				idx := i % int64(len(inputs))
				ctx := context.Background()
				isFaulty := i%2 == 1
				if isFaulty {
					// Seed varies per request so the fault mix differs
					// across the run but replays exactly under -chaos-seed.
					ctx = faultinject.With(ctx, faultinject.New(faultPlan(cfg.chaosSeed+i)))
				}
				res, err := sess.Synthesize(ctx, inputs[idx])
				switch {
				case err != nil && isFaulty:
					faultyErrs.Add(1)
				case err != nil:
					fail(fmt.Sprintf("clean request %d (task %d) failed: %v", i, idx, err))
				case isFaulty:
					faulty.Add(1)
					if res.Truncated {
						truncated.Add(1)
					}
				default:
					clean.Add(1)
					if sig := resultSig(res); sig != ref[idx] {
						fail(fmt.Sprintf("clean request %d (task %d) diverged from the fault-free reference:\n--- reference\n%s--- got\n%s",
							i, idx, ref[idx], sig))
					}
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(stderr, "chaos: %d requests in %v: %d clean (all byte-identical to reference: %v), %d faulty (%d truncated, %d errored)\n",
		cfg.requests, time.Since(start).Round(time.Millisecond),
		clean.Load(), len(mismatches) == 0, faulty.Load(), truncated.Load(), faultyErrs.Load())
	if len(mismatches) > 0 {
		return fmt.Errorf("chaos equivalence gate failed:\n%s", strings.Join(mismatches, "\n"))
	}
	return nil
}

// chaosCancelSweep registers databases of growing row counts and measures
// cancel-to-return latency — how long after the deadline context fires a
// request actually returns — from the service layer's own instrumentation,
// the same quantiles /stats serves as cancel_to_return_ns.
func chaosCancelSweep(cfg config, store *segment.Store, scales []int, eng *service.Engine, stdout, stderr io.Writer) error {
	for _, rows := range scales {
		spec, _ := loadgen.Preset("medium")
		spec.Name = fmt.Sprintf("cancel%d", rows)
		spec.Rows = rows
		g, err := obtainGenerated(store, spec, cfg.seed, stderr)
		if err != nil {
			return err
		}
		inputs, err := synthInputs(cfg, g)
		if err != nil {
			return err
		}

		// Warm-up, through a throwaway engine: the first traffic on a
		// database pays one-time costs with no cancellation checkpoints —
		// the lazily built storage hash indexes, which live in the shared
		// storage layer. Paying them here leaves the measuring engine's
		// stats ring (and its caches) untouched, so the measured pass below
		// records steady-state cancellation of real, checkpointed scan work
		// rather than cold index construction.
		warmEng := service.NewEngine(service.Config{
			MaxStates:     cfg.maxStates,
			MaxCandidates: cfg.maxCand,
			Workers:       1,
			MaxInFlight:   1,
		})
		if err := warmEng.Register(g.DB); err != nil {
			return err
		}
		warmSess, err := warmEng.Session(g.DB.Name)
		if err != nil {
			return err
		}
		warmStart := time.Now()
		for i, in := range inputs {
			in.Deadline = 250 * time.Millisecond
			if _, err := warmSess.Synthesize(context.Background(), in); err != nil {
				return fmt.Errorf("cancel sweep rows=%d warm-up %d: %w", rows, i, err)
			}
		}
		fmt.Fprintf(stderr, "chaos: cancel sweep rows=%d: warmed %d tasks in %v\n",
			rows, len(inputs), time.Since(warmStart).Round(time.Millisecond))

		if err := eng.Register(g.DB); err != nil {
			return err
		}
		sess, err := eng.Session(g.DB.Name)
		if err != nil {
			return err
		}
		var returns []time.Duration // client-observed overshoot past the budget
		for i := 0; i < cfg.cancelReqs; i++ {
			in := inputs[i%len(inputs)]
			in.Deadline = chaosDeadline
			t0 := time.Now()
			res, err := sess.Synthesize(context.Background(), in)
			elapsed := time.Since(t0)
			if err != nil {
				return fmt.Errorf("cancel sweep rows=%d request %d: %w", rows, i, err)
			}
			if res.Truncated {
				returns = append(returns, maxDur(elapsed-chaosDeadline, 0))
			}
		}
		ds, ok := dbStats(eng, g.DB.Name)
		if !ok {
			return fmt.Errorf("cancel sweep rows=%d: no stats for %s", rows, g.DB.Name)
		}
		sort.Slice(returns, func(i, j int) bool { return returns[i] < returns[j] })
		fmt.Fprintf(stderr, "chaos: cancel sweep rows=%d: %d/%d requests hit the %v deadline (%d truncated), cancel-to-return p50 %v p99 %v (client-observed budget overshoot p99 %v, includes runtime timer delivery)\n",
			rows, ds.CancelReturns, cfg.cancelReqs, chaosDeadline, ds.Truncated,
			ds.CancelP50.Round(time.Microsecond), ds.CancelP99.Round(time.Microsecond),
			quantile(returns, 0.99).Round(time.Microsecond))
		if ds.CancelReturns == 0 {
			fmt.Fprintf(stderr, "chaos: cancel sweep rows=%d: no deadline expiries — not recording a bench line\n", rows)
			continue
		}
		fmt.Fprintf(stdout, "BenchmarkLoadtestCancelReturn/rows=%d \t %d \t %d ns/op \t %.3f p50-ms \t %.3f p99-ms\n",
			rows, ds.CancelReturns, ds.CancelP50.Nanoseconds(),
			float64(ds.CancelP50)/1e6, float64(ds.CancelP99)/1e6)
	}
	return nil
}

// maxDur returns the larger of two durations.
func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// dbStats returns the engine's aggregate view of one database.
func dbStats(eng *service.Engine, name string) (service.DBStats, bool) {
	for _, d := range eng.Stats().Databases {
		if d.Database == name {
			return d, true
		}
	}
	return service.DBStats{}, false
}

// resultSig fingerprints everything a client observes in a synthesis result
// except wall-clock timings: the outcome flags and the ranked candidate
// list with confidences and rendered SQL. Two results with equal signatures
// are byte-identical as far as any consumer of the API can tell.
func resultSig(res *enumerate.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d exhausted=%v truncated=%v\n", res.States, res.Exhausted, res.Truncated)
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, "%d|%.12g|%s\n", c.Rank, c.Confidence, c.Query.String())
	}
	return b.String()
}

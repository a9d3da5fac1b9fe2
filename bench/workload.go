package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

const (
	// maxStates is the state cap every request runs under: with Budget 0
	// it is what terminates a search, so termination never depends on the
	// clock and state counts repeat exactly.
	maxStates = 3000
	// requestDeadline is a guard rail, not a knob: a request that hits it
	// comes back Truncated and counts as a failure, not as a sample.
	requestDeadline = 20 * time.Second
	// ingestRows is the size of one Engine.Append batch.
	ingestRows = 128
	// fixtureSeed generates the part of the inputs that is the same on every
	// run: the scale database, its task list, and every task's TSQ example
	// rows. --seed drives the rest — the request shuffles and which rows the
	// ingest batches carry. TSQ example rows are not drawn from --seed because
	// they decide how hard a task is: drawing them per seed added 12 % to the
	// seed-to-seed spread of synth_ms_p50 on spider_dual, and on the scale
	// database one draw in six produces a task that takes 10 s per request
	// (README, known cliffs). A metric that moves that much with the seed
	// cannot carry a regression bound.
	fixtureSeed = 1
)

// workload is one set of inputs. Names are fixed; later issues cite them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	scale         bool // one generated 20k-row database instead of the 20 Spider-dev ones
	dual          bool // requests carry the full TSQ (false: NLQ + literals only)
	ingest        bool // every pass starts with an Engine.Append
	maxCandidates int
}

var workloads = []workload{
	{Name: "spider_dual", dual: true, maxCandidates: 10,
		Why: "The paper's simulation study: tiny tables, full TSQ, so verify, enumerate, guidance, semrules and the allocator do the work."},
	{Name: "spider_nlq", maxCandidates: 10,
		Why: "Same tasks without a TSQ (the NLI baseline): pruning is weak, so guidance and GPQE expansion dominate; bypasses TSQ verification."},
	{Name: "scale_warm", scale: true, dual: true, maxCandidates: 3,
		Why: "Read-only over one generated 20k-row database with warm shared caches: sqlexec (join materialisation, scans) dominates; guidance and semrules matter least."},
	{Name: "scale_ingest", scale: true, dual: true, ingest: true, maxCandidates: 3,
		Why: "scale_warm plus an Engine.Append before every pass: storage epochs and service carry-forward/warming are on the path; shows the read tax of writes."},
}

// sizes are the knobs that differ between the real benchmark and the smoke
// test's toy run; nothing else does.
type sizes struct {
	spiderStride int // keep every n-th Spider task
	scaleRows    int // rows of the generated database
	scaleTasks   int
	setups       int // set-ups per run; setup_s is their median
	minReads     int // timed reads needed before the phase may end (p95 needs 200)
	traceStride  int // the traced passes run every n-th Spider task
	probes       int // existence probes replayed cold and warm
	taxRounds    int // {append; pass} rounds of the epoch-tax measurement
}

var fullSizes = sizes{spiderStride: 3, scaleRows: 20_000, scaleTasks: 33, setups: 3, minReads: 200, traceStride: 2, probes: 200, taxRounds: 4}

// benchTask is one request the benchmark can send.
type benchTask struct {
	id     string
	db     string // registered database name
	in     input
	gold   *query
	source *task
}

// fixture is a workload after set-up: databases persisted, loaded back and
// registered, TSQs synthesized, reference pass done.
type fixture struct {
	w     workload
	eng   *engine
	dbs   map[string]*database // the loaded (mmapped) databases that are registered
	store *segStore
	tasks []benchTask
	gen   *generated // scale workloads only

	ref        []string // reference pass: each task's candidate list
	top1, topk int

	setupS, persistMs, loadMs, coldPassMs float64
	segBytes                              int64
	rows                                  int
	failures                              []string
}

// run holds what one invocation needs besides the workload.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string // trace files and the temporary segment stores
	clients int
	logf    func(format string, args ...any)
}

func (r *run) fail(fx *fixture, format string, args ...any) {
	fx.failures = append(fx.failures, fmt.Sprintf(format, args...))
}

// setUp performs one full set-up of w: build or generate the databases,
// persist them to a segment store, load them back (the server's -data-dir
// boot path), register the loaded databases, synthesize the TSQs, and run
// the single-client reference pass on the cold engine. Cold-cache work,
// index builds and join materialisation therefore all land in setup_s.
func (r *run) setUp(w workload, dir string) (*fixture, error) {
	start := time.Now()
	fx := &fixture{w: w, dbs: map[string]*database{}}

	var built []*database
	var source []*task
	if w.scale {
		gen, err := generateScale(r.sz.scaleRows, fixtureSeed)
		if err != nil {
			return nil, err
		}
		if source, err = gen.Tasks(r.sz.scaleTasks, fixtureSeed); err != nil {
			return nil, err
		}
		fx.gen, built = gen, []*database{gen.DB}
	} else {
		var all []*task
		built, all = spiderDev()
		for i := 0; i < len(all); i += r.sz.spiderStride {
			source = append(source, all[i])
		}
	}

	store, err := newSegmentStore(dir)
	if err != nil {
		return nil, err
	}
	fx.store = store
	fx.eng = newEngine(w.maxCandidates, 0, 0)
	for _, db := range built {
		t0 := time.Now()
		if _, err := store.PersistAs(db.Name, db); err != nil {
			return nil, err
		}
		t1 := time.Now()
		loaded, info, err := store.Load(db.Name)
		if err != nil {
			return nil, err
		}
		fx.persistMs += ms(t1.Sub(t0))
		fx.loadMs += ms(time.Since(t1))
		fx.segBytes += info.Bytes
		fx.rows += loaded.TotalRows()
		if err := fx.eng.Register(loaded); err != nil {
			return nil, err
		}
		fx.dbs[loaded.Name] = loaded
	}

	for i, t := range source {
		bt := benchTask{id: t.ID, db: t.DB.Name, gold: t.Gold, source: t,
			in: input{NLQ: t.NLQ, Literals: t.Literals, Deadline: requestDeadline}}
		if w.dual {
			if bt.in.Sketch, err = fullTSQ(t, fixtureSeed+int64(i)); err != nil {
				return nil, fmt.Errorf("task %s: %w", t.ID, err)
			}
		}
		fx.tasks = append(fx.tasks, bt)
	}

	// Reference pass: warm-up, reference candidate lists and accuracy.
	t0 := time.Now()
	sessions, err := openSessions(fx)
	if err != nil {
		return nil, err
	}
	fx.ref = make([]string, len(fx.tasks))
	for i, bt := range fx.tasks {
		res, err := sessions[bt.db].Synthesize(context.Background(), bt.in)
		if err != nil {
			r.fail(fx, "reference %s: %v", bt.id, err)
			continue
		}
		if res.Truncated {
			r.fail(fx, "reference %s: truncated", bt.id)
		}
		fx.ref[i] = candidateList(res)
		gold := bt.gold.Canonical()
		for rank, c := range res.Candidates {
			if c.Query.Canonical() == gold {
				fx.topk++
				if rank == 0 {
					fx.top1++
				}
				break
			}
		}
	}
	fx.coldPassMs = ms(time.Since(t0))
	fx.setupS = time.Since(start).Seconds()
	return fx, nil
}

// identity is the list order 0..n-1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// batch is the i-th ingest batch of this run's seed: ingestRows rows of the
// frozen table tb from a seed-dependent offset.
func (r *run) batch(tb *table, i int) []columnData {
	return ingestBatch(tb, (int(r.seed%1000)+i)*ingestRows, ingestRows)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// openSessions opens one session per registered database.
func openSessions(fx *fixture) (map[string]*session, error) {
	out := map[string]*session{}
	for name := range fx.dbs {
		s, err := fx.eng.Session(name)
		if err != nil {
			return nil, err
		}
		out[name] = s
	}
	return out, nil
}

// candidateList is a result's ranked candidates as one comparable string.
func candidateList(res *result) string {
	parts := make([]string, len(res.Candidates))
	for i, c := range res.Candidates {
		parts[i] = c.Query.Canonical()
	}
	return strings.Join(parts, "\n")
}

// timedOp is one completed operation of the timed phase.
type timedOp struct {
	task  int // -1 for an append
	lat   time.Duration
	first time.Duration // call to first emit; 0 if nothing was emitted
	cands []candidate
	err   error
	trunc bool
}

// timed is the untraced, closed-loop, multi-client phase all end-to-end
// numbers come from.
type timed struct {
	ops      []timedOp
	wall     time.Duration
	allocMB  float64 // MemStats.TotalAlloc delta
	gcShare  float64 // GC CPU seconds / total CPU seconds
	gcCycles float64
	mallocs  float64
}

// runTimed drives the closed loop: r.clients goroutines, each owning its
// sessions, draw operations from one shared sequence. The operation
// sequence is a concatenation of passes — a seeded shuffle of the task list,
// preceded on an ingest workload by one append — and the phase ends at the
// first pass boundary after r.seconds have elapsed and sz.minReads reads are
// in, so every task weighs the same in every percentile.
func (r *run) runTimed(fx *fixture) (*timed, error) {
	n := len(fx.tasks)
	// A pass is every task once in a seeded shuffle. An ingest pass is one
	// append followed by every task once in list order: what a read costs
	// there depends on how soon after the append it runs, so with shuffled
	// passes the seed, not the engine, decided the percentiles (measured
	// spread of synth_ms_p95 over ten seeds: 38 % shuffled, 9 % in list order).
	passLen := n
	if fx.w.ingest {
		passLen++
	}
	// draw hands out the next operation. The sequence is generated, and the
	// end of the phase decided, under one lock: the phase ends exactly at a
	// pass boundary, whichever client gets there.
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		order   = identity(n) // the current pass's reads
		rng     = rand.New(rand.NewSource(r.seed*7919 + 17))
		start   time.Time
	)
	deadline := time.Duration(r.seconds * float64(time.Second))
	draw := func() (pass, task int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		pass, slot := next/passLen, next%passLen
		if slot == 0 {
			if pass > 0 && time.Since(start) >= deadline && pass*n >= r.sz.minReads {
				stopped = true
			}
			if !fx.w.ingest {
				order = rng.Perm(n)
			}
		}
		if stopped {
			return 0, 0, false
		}
		next++
		if fx.w.ingest {
			slot--
		}
		if slot < 0 {
			return pass, -1, true
		}
		return pass, order[slot], true
	}
	var ingestTable *table
	if fx.w.ingest {
		// Batches cycle rows of the largest table as it was generated: the
		// registered copy grows under the appends, this one does not.
		_, ingestTable = largestTable(map[string]*database{fx.gen.DB.Name: fx.gen.DB})
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rtBefore := readRuntime()

	var (
		wg    sync.WaitGroup
		perCl = make([][]timedOp, r.clients)
		errs  = make([]error, r.clients)
	)
	start = time.Now()
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sessions, err := openSessions(fx)
			if err != nil {
				errs[c] = err
				return
			}
			for {
				pass, ti, ok := draw()
				if !ok {
					return
				}
				op := timedOp{task: ti}
				if ti < 0 {
					batch := r.batch(ingestTable, pass)
					t0 := time.Now()
					_, op.err = fx.eng.Append(fx.gen.DB.Name, ingestTable.Name, batch)
					op.lat = time.Since(t0)
				} else {
					bt := fx.tasks[ti]
					t0 := time.Now()
					res, err := sessions[bt.db].SynthesizeStream(context.Background(), bt.in, func(candidate) bool {
						if op.first == 0 {
							op.first = time.Since(t0)
						}
						return true
					})
					op.lat = time.Since(t0)
					if op.err = err; err == nil {
						op.cands, op.trunc = res.Candidates, res.Truncated
					}
				}
				perCl[c] = append(perCl[c], op)
			}
		}(c)
	}
	wg.Wait()
	td := &timed{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	rtAfter := readRuntime()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, ops := range perCl {
		td.ops = append(td.ops, ops...)
	}
	td.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	td.gcShare = ratio(rtAfter.gcCPU-rtBefore.gcCPU, rtAfter.totalCPU-rtBefore.totalCPU)
	td.gcCycles = rtAfter.gcCycles - rtBefore.gcCycles
	td.mallocs = rtAfter.mallocs - rtBefore.mallocs
	return td, nil
}

// runtimeSample is the runtime/metrics view the per-layer runtime.* metrics
// are deltas of.
type runtimeSample struct{ gcCPU, totalCPU, gcCycles, mallocs float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// endToEndMetrics turns a fixture and its timed phase into the declared
// end-to-end metrics, recording failures on the fixture as it goes.
func (r *run) endToEndMetrics(fx *fixture, td *timed, setupS float64) (metricSet, error) {
	var readMs, firstMs []float64
	for _, op := range td.ops {
		switch {
		case op.err != nil:
			r.fail(fx, "timed op (task %d): %v", op.task, op.err)
		case op.trunc:
			r.fail(fx, "timed %s: truncated", fx.tasks[op.task].id)
		case op.task >= 0:
			readMs = append(readMs, ms(op.lat))
			if op.first > 0 {
				firstMs = append(firstMs, ms(op.first))
			}
		}
	}
	// A toy run has too few reads for a p95 and reports 0.
	p95, err := percentile(readMs, 0.95)
	if err != nil && r.sz == fullSizes {
		return nil, fmt.Errorf("synth_ms_p95: %w", err)
	}
	r.logf("  n: %d timed ops (%d reads, %d emitted) in %.2fs over %d clients\n",
		len(td.ops), len(readMs), len(firstMs), td.wall.Seconds(), r.clients)
	ops := float64(len(td.ops))
	return metricSet{
		"setup_s":           setupS,
		"synth_ms_p50":      median(readMs),
		"synth_ms_p95":      p95,
		"first_cand_ms_p50": median(firstMs),
		"throughput_rps":    ops / td.wall.Seconds(),
		"top1_acc":          ratio(float64(fx.top1), float64(len(fx.tasks))),
		"topk_acc":          ratio(float64(fx.topk), float64(len(fx.tasks))),
		"alloc_mb_per_req":  td.allocMB / ops,
		"live_heap_mb":      liveHeapMB(td),
	}, nil
}

// liveHeapMB is HeapInuse after a GC once the phase's own bookkeeping (the
// candidates kept for the correctness checks) is released: what the engine
// holds on to — databases, caches, retained epochs.
func liveHeapMB(td *timed) float64 {
	for i := range td.ops {
		td.ops[i].cands = nil
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / 1e6
}

// checkSoundness is the paper's contract: every emitted candidate satisfies
// the TSQ on the database it was verified against. Each distinct (task,
// canonical SQL) of the reference pass and the timed phase is previewed on
// the same engine and matched against the task's sketch. An ingest workload
// moved the head under the timed candidates, so there the candidates of a
// quiesced single-client pass at the head epoch are checked instead.
func (r *run) checkSoundness(fx *fixture, td *timed) (checked int, err error) {
	if !fx.w.dual {
		return 0, nil
	}
	sessions, err := openSessions(fx)
	if err != nil {
		return 0, err
	}
	byTask := make([]map[string]*query, len(fx.tasks))
	note := func(ti int, cands []candidate) {
		if byTask[ti] == nil {
			byTask[ti] = map[string]*query{}
		}
		for _, c := range cands {
			byTask[ti][c.Query.Canonical()] = c.Query
		}
	}
	if fx.w.ingest {
		for ti, bt := range fx.tasks {
			res, err := sessions[bt.db].Synthesize(context.Background(), bt.in)
			if err != nil || res.Truncated {
				r.fail(fx, "quiesced %s: err=%v truncated=%v", bt.id, err, res != nil && res.Truncated)
				continue
			}
			note(ti, res.Candidates)
		}
	} else {
		for _, op := range td.ops {
			if op.task >= 0 {
				note(op.task, op.cands)
			}
		}
	}
	for ti, qs := range byTask {
		bt := fx.tasks[ti]
		for sql, q := range qs {
			checked++
			res, err := sessions[bt.db].Preview(q, 0)
			if err != nil {
				r.fail(fx, "unsound %s: preview of %s: %v", bt.id, sql, err)
			} else if !bt.in.Sketch.Satisfies(res) {
				r.fail(fx, "unsound %s: %s does not satisfy the TSQ", bt.id, sql)
			}
		}
	}
	return checked, nil
}

// refMismatches lists the tasks whose timed candidate list differed from
// the reference pass at least once, and the share of timed reads that did.
// It is reported, not failed: tie order under ORDER BY COUNT(*) depends on
// join-cache history when clients run concurrently (see README, known
// cliffs), and on an ingest workload the head legitimately moves.
func refMismatches(fx *fixture, td *timed) (frac float64, ids []string) {
	reads, bad := 0, 0
	seen := map[int]bool{}
	for _, op := range td.ops {
		if op.task < 0 || op.err != nil {
			continue
		}
		reads++
		if candidateList(&result{Candidates: op.cands}) != fx.ref[op.task] {
			bad++
			if !seen[op.task] {
				seen[op.task] = true
				ids = append(ids, fx.tasks[op.task].id)
			}
		}
	}
	return ratio(float64(bad), float64(reads)), ids
}

// outcome is one workload's result: the contract's result line plus what
// the human-readable report and -compare need.
type outcome struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Failures  []string            `json:"failures,omitempty"`
}

// runWorkload runs one workload end to end: set-ups, the timed phase, the
// correctness gate and — with r.trace — the traced pass. The engine and its
// databases are dropped and the heap returned before it reports.
func (r *run) runWorkload(w workload) (*outcome, error) {
	defer func() {
		runtime.GC()
		debug.FreeOSMemory()
	}()
	segRoot, err := os.MkdirTemp(r.outDir, "segments-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(segRoot)

	// setup_s is the median of several full set-ups; the last one's engine
	// is the one measured. Traced runs report no setup_s and set up once.
	setups := r.sz.setups
	if r.trace {
		setups = 1
	}
	var fx *fixture
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		fx = nil
		runtime.GC()
		debug.FreeOSMemory()
		if fx, err = r.setUp(w, filepath.Join(segRoot, fmt.Sprint(i))); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupTimes = append(setupTimes, fx.setupS)
	}
	r.logf("%s (seed %d): %d tasks, %d rows, set-ups %.3v s\n", w.Name, r.seed, len(fx.tasks), fx.rows, setupTimes)

	td, err := r.runTimed(fx)
	if err != nil {
		return nil, fmt.Errorf("%s: timed phase: %w", w.Name, err)
	}
	checked, err := r.checkSoundness(fx, td)
	if err != nil {
		return nil, fmt.Errorf("%s: soundness: %w", w.Name, err)
	}
	mismatch, ids := refMismatches(fx, td)
	e2e, err := r.endToEndMetrics(fx, td, median(setupTimes)) // releases the candidates
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.logf("  soundness: %d distinct (task, SQL) previewed; service.ref_mismatch_frac %.4f %v\n", checked, mismatch, ids)
	if want, ok := recorded[w.Name]; ok && r.sz == fullSizes {
		if len(fx.tasks) != want.tasks || fx.top1 < want.top1 || fx.topk < want.topk {
			r.fail(fx, "accuracy fell below the recorded one: top1 %d (recorded %d), topk %d (recorded %d) of %d tasks (recorded %d)",
				fx.top1, want.top1, fx.topk, want.topk, len(fx.tasks), want.tasks)
		} else if fx.top1 > want.top1 || fx.topk > want.topk {
			r.logf("  accuracy is above the recorded one (top1 %d, topk %d)\n", want.top1, want.topk)
		}
	}

	out := &outcome{Workload: w.Name, Seed: r.seed, Trace: r.trace,
		Attempted: len(fx.tasks) + len(td.ops)}
	decl, values := endToEnd, e2e
	if r.trace {
		layer, err := r.tracedPass(fx, td)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
		}
		layer["service.ref_mismatch_frac"] = mismatch
		decl, values = perLayer, layer
	}
	if out.Metrics, err = render(decl, values); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	out.Failures = fx.failures
	out.Failed = min(len(fx.failures), out.Attempted) // one request can fail twice (truncated and unsound)
	out.Correct = out.Failed == 0
	r.report(out, decl, fx, td)
	return out, nil
}

// render matches measured values against a declaration table; a declared
// metric without a value, or a value without a declaration, is an error.
func render(decl []metricDef, values metricSet) (map[string]measured, error) {
	out := map[string]measured{}
	for _, d := range decl {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return out, nil
}

// report prints every metric by name and unit, with the sample count beside
// the timings, for a person to read; the machine reads the result line.
func (r *run) report(out *outcome, decl []metricDef, fx *fixture, td *timed) {
	r.logf("  accuracy: top1 %d/%d, top%d %d/%d\n", fx.top1, len(fx.tasks), fx.w.maxCandidates, fx.topk, len(fx.tasks))
	for _, d := range decl {
		r.logf("  %-44s %14.4f %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	r.logf("  failed %d of %d attempted (failed_frac %.4f)\n", out.Failed, out.Attempted, ratio(float64(out.Failed), float64(out.Attempted)))
	for i, f := range out.Failures {
		if i == 10 {
			r.logf("  ... and %d more\n", len(out.Failures)-10)
			break
		}
		r.logf("  FAIL %s\n", f)
	}
}

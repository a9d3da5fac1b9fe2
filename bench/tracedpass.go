package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// replayCap bounds the partial queries kept for the verify replay.
const replayCap = 100_000

// replayItem is one traced request's verify-replay input: every partial
// query guidance was asked to expand plus every emitted candidate.
type replayItem struct {
	task    int
	queries []*query
}

// tracedPass produces the per-layer metrics. Counts and times that only the
// multi-client phase can give (runtime.*, morsel fan-out, appends, epochs)
// come from the timed phase just run; everything else comes from single-
// client passes on an engine rebuilt with Workers=1, QueryParallelism=1, so
// that spans nest on one goroutine:
//
//	session pass   Session.Synthesize per request            → service.overhead
//	control pass   composed pipeline, no tracer              → trace.overhead
//	traced pass    composed pipeline, spans at each boundary → shares, counts
//	replays        VerifyCtx / ExistsCtx / ExecuteCtx called directly, cold and warm
//	storage        Database.Append + Snapshot on a private copy
//	epoch tax      {Engine.Append; pass} rounds (ingest workloads)
func (r *run) tracedPass(fx *fixture, td *timed) (metricSet, error) {
	m := metricSet{}
	ops := float64(len(td.ops))

	// From the timed phase.
	st := fx.eng.Stats()
	var pl pipeline
	var requests, joinPaths, epochsLive, epochsRetired float64
	for _, d := range st.Databases {
		requests += float64(d.Requests)
		joinPaths += float64(d.Cache.JoinPaths)
		epochsLive += float64(d.EpochsLive)
		epochsRetired += float64(d.EpochsRetired)
		pl.MorselRuns += d.Cache.Pipeline.MorselRuns
		pl.MorselWorkers += d.Cache.Pipeline.MorselWorkers
	}
	var appendMs []float64
	for _, op := range td.ops {
		if op.task < 0 && op.err == nil {
			appendMs = append(appendMs, ms(op.lat))
		}
	}
	m["sqlexec.morsel_runs_per_req"] = ratio(float64(pl.MorselRuns), requests)
	m["sqlexec.avg_morsel_workers"] = pl.AvgMorselWorkers()
	m["service.append_ms_p50"] = median(appendMs)
	m["service.epochs_live"] = epochsLive
	m["service.epochs_retired"] = epochsRetired
	m["service.join_paths"] = joinPaths
	m["runtime.gc_cpu_share"] = td.gcShare
	m["runtime.gc_cycles_per_req"] = td.gcCycles / ops
	m["runtime.mallocs_per_req"] = td.mallocs / ops

	// From set-up.
	m["segment.persist_ms"] = fx.persistMs
	m["segment.load_ms"] = fx.loadMs
	m["segment.bytes_per_row"] = ratio(float64(fx.segBytes), float64(fx.rows))
	m["service.cold_pass_ms"] = fx.coldPassMs
	for _, db := range fx.dbs {
		v, d := footprintMB(db.Snapshot())
		m["storage.vector_mb"] += v
		m["storage.dict_mb"] += d
	}

	// Rebuild the engine single-threaded over the same loaded databases.
	fx.eng = nil
	runtime.GC()
	debug.FreeOSMemory()
	fx.eng = newEngine(fx.w.maxCandidates, 1, 1)
	for _, db := range fx.dbs {
		if err := fx.eng.Register(db); err != nil {
			return nil, err
		}
	}
	sessions, err := openSessions(fx)
	if err != nil {
		return nil, err
	}
	var sample []int // the tasks the single-client passes run
	stride := 1
	if !fx.w.scale {
		stride = r.sz.traceStride
	}
	for i := 0; i < len(fx.tasks); i += stride {
		sample = append(sample, i)
	}
	ctx := context.Background()

	heads := map[string]*headCache{}
	control, traced := map[string]*composed{}, map[string]*composed{}
	tr := newTracer()
	counts := &layerCounts{}
	for name, db := range fx.dbs {
		heads[name] = &headCache{}
		control[name] = newComposed(db, fx.w.maxCandidates, heads[name], nil, nil)
		traced[name] = newComposed(db, fx.w.maxCandidates, heads[name], tr, counts)
	}
	joinStats := func() (p pipeline) {
		for _, h := range heads {
			if h.cache != nil {
				s := h.cache.Joins().Stats()
				p.StreamedExists += s.StreamedExists
				p.FallbackExists += s.FallbackExists
				p.IndexSeeds += s.IndexSeeds
				p.IndexProbes += s.IndexProbes
			}
		}
		return p
	}
	// timeOne runs one request through fn and returns its latency in µs.
	timeOne := func(bt benchTask, fn func() (*result, error)) (float64, *result, error) {
		t0 := time.Now()
		res, err := fn()
		d := us(time.Since(t0))
		if err != nil || res.Truncated {
			return 0, nil, fmt.Errorf("single-client pass %s: err=%v truncated=%v", bt.id, err, res != nil && res.Truncated)
		}
		return d, res, nil
	}
	viaSession := func(bt benchTask) (float64, *result, error) {
		return timeOne(bt, func() (*result, error) { return sessions[bt.db].Synthesize(ctx, bt.in) })
	}
	viaControl := func(bt benchTask) (float64, *result, error) {
		return timeOne(bt, func() (*result, error) { res, _, err := control[bt.db].request(ctx, bt.in); return res, err })
	}
	sessionPass := func() ([]float64, error) {
		lat := make([]float64, 0, len(sample))
		for _, ti := range sample {
			d, _, err := viaSession(fx.tasks[ti])
			if err != nil {
				return nil, err
			}
			lat = append(lat, d)
		}
		return lat, nil
	}

	// Warm-ups: one pass through the session (the new engine's shards) and
	// one through the composed pipeline (the benchmark-owned caches). The
	// second starts cold and single-threaded, so its executor counts repeat
	// exactly; they are the sqlexec.*_per_req metrics.
	if _, err := sessionPass(); err != nil {
		return nil, err
	}
	for _, ti := range sample {
		if _, _, err := viaControl(fx.tasks[ti]); err != nil {
			return nil, err
		}
	}
	coldPass := joinStats()

	// Measured loop: each sampled request goes through the session, the
	// untraced composed pipeline and the traced one back to back, so the
	// overheads are differences within a request, not between passes a
	// minute apart on a machine whose speed drifts.
	var (
		sessionUs, overheadUs, traceShare []float64
		replay                            []replayItem
		replayed                          int
		states, cands                     float64
		vs                                verifyStats
		rejected                          = map[string]float64{}
	)
	for req, ti := range sample {
		bt := fx.tasks[ti]
		viaS, _, err := viaSession(bt)
		if err != nil {
			return nil, err
		}
		plain, _, err := viaControl(bt)
		if err != nil {
			return nil, err
		}
		tr.request, counts.expanded = req, nil
		var stats verifyStats
		withSpans, res, err := timeOne(bt, func() (*result, error) {
			res, st, err := traced[bt.db].request(ctx, bt.in)
			stats = st
			return res, err
		})
		if err != nil {
			return nil, err
		}
		sessionUs = append(sessionUs, viaS)
		overheadUs = append(overheadUs, viaS-plain)
		traceShare = append(traceShare, ratio(withSpans-plain, plain))
		states += float64(res.States)
		cands += float64(len(res.Candidates))
		vs.Checked += stats.Checked
		vs.ColumnCache += stats.ColumnCache
		vs.DBQueries += stats.DBQueries
		for stage, n := range stats.Rejected {
			rejected[string(stage)] += float64(n)
		}
		if replayed < replayCap {
			qs := counts.expanded
			for _, c := range res.Candidates {
				qs = append(qs, c.Query)
			}
			replay = append(replay, replayItem{ti, qs})
			replayed += len(qs)
		}
	}

	layers, err := selfTimes(tr.spans)
	if err != nil {
		return nil, err
	}
	path, err := writeSpans(r.outDir, fx.w.Name, tr.spans)
	if err != nil {
		return nil, err
	}
	nreq := float64(len(sample))
	layer := func(name string) *layerTime {
		if lt := layers[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	root, search := layer("service.request"), layer("enumerate.search")
	guid, sem := layer("guidance.score"), layer("semrules.check")
	r.logf("  traced pass: %d requests, %d spans → %s\n", len(sample), len(tr.spans), path)
	for _, name := range []string{"service.request", "storage.snapshot", "verify.new", "enumerate.search", "guidance.score", "semrules.check"} {
		lt := layer(name)
		r.logf("    %-18s calls %8d  total %10.2f ms  self %10.2f ms (%5.1f%% of requests)\n",
			name, lt.calls, float64(lt.total)/1e6, float64(lt.self)/1e6, 100*ratio(float64(lt.self), float64(root.total)))
	}

	var searchMs, snapUs []float64
	for _, s := range tr.spans {
		switch s.Name {
		case "enumerate.search":
			searchMs = append(searchMs, float64(s.dur())/1e6)
		case "storage.snapshot":
			snapUs = append(snapUs, float64(s.dur())/1e3)
		}
	}
	m["enumerate.search_ms_p50"] = median(searchMs)
	m["enumerate.us_per_state"] = ratio(float64(search.total)/1e3, states)
	m["enumerate.self_share"] = ratio(float64(search.self), float64(root.total))
	m["enumerate.states_per_req"] = states / nreq
	m["enumerate.cands_per_req"] = cands / nreq
	m["guidance.share"] = ratio(float64(guid.total), float64(root.total))
	m["guidance.calls_per_req"] = float64(counts.guidanceCalls) / nreq
	m["guidance.us_per_call"] = ratio(float64(guid.total)/1e3, float64(guid.calls))
	m["semrules.share"] = ratio(float64(sem.total), float64(root.total))
	m["semrules.checks_per_req"] = float64(counts.semChecks) / nreq
	m["semrules.us_per_check"] = ratio(float64(sem.total)/1e3, float64(sem.calls))
	m["semrules.reject_rate"] = ratio(float64(counts.semRejects), float64(counts.semChecks))
	m["storage.snapshot_us_p50"] = median(snapUs)
	var rejectedAll float64
	for _, st := range verifyStages {
		m["verify.rejected."+string(st)+"_per_req"] = rejected[string(st)] / nreq
		rejectedAll += rejected[string(st)]
	}
	m["verify.checks_per_req"] = float64(vs.Checked) / nreq
	m["verify.reject_rate"] = ratio(rejectedAll, float64(vs.Checked))
	m["verify.column_memo_hits_per_req"] = float64(vs.ColumnCache) / nreq
	m["verify.db_queries_per_req"] = float64(vs.DBQueries) / nreq
	m["sqlexec.streamed_exists_per_req"] = float64(coldPass.StreamedExists) / nreq
	m["sqlexec.fallback_exists_per_req"] = float64(coldPass.FallbackExists) / nreq
	m["sqlexec.index_hits_per_req"] = float64(coldPass.IndexHits()) / nreq
	m["service.overhead_us_p50"] = median(overheadUs)
	m["service.warm_pass_ms"] = sum(sessionUs) / 1e3
	m["trace.overhead_share"] = median(traceShare)

	if err := r.replays(ctx, fx, heads, replay, sample, m); err != nil {
		return nil, err
	}
	if err := r.storageAppends(fx, m); err != nil {
		return nil, err
	}
	if err := r.epochTax(fx, m, sessionPass); err != nil {
		return nil, err
	}
	return m, nil
}

// replays calls verify and sqlexec directly, outside any request, against
// fresh caches over the head snapshots the traced pass used: the first
// traversal of an input is cold, the second warm.
func (r *run) replays(ctx context.Context, fx *fixture, heads map[string]*headCache, replay []replayItem, sample []int, m metricSet) error {
	fresh := map[string]*verifyCache{}
	for name, h := range heads {
		if h.snap != nil { // a database none of the sampled tasks touch has no head cache
			fresh[name] = newVerifyCache(h.snap)
		}
	}
	verifyReplay := func() ([]float64, error) {
		var out []float64
		for _, it := range replay {
			bt := fx.tasks[it.task]
			v := newVerifier(heads[bt.db].snap, bt.in, fresh[bt.db])
			for _, q := range it.queries {
				t0 := time.Now()
				_, err := v.VerifyCtx(ctx, q)
				out = append(out, us(time.Since(t0)))
				if err != nil {
					return nil, fmt.Errorf("verify replay %s: %w", bt.id, err)
				}
			}
		}
		return out, nil
	}
	coldUs, err := verifyReplay()
	if err != nil {
		return err
	}
	warmUs, err := verifyReplay()
	if err != nil {
		return err
	}
	m["verify.replay_cold_us_p50"] = median(coldUs)
	m["verify.replay_warm_us_p50"] = median(warmUs)
	if m["verify.replay_warm_us_p95"], err = percentile(warmUs, 0.95); err != nil && r.sz == fullSizes {
		return fmt.Errorf("verify.replay_warm_us_p95: %w", err)
	}

	var existsCold, existsWarm []float64
	if fx.gen != nil {
		probes := fx.gen.Probes(r.sz.probes, r.seed+1)
		joins := fresh[fx.gen.DB.Name].Joins()
		for _, dst := range []*[]float64{&existsCold, &existsWarm} {
			for _, p := range probes {
				t0 := time.Now()
				_, err := joins.ExistsCtx(ctx, p)
				*dst = append(*dst, us(time.Since(t0)))
				if err != nil {
					return fmt.Errorf("exists replay: %w", err)
				}
			}
		}
	}
	m["sqlexec.exists_cold_us_p50"] = median(existsCold)
	m["sqlexec.exists_warm_us_p50"] = median(existsWarm)
	var coldEnd pipeline
	for _, c := range fresh {
		s := c.Joins().Stats()
		coldEnd.JoinsBuilt += s.JoinsBuilt
		coldEnd.PrefixHits += s.PrefixHits
	}
	m["sqlexec.joins_built"] = float64(coldEnd.JoinsBuilt)
	m["sqlexec.prefix_hit_rate"] = ratio(float64(coldEnd.PrefixHits), float64(coldEnd.PrefixHits+coldEnd.JoinsBuilt))
	var goldMs []float64
	for _, ti := range sample {
		bt := fx.tasks[ti]
		t0 := time.Now()
		_, err := fresh[bt.db].Joins().ExecuteCtx(ctx, bt.gold)
		goldMs = append(goldMs, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("execute gold %s: %w", bt.id, err)
		}
	}
	m["sqlexec.execute_gold_ms_p50"] = median(goldMs)
	return nil
}

// largestTable returns the table with the most rows across dbs, and its
// database.
func largestTable(dbs map[string]*database) (db *database, tb *table) {
	for _, d := range dbs {
		for _, t := range d.Schema.Tables {
			if tb == nil || t.NumRows() > tb.NumRows() || (t.NumRows() == tb.NumRows() && d.Name+t.Name < db.Name+tb.Name) {
				db, tb = d, t
			}
		}
	}
	return db, tb
}

// storageAppends times Database.Append and the Snapshot after it on a
// private copy of the largest table's database (loaded again from the
// segment store), with the same batches the ingest workload sends.
func (r *run) storageAppends(fx *fixture, m metricSet) error {
	src, _ := largestTable(fx.dbs)
	private, _, err := fx.store.Load(src.Name)
	if err != nil {
		return err
	}
	_, tb := largestTable(map[string]*database{private.Name: private})
	frozen := private.Snapshot().Table(tb.Name)
	var appendUs, snapUs []float64
	for i := 0; i < 16; i++ {
		batch := r.batch(frozen, i)
		t0 := time.Now()
		if _, err := private.Append(tb.Name, batch); err != nil {
			return err
		}
		t1 := time.Now()
		private.Snapshot()
		appendUs = append(appendUs, us(t1.Sub(t0)))
		snapUs = append(snapUs, us(time.Since(t1)))
	}
	m["storage.append_us_p50"] = median(appendUs)
	m["storage.snapshot_after_append_us_p50"] = median(snapUs)
	return nil
}

// epochTax measures what one append costs the reads that follow it, on the
// quiet single-threaded engine: rounds of {Engine.Append; one pass over the
// tasks}. ratio = median post-append pass / warm pass. Workloads that never
// append report 0 for the pair.
func (r *run) epochTax(fx *fixture, m metricSet, pass func() ([]float64, error)) error {
	m["service.post_append_pass_ms"], m["service.epoch_tax_ratio"] = 0, 0
	if !fx.w.ingest {
		return nil
	}
	db, tb := largestTable(fx.dbs)
	frozen := db.Snapshot().Table(tb.Name)
	var passMs []float64
	for i := 0; i < r.sz.taxRounds; i++ {
		batch := r.batch(frozen, 1000+i) // offsets the timed phase did not send
		if _, err := fx.eng.Append(db.Name, tb.Name, batch); err != nil {
			return err
		}
		lat, err := pass()
		if err != nil {
			return err
		}
		passMs = append(passMs, sum(lat)/1e3)
	}
	m["service.post_append_pass_ms"] = median(passMs)
	m["service.epoch_tax_ratio"] = ratio(median(passMs), m["service.warm_pass_ms"])
	r.logf("  epoch tax: warm pass %.1f ms, post-append passes %.1f ms\n", m["service.warm_pass_ms"], passMs)
	return nil
}

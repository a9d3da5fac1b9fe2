package service

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// movieBatch is one deterministic ingest payload for the movies database:
// four movie rows keyed off base, with years spread around the workload's
// 1995 predicate so head-epoch readers genuinely see different answers.
func movieBatch(base int) []storage.ColumnData {
	const n = 4
	mids := make([]float64, n)
	titles := make([]string, n)
	years := make([]float64, n)
	for i := 0; i < n; i++ {
		mids[i] = float64(1000 + base + i)
		titles[i] = fmt.Sprintf("Ingest Movie %d", base+i)
		years[i] = float64(1980 + (base+i)%30)
	}
	return []storage.ColumnData{{Nums: mids}, {Texts: titles}, {Nums: years}}
}

// TestPinnedEpochDifferentialUnderIngest is the acceptance-criteria proof
// for epoch isolation: a session pinned at epoch E, running concurrently
// with live ingest, returns results byte-identical to the same workload run
// against a frozen pre-ingest copy of the database. The oracle engine never
// sees a write; the live engine takes 16 Append batches mid-flight.
func TestPinnedEpochDifferentialUnderIngest(t *testing.T) {
	var work []Input
	for _, w := range mixedWorkload() {
		if w.db == "movies" {
			work = append(work, w.in)
		}
	}

	// Oracle: a frozen copy — the same dataset, no ingest, sequential runs.
	oracle := newTestEngine(t, workloadOptions())
	os, err := oracle.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(work))
	for i, in := range work {
		res, err := os.Synthesize(context.Background(), in)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		want[i] = describe(res.Candidates)
	}

	// Live engine: pin the pre-ingest epoch, then ingest and read at once.
	live := newTestEngine(t, workloadOptions())
	pin, err := live.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	preRows := pin.Database().Table("movie").NumRows()

	const writers, batchesPer = 2, 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers*batchesPer+rounds*len(work))
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batchesPer; i++ {
				if _, err := live.Append("movies", "movie", movieBatch((w*batchesPer+i)*4)); err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		for i, in := range work {
			wg.Add(1)
			go func(r, i int, in Input) {
				defer wg.Done()
				res, err := pin.Synthesize(context.Background(), in)
				if err != nil {
					errs <- fmt.Errorf("round %d request %d: %w", r, i, err)
					return
				}
				if got := describe(res.Candidates); !equalStrings(got, want[i]) {
					errs <- fmt.Errorf("round %d request %d diverged from frozen oracle:\n got %v\nwant %v", r, i, got, want[i])
				}
			}(r, i, in)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// One more pinned request after ingest settles, so the lag accounting
	// below is deterministic.
	if res, err := pin.Synthesize(context.Background(), work[0]); err != nil {
		t.Fatal(err)
	} else if got := describe(res.Candidates); !equalStrings(got, want[0]) {
		t.Errorf("post-ingest pinned run diverged:\n got %v\nwant %v", got, want[0])
	}

	// The pinned view never moved; the head took every batch.
	const totalBatches = writers * batchesPer
	if got := pin.Database().Table("movie").NumRows(); got != preRows {
		t.Errorf("pinned movie rows = %d, want %d", got, preRows)
	}
	headDB, _ := live.Lookup("movies")
	if got := headDB.Snapshot().Table("movie").NumRows(); got != preRows+totalBatches*4 {
		t.Errorf("head movie rows = %d, want %d", got, preRows+totalBatches*4)
	}

	st := live.Stats().Databases[0]
	if st.Database != "movies" {
		t.Fatalf("stats order: %q", st.Database)
	}
	if st.Appends != totalBatches {
		t.Errorf("Appends = %d, want %d", st.Appends, totalBatches)
	}
	if st.HeadEpoch != pin.Epoch()+totalBatches {
		t.Errorf("HeadEpoch = %d, want %d", st.HeadEpoch, pin.Epoch()+totalBatches)
	}
	if st.EpochLagMax != totalBatches {
		t.Errorf("EpochLagMax = %d, want %d (final pinned request trails every batch)", st.EpochLagMax, totalBatches)
	}
	if st.EpochLagAvg <= 0 {
		t.Errorf("EpochLagAvg = %v, want > 0", st.EpochLagAvg)
	}
	var pinStats *EpochCacheStats
	for i := range st.Epochs {
		if st.Epochs[i].Epoch == pin.Epoch() {
			pinStats = &st.Epochs[i]
		}
	}
	if pinStats == nil {
		t.Fatalf("stats carry no shard entry for pinned epoch %d: %+v", pin.Epoch(), st.Epochs)
	}
	if wantReq := int64(rounds*len(work) + 1); pinStats.Requests != wantReq {
		t.Errorf("pinned shard requests = %d, want %d", pinStats.Requests, wantReq)
	}
}

// TestEpochRoutingAndErrors covers the request-level epoch surface:
// Input.Epoch resolution, shard sharing between equal epochs, pinned-session
// conflicts, and the loud failure for retired epochs.
func TestEpochRoutingAndErrors(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	e0 := snap.Epoch()
	if _, err := e.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}

	// SnapshotAt the old epoch shares the already-built shard (one cache per
	// epoch, not per handle).
	old, err := e.SnapshotAt("movies", e0)
	if err != nil {
		t.Fatal(err)
	}
	if old.Epoch() != e0 || old.pin != snap.pin {
		t.Errorf("SnapshotAt(%d) pin = %+v, want the shard %p shared with the first handle", e0, old.pin, snap.pin)
	}

	// An unpinned session routes Input.Epoch to the same shards.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	if sh, err := s.shard(e0); err != nil || sh != snap.pin {
		t.Errorf("shard(%d) = %p, %v; want %p", e0, sh, err, snap.pin)
	}
	head, err := s.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	if head.epoch != e0+1 {
		t.Errorf("head shard epoch = %d, want %d", head.epoch, e0+1)
	}

	// A pinned handle accepts its own epoch and rejects any other.
	in := moviesInput()
	in.Epoch = e0
	if _, err := snap.Synthesize(context.Background(), in); err != nil {
		t.Errorf("pinned synthesize at own epoch: %v", err)
	}
	in.Epoch = e0 + 1
	if _, err := snap.Synthesize(context.Background(), in); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("conflicting epoch error = %v, want pinned-session conflict", err)
	}

	// Sustained ingest past the storage retention ring: epochs with a live
	// service shard stay servable (the shard holds the frozen database), but
	// an epoch nobody ever read — no shard, and storage has retired the
	// number — is a loud error, not stale data.
	for i := 1; i < 20; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SnapshotAt("movies", e0); err != nil {
		t.Errorf("SnapshotAt(%d) with a live shard after 20 epochs: %v, want success", e0, err)
	}
	if sh, err := s.shard(e0); err != nil || sh != snap.pin {
		t.Errorf("shard(%d) = %p, %v; want the live pinned shard %p", e0, sh, err, snap.pin)
	}
	unread := e0 + 2 // published by an append, never read, retired by storage
	if _, err := e.SnapshotAt("movies", unread); err == nil {
		t.Errorf("SnapshotAt(%d) with no shard after 20 epochs should fail (retention)", unread)
	}
	if _, err := s.shard(unread); err == nil {
		t.Errorf("shard(%d) with no shard after 20 epochs should fail (retention)", unread)
	}
}

// TestServiceZeroEvictionsOnAppend is the service-level half of the
// zero-eviction regression: an Engine.Append during an in-flight pinned
// session must not evict one memo from that session's shared caches, while
// the next unpinned request observes the new rows.
func TestServiceZeroEvictionsOnAppend(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 3000, MaxCandidates: 4})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse(snap.Database().Schema, "SELECT title FROM movie WHERE year = 1994")
	if err != nil {
		t.Fatal(err)
	}
	prev, err := snap.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinnedRows := len(prev.Rows)
	probes := snap.pin.cache.Joins().Stats().StreamedExists

	if _, err := e.Append("movies", "movie", []storage.ColumnData{
		{Nums: []float64{999}},
		{Texts: []string{"The Shawshank Redemption"}},
		{Nums: []float64{1994}},
	}); err != nil {
		t.Fatal(err)
	}

	warm, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(warm.Candidates), describe(cold.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results changed across append:\n got %v\nwant %v", got, want)
	}
	if got := snap.pin.cache.Joins().Stats().StreamedExists; got != probes {
		t.Errorf("pinned rerun after append ran %d existence probes, want 0 (zero evictions: pure memo hits)", got-probes)
	}
	prev, err = snap.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Rows) != pinnedRows {
		t.Errorf("pinned preview rows = %d, want %d", len(prev.Rows), pinnedRows)
	}

	// The head epoch sees the appended 1994 title.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	prev, err = s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Rows) != pinnedRows+1 {
		t.Errorf("head preview rows = %d, want %d", len(prev.Rows), pinnedRows+1)
	}
}

// TestSnapshotSurvivesShardRetirement: with a tight EpochRetention the
// pinned shard falls out of the live map, but the handle keeps serving its
// epoch — retirement ends discoverability and per-epoch stats, not reads.
func TestSnapshotSurvivesShardRetirement(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3, EpochRetention: 2})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	preRows := snap.Database().Table("movie").NumRows()
	cold, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	// Each append plus a head-resolving request creates a new shard; with
	// retention 2 the pinned shard retires quickly.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.shard(0); err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats().Databases[0]
	if st.EpochsLive > 2 {
		t.Errorf("EpochsLive = %d, want <= 2", st.EpochsLive)
	}
	if st.EpochsRetired < 1 {
		t.Errorf("EpochsRetired = %d, want >= 1", st.EpochsRetired)
	}
	for _, ep := range st.Epochs {
		if ep.Epoch == snap.Epoch() {
			t.Errorf("pinned epoch %d still listed live after retirement", ep.Epoch)
		}
	}

	// The retired-but-pinned handle still answers, at its epoch.
	warm, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(warm.Candidates), describe(cold.Candidates); !equalStrings(got, want) {
		t.Errorf("retired pinned results changed:\n got %v\nwant %v", got, want)
	}
	if got := snap.Database().Table("movie").NumRows(); got != preRows {
		t.Errorf("pinned rows = %d, want %d", got, preRows)
	}
}

// TestOneShardPerEpochUnderConcurrentAppend: Append publishes and returns,
// and shardFor — under epochMu — is the only place a shard is made, so an
// epoch has one shard however readers and the writer race. Forty rounds of
// an Append racing four unpinned readers, with one pinned Snapshot held
// throughout: every reader that resolved an epoch got the same shard, a
// shard nobody read was never made, Stats never lists more than
// EpochRetention live shards, and the pinned handle answers as it first did.
func TestOneShardPerEpochUnderConcurrentAppend(t *testing.T) {
	const retention, rounds, readers = 3, 40, 4
	e := newTestEngine(t, Config{MaxStates: 400, MaxCandidates: 2, EpochRetention: retention})
	pin, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := pin.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	served := map[int64]*epochShard{}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(1 + readers)
		go func() {
			defer wg.Done()
			if _, err := e.Append("movies", "movie", movieBatch(r*4)); err != nil {
				t.Error(err)
			}
		}()
		for i := 0; i < readers; i++ {
			go func() {
				defer wg.Done()
				s, err := e.Session("movies")
				if err != nil {
					t.Error(err)
					return
				}
				sh, err := s.shard(0)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if first, ok := served[sh.epoch]; ok && first != sh {
					t.Errorf("epoch %d resolved to two shards", sh.epoch)
				}
				served[sh.epoch] = sh
				mu.Unlock()
				if _, err := s.Synthesize(context.Background(), moviesInput()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		st := e.Stats().Databases[0]
		if st.EpochsLive > retention || len(st.Epochs) > retention {
			t.Fatalf("round %d: %d shards live (%d listed), retention %d", r, st.EpochsLive, len(st.Epochs), retention)
		}
	}

	st := e.Stats().Databases[0]
	// Shards exist only for epochs a request resolved: those recorded above,
	// the epochs the readers' own Synthesize calls resolved, and the pin's.
	if made := st.EpochsLive + int(st.EpochsRetired); made > rounds+1 {
		t.Errorf("%d shards were made for %d published epochs", made, rounds+1)
	}
	again, err := pin.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(again.Candidates), describe(pinned.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results changed under ingest:\n got %v\nwant %v", got, want)
	}
}

// TestHeapPlateausUnderSustainedAppend: retained memory is bounded by
// construction — an epoch's shard holds memos and counters, never a
// relation, and both epoch rings are bounded — so under sustained ingest
// with unpinned readers and one pinned Snapshot the live heap stops growing
// once the rings are full: HeapInuse after GC at append 40 is within 10 % of
// append 20. (The batches are small so that the table's own growth stays
// well inside the bound.)
func TestHeapPlateausUnderSustainedAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the loadgen small preset and runs 40 ingest rounds")
	}
	spec, _ := loadgen.Preset("small")
	gen, err := loadgen.Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := gen.Tasks(6, 11)
	if err != nil {
		t.Fatal(err)
	}
	var work []Input
	for i, task := range tasks {
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		work = append(work, Input{NLQ: task.NLQ, Literals: task.Literals, Sketch: sk})
	}
	e := NewEngine(Config{MaxStates: 1500, MaxCandidates: 3})
	if err := e.Register(gen.DB); err != nil {
		t.Fatal(err)
	}
	pin, err := e.Snapshot(gen.DB.Name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Session(gen.DB.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest cycles the rows of the table the first task reads, so every
	// round invalidates memos the readers then rebuild.
	table := pin.Database().Table(tasks[0].Gold.From.Tables[0])

	heapAt := map[int]uint64{}
	for i := 1; i <= 40; i++ {
		if _, err := e.Append(gen.DB.Name, table.Name, loadgen.IngestBatch(table, i*16, 16)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c, in := range work {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reader := s
				if c == 0 {
					reader = pin.Session
				}
				if _, err := reader.Synthesize(context.Background(), in); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if i == 20 || i == 40 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapAt[i] = ms.HeapInuse
		}
	}
	if lo, hi := float64(heapAt[20]), float64(heapAt[40]); hi > 1.10*lo {
		t.Errorf("HeapInuse after GC: %.1f MB at append 20, %.1f MB at append 40 (+%.0f %%, bound 10 %%)",
			lo/1e6, hi/1e6, 100*(hi/lo-1))
	}
}

// TestPinSurvivesStorageRetention proves a pinned epoch stays servable past
// storage's bounded view ring: as long as the service retains the epoch's
// shard (whose frozen database is valid forever), a by-number pin resolves
// from the shard map even after sustained ingest has retired the epoch
// number from storage, and the results stay bit-stable.
func TestPinSurvivesStorageRetention(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 3000, MaxCandidates: 4})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	pin := snap.Epoch()
	before, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	// Race far past the storage retention window (16 epochs).
	for i := 0; i < 24; i++ {
		if _, err := e.Append("movies", "movie", []storage.ColumnData{
			{Nums: []float64{float64(1000 + i)}},
			{Texts: []string{fmt.Sprintf("Filler %d", i)}},
			{Nums: []float64{2000}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The raw storage view is gone...
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Database().SnapshotAt(pin); err == nil {
		t.Fatalf("storage still retains epoch %d; test needs to race past retention", pin)
	}
	// ...but the service still resolves the pin from its shard ring.
	in := moviesInput()
	in.Epoch = pin
	after, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatalf("pinned request after retention: %v", err)
	}
	if got, want := describe(after.Candidates), describe(before.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results drifted across retention:\n got %v\nwant %v", got, want)
	}
}

// TestNewEpochSnapshotNeverWaitsForAProbeInFlight: building a new epoch's
// shard reads the previous epoch's memo entries, and one of them may be mid-
// computation for as long as a slow probe takes. The first reader of the new
// epoch must skip that entry, not wait for it: a request whose probes each
// carry 400 ms of injected latency is running on epoch e, an append
// publishes e+1, and a fault-free request on e+1 returns in a small fraction
// of one probe — with both candidate lists equal to a quiesced engine's.
func TestNewEpochSnapshotNeverWaitsForAProbeInFlight(t *testing.T) {
	const latency = 400 * time.Millisecond
	opts := Config{MaxStates: 800, MaxCandidates: 1, Workers: 1, QueryParallelism: 1}
	// Three join probes to its first candidate, all inside memoized row checks.
	slow := Input{
		NLQ:      "names of actors starring in Forrest Gump",
		Literals: []sqlir.Value{sqlir.NewText("Forrest Gump")},
		Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Tom Hanks"))}}},
	}
	fast := moviesInput()
	ctx := context.Background()

	quiesced := newTestEngine(t, opts)
	qs, err := quiesced.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	wantSlow, err := qs.Synthesize(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiesced.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}
	wantFast, err := qs.Synthesize(ctx, fast)
	if err != nil {
		t.Fatal(err)
	}

	live := newTestEngine(t, opts)
	s, err := live.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{ProbeRate: 1, ProbeLatency: latency})
	type outcome struct {
		res *enumerate.Result
		err error
	}
	slowDone := make(chan outcome, 1)
	go func() {
		res, err := s.Synthesize(faultinject.With(ctx, inj), slow)
		slowDone <- outcome{res, err}
	}()
	waitFor(t, func() bool { // the slow request is inside a delayed probe
		_, delayed := inj.Counts(faultinject.SiteProbe)
		return delayed > 0
	})
	if _, err := live.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	gotFast, err := s.Synthesize(ctx, fast)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-slowDone:
		t.Fatal("the slow request finished first: the test did not overlap the two epochs")
	default:
	}
	if took > latency/4 {
		t.Errorf("first read of the new epoch took %v: it waited for the previous epoch's %v probe", took, latency)
	}
	if got, want := describe(gotFast.Candidates), describe(wantFast.Candidates); !equalStrings(got, want) {
		t.Errorf("new epoch's candidates:\n got %v\nwant %v", got, want)
	}
	o := <-slowDone
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got, want := describe(o.res.Candidates), describe(wantSlow.Candidates); !equalStrings(got, want) {
		t.Errorf("slow request's candidates:\n got %v\nwant %v", got, want)
	}
}

// TestPinnedEpochShardSeedsOnlyFromEarlierEpochs: "once true, true in every
// later epoch" lets a shard inherit from an earlier epoch, never from a
// later one. The head's shard holds true answers that rest on a row only
// the head has; the first pin, by number, of the epoch before it — whose
// shard is therefore created after the head's — must ask again and hear no.
func TestPinnedEpochShardSeedsOnlyFromEarlierEpochs(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	db, _ := e.Lookup("movies")
	before := db.Snapshot().Epoch()
	if _, err := e.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}
	in := Input{
		NLQ: "titles of movies",
		Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Ingest Movie 0"))}}},
	}
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(context.Background(), in)
	if err != nil || len(res.Candidates) == 0 {
		t.Fatalf("the head has the appended title, yet: %v, %v", sqlStrings(res), err)
	}

	old, err := e.SnapshotAt("movies", before)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.NewWithCache(old.Database(), semrules.Default(), in.Sketch, nil, old.pin.cache)
	q := sqlparse.MustParse(old.Database().Schema, "SELECT title FROM movie")
	out, err := v.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Stage != verify.StageByColumn {
		t.Errorf("epoch %d has no such title, so the column check must reject: got %+v (%s)", before, out, out.Reason())
	}
}

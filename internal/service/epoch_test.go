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

// ingestBatch builds one Append payload of n rows by cycling the rows of a
// frozen table from row offset base — deterministic, schema-exact, and
// dictionary-friendly (existing strings re-intern to existing codes).
func ingestBatch(tb *storage.Table, base, n int) []storage.ColumnData {
	rows := tb.NumRows()
	cols := make([]storage.ColumnData, len(tb.Columns))
	for ci, c := range tb.Columns {
		vec := tb.Vector(c.Name)
		nulls := make([]bool, n)
		hasNull := false
		cd := storage.ColumnData{}
		if c.Type == sqlir.TypeNumber {
			cd.Nums = make([]float64, n)
		} else {
			cd.Texts = make([]string, n)
		}
		for j := 0; j < n; j++ {
			ri := (base + j) % rows
			if vec.IsNull(ri) {
				nulls[j] = true
				hasNull = true
				continue
			}
			if c.Type == sqlir.TypeNumber {
				cd.Nums[j] = vec.Num(ri)
			} else {
				cd.Texts[j] = vec.Dict().String(vec.Code(ri))
			}
		}
		if hasNull {
			cd.Nulls = nulls
		}
		cols[ci] = cd
	}
	return cols
}

// TestPinnedEpochDifferentialUnderIngest is the acceptance-criteria proof
// for epoch isolation: a reader pinned at epoch E, running concurrently with
// live ingest, returns results byte-identical to the same workload run
// against a frozen pre-ingest copy of the database. The oracle engine never
// sees a write; the live engine takes 16 Append batches mid-flight, some of
// them stalled by injected ingest faults. Even rounds read through the
// Snapshot handle, odd rounds through a plain session that pins E with
// Input.Epoch: both routes must reach the same frozen epoch.
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
	byEpoch, err := live.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	// Append carries no request context, so stalls come from the
	// process-global injector.
	stalls := faultinject.New(faultinject.Config{Seed: 7, IngestRate: 0.25, IngestStall: time.Millisecond})
	faultinject.SetGlobal(stalls)
	defer faultinject.SetGlobal(nil)

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
				reader := pin.Session
				if r%2 == 1 {
					reader, in.Epoch = byEpoch, pin.Epoch()
				}
				res, err := reader.Synthesize(context.Background(), in)
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
	requireFired(t, []*faultinject.Injector{stalls}, faultinject.SiteIngest)

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
// conflicts, and the loud failure for an epoch nobody retains.
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

	// Sustained ingest nobody reads: epochs with a live shard stay servable
	// (the shard holds the frozen database), but an epoch nobody ever read —
	// no shard, and no longer the head — is a loud error, not stale data.
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
	unread := e0 + 2 // published by an append, never read, no longer the head
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

// TestSnapshotSurvivesShardRetirement: once epochRetention later epochs
// have been read the pinned shard falls out of the live map, but the handle
// keeps serving its epoch — retirement ends discoverability and per-epoch
// stats, not reads.
func TestSnapshotSurvivesShardRetirement(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	preRows := snap.Database().Table("movie").NumRows()
	cold, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	// Each append plus a head-resolving request creates a new shard; the
	// pinned shard, the lowest-numbered, is the first to retire.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epochRetention+2; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.shard(0); err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats().Databases[0]
	if st.EpochsLive > epochRetention {
		t.Errorf("EpochsLive = %d, want <= %d", st.EpochsLive, epochRetention)
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
// epochRetention live shards, and the pinned handle answers as it first did.
func TestOneShardPerEpochUnderConcurrentAppend(t *testing.T) {
	const retention, rounds, readers = epochRetention, 40, 4
	e := newTestEngine(t, Config{MaxStates: 400, MaxCandidates: 2})
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
// relation, the shard map is bounded and storage keeps only the head — so
// under sustained ingest with unpinned readers and one pinned Snapshot the
// live heap stops growing once the map is full: HeapInuse after GC at append
// 40 is within 10 % of
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
		if _, err := e.Append(gen.DB.Name, table.Name, ingestBatch(table, i*16, 16)); err != nil {
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

// TestDroppedSnapshotCollectedAfterWriteOnlyBurst: storage publishes and does not retain,
// so an epoch nobody holds is garbage the moment the next one is published.
// 64 appends with no reads, two storage-level Snapshot() calls on the way —
// one early, one eight epochs before the end (inside the window a storage
// ring of sixteen would still cover) — both dropped at once: after the burst
// both frozen databases are collected.
func TestDroppedSnapshotCollectedAfterWriteOnlyBurst(t *testing.T) {
	e := newTestEngine(t, Config{})
	db, _ := e.Lookup("movies")
	const appends = 64
	collected := make(chan int64, 2)
	for i := 1; i <= appends; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == appends-8 {
			runtime.SetFinalizer(db.Snapshot(), func(d *storage.Database) { collected <- d.Epoch() })
		}
	}
	runtime.GC()
	runtime.GC()
	for n := 0; n < 2; n++ {
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 dropped snapshots were collected after a write-only burst of %d appends: something besides the head retains a view", n, appends)
		}
	}
	if st := e.Stats().Databases[0]; st.EpochsLive != 0 {
		t.Errorf("EpochsLive = %d after a burst nobody read, want 0", st.EpochsLive)
	}
}

// TestPinnedEpochSurvivesUnreadIngest: a by-number pin resolves from the
// shard map — the only ring there is — so an epoch that served a request
// stays servable through any amount of ingest nobody reads, and the results
// stay bit-stable.
func TestPinnedEpochSurvivesUnreadIngest(t *testing.T) {
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

	for i := 0; i < 24; i++ {
		if _, err := e.Append("movies", "movie", []storage.ColumnData{
			{Nums: []float64{float64(1000 + i)}},
			{Texts: []string{fmt.Sprintf("Filler %d", i)}},
			{Nums: []float64{2000}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	in := moviesInput()
	in.Epoch = pin
	after, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatalf("pinned request after 24 unread appends: %v", err)
	}
	if got, want := describe(after.Candidates), describe(before.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results drifted across ingest:\n got %v\nwant %v", got, want)
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
// later one. A reader resolves its snapshot at epoch e, an append publishes
// e+1, and another reader shards e+1 first — filling it with true answers
// that rest on a row only e+1 has. When the first reader's shardFor then
// runs, its shard is created after the head's and must still ask again and
// hear no.
func TestPinnedEpochShardSeedsOnlyFromEarlierEpochs(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	early := s.ds.db.Snapshot() // the first reader, descheduled before shardFor
	if _, err := e.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}
	in := Input{
		NLQ: "titles of movies",
		Sketch: &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Ingest Movie 0"))}}},
	}
	res, err := s.Synthesize(context.Background(), in)
	if err != nil || len(res.Candidates) == 0 {
		t.Fatalf("the head has the appended title, yet: %v, %v", sqlStrings(res), err)
	}

	old := s.ds.shardFor(early)
	if old.epoch != early.Epoch() || old.db != early {
		t.Fatalf("shardFor(epoch %d) = shard of epoch %d", early.Epoch(), old.epoch)
	}
	v := verify.NewWithCache(old.db, semrules.Default(), in.Sketch, nil, old.cache)
	q := sqlparse.MustParse(old.db.Schema, "SELECT title FROM movie")
	out, err := v.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Stage != verify.StageByColumn {
		t.Errorf("epoch %d has no such title, so the column check must reject: got %+v (%s)", old.epoch, out, out.Reason())
	}
}

// TestSnapshotEpochRule is the one retention rule, row by row: an epoch is
// servable by number while it is the head or one of the last epochRetention
// epochs that served a request; a Snapshot handle keeps its own epoch
// forever.
func TestSnapshotEpochRule(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	first, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	e1 := first.Epoch()
	cold, err := first.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	sharded := map[int64]bool{e1: true} // every epoch a shard was made for
	appended := 0
	step := func(appends int, read bool) {
		t.Helper()
		for i := 0; i < appends; i++ {
			if _, err := e.Append("movies", "movie", movieBatch(appended*4)); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		if read {
			sh, err := s.shard(0)
			if err != nil {
				t.Fatal(err)
			}
			sharded[sh.epoch] = true
		}
	}

	// The head by 0 and by number is one shard.
	if byZero, _ := s.shard(0); byZero != first.pin {
		t.Errorf("shard(0) = %p, want the head's shard %p", byZero, first.pin)
	}
	for _, row := range []struct {
		name    string
		appends int   // published before the pin...
		read    bool  // ...and then the head read, or not
		pin     int64 // the epoch pinned by number, counted from the first
		wantErr bool
	}{
		{"the head by number", 0, false, 0, false},
		{"one later epoch read", 1, true, 0, false},
		{"two later epochs read", 1, true, 0, false},
		{"three later epochs read", 1, true, 0, false},
		{"four later epochs read: the first is retired", 1, true, 0, true},
		{"read, and still among the last four", 1, false, 4, false},
		{"published, never read, no longer the head", 1, false, 5, true},
		{"the head, though nobody read it yet", 0, false, 6, false},
		{"never published", 0, false, 7, true},
	} {
		step(row.appends, row.read)
		live := e.Stats().Databases[0].EpochsLive
		sh, err := s.shard(e1 + row.pin)
		switch {
		case row.wantErr && err == nil:
			t.Errorf("%s: shard(%d) = epoch %d, want an error", row.name, e1+row.pin, sh.epoch)
		case row.wantErr:
			if !strings.Contains(err.Error(), "not retained") {
				t.Errorf("%s: error = %v, want the not-retained error", row.name, err)
			}
			if got := e.Stats().Databases[0].EpochsLive; got != live {
				t.Errorf("%s: a refused pin changed EpochsLive from %d to %d", row.name, live, got)
			}
		case err != nil:
			t.Errorf("%s: shard(%d): %v", row.name, e1+row.pin, err)
		default:
			if sh.epoch != e1+row.pin {
				t.Errorf("%s: shard(%d) = epoch %d", row.name, e1+row.pin, sh.epoch)
			}
			sharded[sh.epoch] = true
		}
	}

	// 24 more appends, each read: the handle opened on the first epoch —
	// long retired by number — still answers byte-identically.
	for i := 0; i < 24; i++ {
		step(1, true)
	}
	warm, err := first.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(warm.Candidates), describe(cold.Candidates); !equalStrings(got, want) {
		t.Errorf("first-epoch handle after %d appends:\n got %v\nwant %v", appended, got, want)
	}
	if got := first.Database().Table("movie").NumRows(); got != dataset.Movies().Table("movie").NumRows() {
		t.Errorf("first-epoch handle sees %d movie rows, want the pre-ingest count", got)
	}

	st := e.Stats().Databases[0]
	if st.EpochsLive != epochRetention || len(st.Epochs) != epochRetention {
		t.Errorf("EpochsLive = %d (%d listed), want %d", st.EpochsLive, len(st.Epochs), epochRetention)
	}
	for i := 1; i < len(st.Epochs); i++ {
		if st.Epochs[i-1].Epoch >= st.Epochs[i].Epoch {
			t.Errorf("Epochs not ascending by number: %+v", st.Epochs)
		}
	}
	if len(st.Epochs) > 0 && st.Epochs[len(st.Epochs)-1].Epoch != st.HeadEpoch {
		t.Errorf("newest live shard is epoch %d, head is %d", st.Epochs[len(st.Epochs)-1].Epoch, st.HeadEpoch)
	}
	if want := int64(len(sharded) - epochRetention); st.EpochsRetired != want {
		t.Errorf("EpochsRetired = %d, want %d (%d shards made, each eviction counted once)", st.EpochsRetired, want, len(sharded))
	}
}

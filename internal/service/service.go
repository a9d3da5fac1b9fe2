// Package service implements the process-wide Duoquest engine behind the
// paper's Figure 3 deployment: long-lived micro-services (Enumerator +
// Verifier, Autocomplete Server) serving many interactive users at once.
//
// An Engine owns a registry of databases and, per database, the shared
// cross-request state that used to be rebuilt on every call: the
// column-wise and row-wise verification memos (verify.Cache), the lazily
// built autocomplete index, and the storage engine's persistent column
// indexes underneath them. Requests
// run through lightweight per-request Session handles that borrow this
// shared state, under bounded admission control (a fixed number of
// in-flight syntheses plus a bounded wait queue), and the Engine aggregates
// per-database serving statistics — request counts, cache hit rates from
// the executor's PipelineStats, and p50/p95 latencies.
//
// Consistency under live ingest is epoch-based (storage epoch snapshots):
// every request resolves a frozen snapshot of its database — the latest
// epoch, or the epoch pinned by an Engine.Snapshot or Engine.SnapshotAt
// handle — and runs the entire synthesis against it, so a
// concurrent Engine.Append can never tear a request's view. Each epoch's
// verify.Cache is a view of the database's one pair of verification memos,
// which nothing invalidates: a request at any epoch reuses every answer
// whose tables hold the same rows there, and a write costs readers only the
// answers over the table it grew.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/duoquest/duoquest/internal/autocomplete"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// ErrOverloaded reports that the synthesis wait queue is full; the caller
// should shed the request (HTTP 503).
var ErrOverloaded = errors.New("service: synthesis queue is full")

// Input is one dual-specification synthesis request: the NLQ with its
// tagged literal values (the paper's L), plus an optional table sketch
// query. nil Sketch synthesizes from the NLQ alone.
type Input struct {
	NLQ      string
	Literals []sqlir.Value
	Sketch   *tsq.TSQ
	// Deadline is this request's wall-clock budget (0 = the engine's
	// DefaultDeadline). It is clamped to the engine's MaxDeadline. On expiry
	// the request returns an anytime partial result — the candidates
	// verified so far, flagged Truncated — not an error.
	Deadline time.Duration
}

// Config configures an Engine. The zero value is usable: lexical guidance,
// Table 4 semantic pruning, GPQE mode, unlimited candidates, the
// enumerator's 500 000-state cap, no deadline, unbounded admission. This
// struct is the engine's whole configuration surface.
type Config struct {
	// Model is the guidance model; nil uses the lexical model. The model
	// is shared by all concurrent requests and must be stateless.
	Model guidance.Model
	// Rules is the semantic rule set; nil uses the Table 4 defaults. To
	// disable semantic pruning pass semrules.Empty().
	Rules *semrules.RuleSet
	// Mode selects the enumeration variant (default ModeGPQE).
	Mode enumerate.Mode
	// MaxCandidates stops a request after n candidates (<=0 = unlimited,
	// as in the enumerator).
	MaxCandidates int
	// MaxStates caps explored search states per request (<=0 = the
	// enumerator's default of 500 000).
	MaxStates int
	// Workers and QueryParallelism are ignored: a request's search, its
	// verification cascade and every scan run on the request's goroutine,
	// and parallelism exists only across requests (MaxInFlight). bench/
	// sets both, so they stay until bench/ stops.
	Workers          int
	QueryParallelism int

	// DefaultDeadline is the per-request wall-clock budget applied when a
	// request does not carry its own (0 = none). It is the only clock on a
	// search: the deadline rides the request context, so expiry unwinds
	// verification mid-scan through the executor's cancellation checkpoints
	// and yields a Truncated anytime result.
	DefaultDeadline time.Duration
	// MaxDeadline clamps every request's deadline, including requests that
	// ask for none (0 = no clamp). The server's deadline_ms request field is
	// bounded by this.
	MaxDeadline time.Duration

	// MaxInFlight bounds concurrently running syntheses across all
	// databases (0 = unbounded). Excess requests wait in a queue.
	MaxInFlight int
	// MaxQueue bounds the number of waiting requests beyond MaxInFlight
	// (0 = unbounded). When the queue is full, Synthesize returns
	// ErrOverloaded immediately. With MaxInFlight unbounded no queue ever
	// forms, so MaxQueue has no effect.
	MaxQueue int
}

// latencyWindow is the per-database ring size for the latency and
// cancel-to-return quantiles.
const latencyWindow = 1024

// Engine is the process-wide synthesis service. It is safe for concurrent
// use; create one per process and share it across all requests.
type Engine struct {
	opts  Config
	model guidance.Model
	rules *semrules.RuleSet

	// sem holds one token per running synthesis when MaxInFlight > 0.
	sem      chan struct{}
	inFlight atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
	admitted atomic.Int64

	mu    sync.RWMutex
	dbs   map[string]*dbState
	order []string
}

// dbState is the shared per-database state, built once and borrowed by
// every request against that database. db is the live head (the only thing
// Engine.Append mutates); all query work runs on frozen epoch snapshots
// tracked as epochShards.
type dbState struct {
	db   *storage.Database
	prov Provenance

	idxOnce sync.Once
	idx     *autocomplete.Index

	// Epoch shards: one frozen snapshot plus its shared caches per epoch
	// that served (or is serving) requests, bounded by epochRetention. This
	// map is the only collection of published epochs the process keeps.
	// base is the Cache of the newest shard made, and each new shard's
	// Cache is base.At(its snapshot): every epoch reads and fills one pair
	// of verification memos.
	epochMu       sync.Mutex
	shards        map[int64]*epochShard
	base          *verify.Cache
	retired       sqlexec.PipelineStats // folded counters of retired shards
	retiredShards int64

	m           sync.Mutex
	requests    int64
	errors      int64
	candidates  int64
	truncated   int64           // requests that returned a Truncated anytime result
	interrupted int64           // requests cancelled by the caller (client disconnect)
	lat         []time.Duration // latency ring
	latPos      int
	latN        int // number of valid entries (<= len(lat))
	// cancel-to-return ring: how long a cancelled or deadline-expired
	// request took to actually return after its context fired.
	cret      []time.Duration
	cretPos   int
	cretN     int
	cretTotal int64 // cumulative count of cancelled returns

	appends int64 // Engine.Append batches accepted for this database
	// Epoch lag accounting: per request, how many epochs the resolved
	// snapshot trailed the head at resolution time (always 0 for unpinned
	// requests, which resolve the head itself).
	lagSum int64
	lagMax int64
	lagN   int64
}

// epochShard is one epoch's serving state: the frozen snapshot plus the
// cross-request caches keyed to it. Shards are created on first use of an
// epoch and never invalidated — ingest makes new shards, not evictions.
type epochShard struct {
	epoch    int64
	db       *storage.Database // frozen epoch snapshot
	cache    *verify.Cache
	requests atomic.Int64
}

// epochRetention bounds the live shards kept per database. The service's
// shard map is the only retention ring — storage keeps just the head — so
// the whole rule is: an epoch is servable by number while it is the head or
// one of the last epochRetention epochs that served a request; a Snapshot
// handle or a request in flight holds its shard by pointer and keeps its
// own epoch forever.
const epochRetention = 4

// shardAt resolves the serving shard for an epoch (0 = latest, publishing
// one if build-phase mutations are pending). Requests for the same epoch
// share one shard — and therefore one set of memos.
func (ds *dbState) shardAt(epoch int64) (*epochShard, error) {
	if epoch != 0 {
		ds.epochMu.Lock()
		sh, ok := ds.shards[epoch]
		ds.epochMu.Unlock()
		if ok {
			return sh, nil
		}
	}
	snap := ds.db.Snapshot()
	if epoch != 0 && epoch != snap.Epoch() {
		return nil, fmt.Errorf("service: database %s: epoch %d is not retained (head %d)", ds.db.Name, epoch, snap.Epoch())
	}
	return ds.shardFor(snap), nil
}

// shardFor returns (creating if needed) the shard for a resolved snapshot,
// retiring the lowest-numbered shards beyond epochRetention.
func (ds *dbState) shardFor(snap *storage.Database) *epochShard {
	ep := snap.Epoch()
	ds.epochMu.Lock()
	defer ds.epochMu.Unlock()
	if sh, ok := ds.shards[ep]; ok {
		return sh
	}
	// This is the only place a shard is created, and it runs under epochMu:
	// an epoch has exactly one shard.
	sh := &epochShard{epoch: ep, db: snap, cache: ds.base.At(snap)}
	ds.base = sh.cache
	ds.shards[ep] = sh
	if len(ds.shards) > epochRetention {
		oldest := sh
		for _, osh := range ds.shards {
			if osh.epoch < oldest.epoch {
				oldest = osh
			}
		}
		addPipeline(&ds.retired, oldest.cache.Joins().Stats())
		ds.retiredShards++
		delete(ds.shards, oldest.epoch)
	}
	return sh
}

// noteLag folds one request's epoch lag (head minus pinned epoch at
// resolution time) into the per-database accounting.
func (ds *dbState) noteLag(lag int64) {
	if lag < 0 {
		lag = 0
	}
	ds.m.Lock()
	ds.lagSum += lag
	ds.lagN++
	if lag > ds.lagMax {
		ds.lagMax = lag
	}
	ds.m.Unlock()
}

// NewEngine builds an engine.
func NewEngine(opts Config) *Engine {
	e := &Engine{opts: opts, model: opts.Model, rules: opts.Rules, dbs: map[string]*dbState{}}
	if e.model == nil {
		e.model = guidance.NewLexicalModel()
	}
	if e.rules == nil {
		e.rules = semrules.Default()
	}
	if opts.MaxInFlight > 0 {
		e.sem = make(chan struct{}, opts.MaxInFlight)
	}
	return e
}

// Provenance records where a registered database's bytes came from — built
// in memory by this process, or reconstructed from a durable segment store
// — and, for disk loads, what the load touched. Surfaced through
// DBStats.Storage and /stats so an operator can tell a cold-started replica
// from a freshly ingested one.
type Provenance struct {
	// Source is "memory" for databases built in-process or "disk" for
	// databases reconstructed from a segment store.
	Source string
	// Segments and Chunks count what the load replayed (disk only).
	Segments int
	Chunks   int
	// ManifestHash is the checksum of the manifest that vouched for the
	// load (disk only).
	ManifestHash string
	// LoadDuration is the cold-start wall time (disk only).
	LoadDuration time.Duration
}

// Register adds a database to the engine's registry and builds its shared
// caches. It fails on a duplicate name and on a schema Validate rejects;
// databases cannot be unregistered.
// The database is recorded as built in memory; use RegisterWithProvenance
// for databases loaded from a segment store.
func (e *Engine) Register(db *storage.Database) error {
	return e.RegisterWithProvenance(db, Provenance{Source: "memory"})
}

// RegisterWithProvenance is Register with an explicit record of where the
// database came from.
func (e *Engine) RegisterWithProvenance(db *storage.Database, prov Provenance) error {
	if db == nil {
		return errors.New("service: nil database")
	}
	if err := db.Schema.Validate(); err != nil {
		return fmt.Errorf("service: database %q: %w", db.Name, err)
	}
	if prov.Source == "" {
		prov.Source = "memory"
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.dbs[db.Name]; ok {
		return fmt.Errorf("service: database %q already registered", db.Name)
	}
	e.dbs[db.Name] = &dbState{
		db:     db,
		prov:   prov,
		shards: map[int64]*epochShard{},
		base:   verify.NewCache(db),
		lat:    make([]time.Duration, latencyWindow),
		cret:   make([]time.Duration, latencyWindow),
	}
	e.order = append(e.order, db.Name)
	return nil
}

// Databases returns the registered database names in registration order.
func (e *Engine) Databases() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// Lookup returns a registered database by name.
func (e *Engine) Lookup(name string) (*storage.Database, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ds, ok := e.dbs[name]
	if !ok {
		return nil, false
	}
	return ds.db, true
}

// Session opens a per-request handle on one registered database. Sessions
// are cheap: they borrow the database's shared caches and hold no state of
// their own, so callers may create one per request or keep one per client.
func (e *Engine) Session(name string) (*Session, error) {
	e.mu.RLock()
	ds, ok := e.dbs[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown database %q", name)
	}
	return &Session{eng: e, ds: ds}, nil
}

// admit performs admission control: it blocks until an in-flight slot is
// free, the queue overflows (ErrOverloaded), or ctx is done. On success the
// returned release function must be called exactly once.
func (e *Engine) admit(ctx context.Context) (release func(), err error) {
	if e.sem == nil {
		e.inFlight.Add(1)
		e.admitted.Add(1)
		return func() { e.inFlight.Add(-1) }, nil
	}
	select {
	case e.sem <- struct{}{}: // free slot, no queueing
	default:
		q := e.queued.Add(1)
		if e.opts.MaxQueue > 0 && q > int64(e.opts.MaxQueue) {
			e.queued.Add(-1)
			e.rejected.Add(1)
			return nil, ErrOverloaded
		}
		select {
		case e.sem <- struct{}{}:
			e.queued.Add(-1)
		case <-ctx.Done():
			e.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	e.inFlight.Add(1)
	e.admitted.Add(1)
	return func() {
		e.inFlight.Add(-1)
		<-e.sem
	}, nil
}

// Session is a per-request view of one database: it borrows the Engine's
// shared per-epoch caches and runs requests under the Engine's admission
// control. An unpinned session resolves the latest epoch per request; a
// session inside a Snapshot handle is pinned to one epoch for its whole
// lifetime.
type Session struct {
	eng *Engine
	ds  *dbState
	pin *epochShard // nil = resolve per request
}

// Database returns the session's live database head. Mutating it directly
// is a build-phase-only operation; concurrent ingest must go through
// Engine.Append. For a stable read view use Engine.Snapshot (or the frozen
// database a Snapshot handle exposes).
func (s *Session) Database() *storage.Database { return s.ds.db }

// shard resolves the serving shard for one request: the pinned epoch if the
// session is a Snapshot handle, else the latest.
func (s *Session) shard() (*epochShard, error) {
	if s.pin != nil {
		return s.pin, nil
	}
	return s.ds.shardAt(0)
}

// Snapshot is a Session pinned to one published epoch: every call on it —
// Synthesize, Preview — observes exactly that epoch's rows and
// shares that epoch's caches, no matter how much ingest happens meanwhile.
// The handle is reusable and safe for concurrent use.
type Snapshot struct {
	*Session
}

// Epoch returns the pinned epoch number.
func (sn *Snapshot) Epoch() int64 { return sn.pin.epoch }

// Database returns the pinned frozen database (shadowing the Session's live
// head): reads through it are stable by construction.
func (sn *Snapshot) Database() *storage.Database { return sn.pin.db }

// Snapshot opens a read handle pinned to the latest published epoch of a
// registered database (publishing one if build-phase mutations are
// pending). This is the service-level analogue of storage.Database.Snapshot:
// a consistent, reusable view under live ingest.
func (e *Engine) Snapshot(name string) (*Snapshot, error) {
	return e.SnapshotAt(name, 0)
}

// SnapshotAt is Snapshot pinned to a specific epoch (0 = latest). The epoch
// must be the head or one of the last four that served a request; any other
// number is an error. Once open, the handle keeps its epoch however many
// later epochs are published and read.
func (e *Engine) SnapshotAt(name string, epoch int64) (*Snapshot, error) {
	s, err := e.Session(name)
	if err != nil {
		return nil, err
	}
	sh, err := s.ds.shardAt(epoch)
	if err != nil {
		return nil, err
	}
	s.pin = sh
	return &Snapshot{Session: s}, nil
}

// Append bulk-appends one batch to a table of a registered database and
// publishes it as a new epoch, returning the epoch number. This is the only
// mutation safe under concurrent requests: in-flight sessions keep their
// pinned epochs (and warm caches — zero evictions), and the next unpinned
// request observes the new rows. Append publishes and returns: the new
// epoch's shard is created by the first request that resolves it (shardFor).
func (e *Engine) Append(name, table string, cols []storage.ColumnData) (int64, error) {
	e.mu.RLock()
	ds, ok := e.dbs[name]
	e.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("service: unknown database %q", name)
	}
	epoch, err := ds.db.Append(table, cols)
	if err != nil {
		return 0, err
	}
	ds.m.Lock()
	ds.appends++
	ds.m.Unlock()
	return epoch, nil
}

// Synthesize runs dual-specification synthesis and returns the ranked
// candidates.
func (s *Session) Synthesize(ctx context.Context, in Input) (*enumerate.Result, error) {
	return s.SynthesizeStream(ctx, in, nil)
}

// SynthesizeStream runs synthesis, invoking emit for every candidate as it
// is found (the front-end's progressive display, §4). emit returning false
// stops the search. The verifier borrows the epoch's shared caches — the
// cross-request analogue of the paper's within-search prefix sharing. A
// sketch Validate refuses, or a NaN literal (no value is NaN), is refused
// before the request is admitted.
func (s *Session) SynthesizeStream(ctx context.Context, in Input, emit func(enumerate.Candidate) bool) (*enumerate.Result, error) {
	if in.Sketch != nil {
		if err := in.Sketch.Validate(); err != nil {
			return nil, err
		}
	}
	for i, l := range in.Literals {
		if l.IsNaN() {
			return nil, fmt.Errorf("service: literal %d (%s): no value is NaN", i, l)
		}
	}
	release, err := s.eng.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	start := time.Now()
	// Resolve the request's wall-clock deadline: its own ask, else the
	// engine default, clamped to the engine maximum. The budget starts after
	// admission — queueing time is the engine's debt, not the request's.
	budget := in.Deadline
	if budget <= 0 {
		budget = s.eng.opts.DefaultDeadline
	}
	if max := s.eng.opts.MaxDeadline; max > 0 && (budget <= 0 || budget > max) {
		budget = max
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	// Cancel-to-return watcher: stamp the instant the context fires so the
	// gap to Enumerate's return — the latency a disconnecting client
	// actually observes — lands in the per-database stats.
	var firedAt atomic.Int64
	stopWatch := context.AfterFunc(ctx, func() { firedAt.Store(time.Now().UnixNano()) })
	defer stopWatch()

	// Resolve the epoch snapshot the whole request will observe. The head
	// epoch is read at the same moment for the lag accounting.
	sh, err := s.shard()
	if err != nil {
		return nil, err
	}
	s.ds.noteLag(s.ds.db.Epoch() - sh.epoch)
	sh.requests.Add(1)

	v := verify.NewWithCache(sh.db, s.eng.rules, in.Sketch, in.Literals, sh.cache)
	en := enumerate.New(sh.db, s.eng.model, v, enumerate.Options{
		Mode:          s.eng.opts.Mode,
		MaxCandidates: s.eng.opts.MaxCandidates,
		MaxStates:     s.eng.opts.MaxStates,
	})
	res, err := en.Enumerate(ctx, in.NLQ, in.Literals, emit)
	stopWatch()
	// Classify by the search's own outcome: a context that fires after a
	// complete search cut nothing short. Only a cut request reads the
	// context's error, once, to tell a disconnect from an expiry.
	var cancelReturn time.Duration
	cancelled := res.Truncated
	interrupted := cancelled && errors.Is(ctx.Err(), context.Canceled)
	if cancelled {
		now := time.Now()
		if at := firedAt.Load(); at > 0 {
			cancelReturn = now.Sub(time.Unix(0, at))
		} else if dl, ok := ctx.Deadline(); ok && now.After(dl) {
			// The AfterFunc goroutine has not run yet; the deadline
			// overshoot is the same quantity measured without it.
			cancelReturn = now.Sub(dl)
		}
		if cancelReturn < 0 {
			cancelReturn = 0
		}
	}
	s.ds.record(time.Since(start), res, err, cancelled, cancelReturn, interrupted)
	return res, err
}

// Autocomplete suggests literal values for a prefix, backed by the shared
// master inverted column index over all text columns (§4). The index is
// built once, on first use, for all requests; like the paper's offline
// autocomplete server it is not rebuilt on Insert.
func (s *Session) Autocomplete(prefix string, max int) []autocomplete.Hit {
	return s.ds.autocompleteIndex().Complete(prefix, max)
}

// PreviewCtx executes a candidate query with a row cap (maxRows <= 0 =
// none) under the caller's context, powering the front-end's "Query
// Preview" button (§4): a cancelled request stops its scan. The cap reaches
// the executor: a plain projection stops scanning once it has maxRows rows.
// Every call builds its own result, so callers may do with it what they like.
func (s *Session) PreviewCtx(ctx context.Context, q *sqlir.Query, maxRows int) (*sqlexec.Result, error) {
	sh, err := s.shard()
	if err != nil {
		return nil, err
	}
	return sh.cache.Joins().PreviewCtx(ctx, q, maxRows)
}

// Preview is PreviewCtx under a context nothing cancels.
func (s *Session) Preview(q *sqlir.Query, maxRows int) (*sqlexec.Result, error) {
	return s.PreviewCtx(context.Background(), q, maxRows)
}

func (ds *dbState) autocompleteIndex() *autocomplete.Index {
	ds.idxOnce.Do(func() {
		// Build from a frozen snapshot so the one-time build cannot race
		// concurrent ingest; like the paper's offline autocomplete server,
		// the index is not rebuilt on later appends.
		idx := autocomplete.Build(ds.db.Snapshot())
		ds.m.Lock()
		ds.idx = idx
		ds.m.Unlock()
	})
	ds.m.Lock()
	idx := ds.idx
	ds.m.Unlock()
	return idx
}

// record folds one finished request into the per-database accounting.
// cancelled marks a request whose context fired before it returned;
// cancelReturn is the observed cancel-to-return gap for such requests, and
// interrupted marks the caller-cancelled subset (client disconnects), which
// are accounted as interruptions rather than successes.
func (ds *dbState) record(d time.Duration, res *enumerate.Result, err error, cancelled bool, cancelReturn time.Duration, interrupted bool) {
	ds.m.Lock()
	defer ds.m.Unlock()
	ds.requests++
	if err != nil {
		ds.errors++
	}
	if res != nil {
		ds.candidates += int64(len(res.Candidates))
		if res.Truncated {
			ds.truncated++
		}
	}
	if interrupted {
		ds.interrupted++
	}
	if cancelled {
		ds.cret[ds.cretPos] = cancelReturn
		ds.cretPos = (ds.cretPos + 1) % len(ds.cret)
		if ds.cretN < len(ds.cret) {
			ds.cretN++
		}
		ds.cretTotal++
	}
	ds.lat[ds.latPos] = d
	ds.latPos = (ds.latPos + 1) % len(ds.lat)
	if ds.latN < len(ds.lat) {
		ds.latN++
	}
}

// Command duoquest-server exposes the Duoquest micro-services of the
// paper's Figure 3 over HTTP, backed by one process-wide service Engine:
// every request borrows the per-database shared caches (verification
// memos, column indexes, autocomplete index) under bounded admission control.
// The bundled movies and MAS databases are registered at startup.
//
//	duoquest-server -addr :8080 -db mas -max-inflight 8 -max-queue 64
//
// The versioned API takes one structured JSON body per request; every
// synthesis runs against a pinned epoch snapshot of its database (epoch 0 =
// latest), so concurrent ingest never tears a request's view:
//
//	POST /v1/synthesize  {"db": "mas", "nlq": "...", "literals": ["Europe", 50],
//	                      "sketch": {"types": ["text"], "tuples": [["Oxford"]],
//	                                 "sorted": false, "limit": 0},
//	                      "deadline_ms": 2000, "epoch": 0, "stream": false}
//	                     stream: true switches to NDJSON progressive display:
//	                     one candidate per line as found, then a "done" line.
//	POST /v1/complete    {"db": "mas", "prefix": "SIG", "max": 10}
//	GET  /v1/schema?db=mas
//	GET  /v1/dbs
//	GET  /v1/stats
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// run to completion within -shutdown-timeout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

// maxCompleteResults bounds the max field of /v1/complete.
const maxCompleteResults = 100

// previewRows caps rows attached to each candidate's preview.
const previewRows = 20

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		budget      = flag.Duration("budget", 5*time.Second, "per-request search budget")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline; expiry returns a truncated partial result (0 = none)")
		maxDeadline = flag.Duration("max-deadline", 30*time.Second, "upper clamp on a request's deadline_ms (0 = no clamp)")
		topk        = flag.Int("k", 10, "max candidates per request")
		workers     = flag.Int("workers", 0, "verification workers per request (0 = GOMAXPROCS, 1 = sequential)")
		defaultDB   = flag.String("db", "mas", "default database for requests that name none")
		dataDir     = flag.String("data-dir", "", "segment store directory; every persisted database in it is loaded and registered at startup")
		maxInFlight = flag.Int("max-inflight", 8, "max concurrently running syntheses (0 = unbounded)")
		maxQueue    = flag.Int("max-queue", 64, "max queued syntheses before 503 (0 = unbounded)")
		shutdownTO  = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown grace period")
	)
	flag.Parse()

	if *maxInFlight <= 0 && *maxQueue > 0 {
		log.Printf("warning: -max-queue has no effect with unbounded -max-inflight")
	}
	cfg := duoquest.DefaultConfig()
	cfg.Budget = *budget
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDeadline
	cfg.MaxCandidates = *topk
	cfg.Workers = *workers
	cfg.MaxInFlight = *maxInFlight
	cfg.MaxQueue = *maxQueue
	eng := duoquest.NewEngine(cfg)
	for _, db := range []*duoquest.Database{dataset.Movies(), dataset.MAS()} {
		if err := eng.Register(db); err != nil {
			log.Fatalf("register %s: %v", db.Name, err)
		}
	}
	if *dataDir != "" {
		store, err := duoquest.OpenSegmentStore(*dataDir)
		if err != nil {
			log.Fatalf("open segment store: %v", err)
		}
		registerPersisted(eng, store, log.Printf)
	}
	srv, err := newServer(eng, *defaultDB)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// Streaming responses run for up to the search budget plus the
		// preview work, so the write timeout leaves generous headroom.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *budget + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("duoquest-server listening on %s (databases %s, default %s)",
		*addr, strings.Join(eng.Databases(), ", "), *defaultDB)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("signal received; draining in-flight requests (up to %s)", *shutdownTO)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("graceful shutdown: %v; closing", err)
			httpSrv.Close()
		}
	}
}

// registerPersisted loads and registers every database in the segment
// store. A corrupt or unloadable entry is logged and skipped — one bad
// store entry must not take down the databases that do load (or the
// built-in ones).
func registerPersisted(eng *duoquest.Engine, store *duoquest.SegmentStore, logf func(string, ...any)) {
	names, err := store.List()
	if err != nil {
		logf("segment store %s: %v", store.Dir(), err)
		return
	}
	for _, name := range names {
		db, info, err := duoquest.OpenDatabase(store, name)
		if err != nil {
			logf("segment store: skipping %s: %v", name, err)
			continue
		}
		prov := duoquest.DBProvenance{
			Source:       "disk",
			Segments:     info.Segments,
			Chunks:       info.Chunks,
			ManifestHash: info.ManifestHash,
			LoadDuration: info.Elapsed,
		}
		if err := eng.RegisterWithProvenance(db, prov); err != nil {
			logf("segment store: register %s: %v", db.Name, err)
			continue
		}
		logf("segment store: loaded %s (%d tables, %d segments, %d chunks) in %s",
			db.Name, info.Tables, info.Segments, info.Chunks, info.Elapsed)
	}
}

// server routes HTTP requests onto an Engine.
type server struct {
	eng       *duoquest.Engine
	defaultDB string
}

// newServer validates that the default database is registered.
func newServer(eng *duoquest.Engine, defaultDB string) (*server, error) {
	if _, err := eng.Session(defaultDB); err != nil {
		return nil, fmt.Errorf("default database: %w", err)
	}
	return &server{eng: eng, defaultDB: defaultDB}, nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/synthesize", s.synthesize)
	mux.HandleFunc("/v1/complete", s.complete)
	mux.HandleFunc("/v1/schema", s.schema)
	mux.HandleFunc("/v1/dbs", s.dbs)
	mux.HandleFunc("/v1/stats", s.stats)
	return mux
}

// snapshot pins a read handle for one whole request — synthesis, previews,
// and schema reads all observe the same epoch (0 = latest). Unknown
// databases answer 404; a retired or never-published epoch answers 410.
func (s *server) snapshot(w http.ResponseWriter, name string, epoch int64) *duoquest.EngineSnapshot {
	if name == "" {
		name = s.defaultDB
	}
	if _, err := s.eng.Session(name); err != nil {
		http.Error(w, fmt.Sprintf("unknown database %q", name), http.StatusNotFound)
		return nil
	}
	sn, err := s.eng.SnapshotAt(name, epoch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return nil
	}
	return sn
}

// sketchJSON is the wire form of a TSQ. Cells: string/number = exact,
// null = empty, [lo, hi] = numeric range.
type sketchJSON struct {
	Types  []string        `json:"types,omitempty"`
	Tuples [][]interface{} `json:"tuples,omitempty"`
	Sorted bool            `json:"sorted,omitempty"`
	Limit  int             `json:"limit,omitempty"`
}

// synthesizeRequest is the structured /v1/synthesize body.
type synthesizeRequest struct {
	// DB names the target database ("" = the server's -db default).
	DB       string        `json:"db,omitempty"`
	NLQ      string        `json:"nlq"`
	Literals []interface{} `json:"literals,omitempty"`
	Sketch   *sketchJSON   `json:"sketch,omitempty"`
	// DeadlineMS is the request's wall-clock budget in milliseconds (0 =
	// the server default); expiry returns a truncated partial result.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Epoch pins the request to a published database epoch (0 = latest).
	// The whole request — synthesis and candidate previews — observes
	// exactly that epoch's rows, regardless of concurrent ingest.
	Epoch int64 `json:"epoch,omitempty"`
	// Stream switches to NDJSON progressive display.
	Stream bool `json:"stream,omitempty"`
}

type candidateJSON struct {
	Rank       int        `json:"rank"`
	Confidence float64    `json:"confidence"`
	SQL        string     `json:"sql"`
	Preview    [][]string `json:"preview,omitempty"`
}

type synthesizeResponse struct {
	Candidates []candidateJSON `json:"candidates"`
	States     int             `json:"states"`
	ElapsedMS  int64           `json:"elapsed_ms"`
	// Epoch is the published database epoch the request observed.
	Epoch int64 `json:"epoch"`
	// Truncated marks an anytime partial result: the deadline expired (or
	// the request was cancelled) and candidates holds the deterministic
	// prefix verified up to that point.
	Truncated bool `json:"truncated,omitempty"`
}

// streamLine is one NDJSON line of a streaming /v1/synthesize response.
type streamLine struct {
	Type      string         `json:"type"` // "candidate", "done", or "error"
	Candidate *candidateJSON `json:"candidate,omitempty"`
	States    int            `json:"states,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms,omitempty"`
	Epoch     int64          `json:"epoch,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// overloadedJSON is the structured 503 body for shed requests: enough for a
// client to implement informed backoff.
type overloadedJSON struct {
	Error        string `json:"error"`
	QueueDepth   int64  `json:"queue_depth"`
	InFlight     int64  `json:"in_flight"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// writeOverloaded renders a 503 with a Retry-After header scaled by the
// current queue depth, so backed-off clients spread their retries instead of
// stampeding the moment one slot frees.
func (s *server) writeOverloaded(w http.ResponseWriter) {
	st := s.eng.Stats()
	retry := time.Second + time.Duration(st.Queued)*100*time.Millisecond
	if retry > 30*time.Second {
		retry = 30 * time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(overloadedJSON{
		Error:        "synthesis queue is full",
		QueueDepth:   st.Queued,
		InFlight:     st.InFlight,
		RetryAfterMS: retry.Milliseconds(),
	})
}

// synthesize serves POST /v1/synthesize: it pins an epoch snapshot for the
// whole request (candidate previews included), runs the search against it,
// and renders the buffered response — or, when the body's stream flag or an
// NDJSON Accept header asks for it, the streaming one.
func (s *server) synthesize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req synthesizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Malformed routing fields are rejected before routing: SnapshotAt would
	// call a negative epoch "not retained" and answer 410 to it.
	if req.Epoch < 0 {
		http.Error(w, fmt.Sprintf("epoch must be non-negative, got %d", req.Epoch), http.StatusBadRequest)
		return
	}
	if req.DeadlineMS < 0 {
		http.Error(w, fmt.Sprintf("deadline_ms must be non-negative, got %d", req.DeadlineMS), http.StatusBadRequest)
		return
	}
	sn := s.snapshot(w, req.DB, req.Epoch)
	if sn == nil {
		return
	}
	if req.NLQ == "" {
		http.Error(w, "nlq is required", http.StatusBadRequest)
		return
	}
	input := duoquest.Input{NLQ: req.NLQ}
	for _, l := range req.Literals {
		v, err := jsonValue(l)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		input.Literals = append(input.Literals, v)
	}
	if req.Sketch != nil {
		sk, err := jsonSketch(req.Sketch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		input.Sketch = sk
	}
	// The engine clamps this to its -max-deadline.
	input.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond

	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		s.synthesizeStream(w, r, sn, input)
		return
	}
	res, err := sn.Synthesize(r.Context(), input)
	if err != nil {
		if errors.Is(err, duoquest.ErrOverloaded) {
			s.writeOverloaded(w)
			return
		}
		http.Error(w, err.Error(), synthesizeErrStatus(err))
		return
	}
	resp := synthesizeResponse{
		States:    res.States,
		ElapsedMS: res.Elapsed.Milliseconds(),
		Epoch:     sn.Epoch(),
		Truncated: res.Truncated,
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, s.candidateJSON(sn.Session, c))
	}
	writeJSON(w, resp)
}

// synthesizeStream writes one NDJSON line per candidate, flushed as found
// (the paper's progressive display), then a final summary line. Previews
// are computed inline so every streamed line is immediately renderable;
// that work runs on the search goroutine and counts against the request's
// wall-clock budget, so under very tight budgets a streaming request can
// emit fewer candidates than a buffered one before time runs out.
func (s *server) synthesizeStream(w http.ResponseWriter, r *http.Request, sn *duoquest.EngineSnapshot, input duoquest.Input) {
	ses := sn.Session
	// Headers only hit the wire at the first write; http.Error on a
	// pre-emission failure still replaces the content type.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emitted := 0
	emit := func(c duoquest.Candidate) bool {
		if r.Context().Err() != nil {
			// Client disconnected mid-stream: stop emitting immediately
			// instead of computing previews for a dead connection. The
			// cancelled request context makes the search unwind and the
			// service layer records the interruption, not a success.
			return false
		}
		cj := s.candidateJSON(ses, c)
		if err := enc.Encode(streamLine{Type: "candidate", Candidate: &cj}); err != nil {
			return false // client went away; stop the search
		}
		emitted++
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	res, err := ses.SynthesizeStream(r.Context(), input, emit)
	if err != nil {
		if emitted == 0 {
			// Nothing on the wire yet: a plain HTTP error is still
			// possible (overload, invalid sketch, cancelled context).
			if errors.Is(err, duoquest.ErrOverloaded) {
				s.writeOverloaded(w)
				return
			}
			http.Error(w, err.Error(), synthesizeErrStatus(err))
			return
		}
		enc.Encode(streamLine{Type: "error", Error: err.Error()})
		return
	}
	enc.Encode(streamLine{Type: "done", States: res.States, ElapsedMS: res.Elapsed.Milliseconds(), Epoch: sn.Epoch(), Truncated: res.Truncated})
	if flusher != nil {
		flusher.Flush()
	}
}

// synthesizeErrStatus maps synthesis failures to HTTP statuses: overload is
// 503 (retryable), context cancellation 499-equivalent 503, anything else a
// specification problem (422).
func synthesizeErrStatus(err error) int {
	switch {
	case errors.Is(err, duoquest.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// candidateJSON renders one candidate with its capped preview.
func (s *server) candidateJSON(ses *duoquest.EngineSession, c duoquest.Candidate) candidateJSON {
	cj := candidateJSON{Rank: c.Rank, Confidence: c.Confidence, SQL: c.Query.String()}
	if preview, err := ses.Preview(c.Query, previewRows); err == nil {
		for _, row := range preview.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Display()
			}
			cj.Preview = append(cj.Preview, cells)
		}
	}
	return cj
}

// complete serves POST /v1/complete: {"db": ..., "prefix": ..., "max": ...}.
func (s *server) complete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		DB     string `json:"db,omitempty"`
		Prefix string `json:"prefix"`
		Max    int    `json:"max,omitempty"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	name := req.DB
	if name == "" {
		name = s.defaultDB
	}
	ses, err := s.eng.Session(name)
	if err != nil {
		http.Error(w, fmt.Sprintf("unknown database %q", name), http.StatusNotFound)
		return
	}
	if req.Max < 0 {
		http.Error(w, fmt.Sprintf("max must be non-negative, got %d", req.Max), http.StatusBadRequest)
		return
	}
	max := req.Max
	if max == 0 {
		max = 10
	}
	if max > maxCompleteResults {
		max = maxCompleteResults
	}
	type hitJSON struct {
		Value  string `json:"value"`
		Table  string `json:"table"`
		Column string `json:"column"`
	}
	hits := []hitJSON{}
	for _, h := range ses.Autocomplete(req.Prefix, max) {
		hits = append(hits, hitJSON{Value: h.Value, Table: h.Table, Column: h.Column})
	}
	writeJSON(w, hits)
}

func (s *server) schema(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot(w, r.URL.Query().Get("db"), 0)
	if sn == nil {
		return
	}
	// Read through the pinned frozen snapshot so the row counts are one
	// consistent epoch, not a mid-ingest mixture.
	db := sn.Database()
	type colJSON struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	type tableJSON struct {
		Name    string    `json:"name"`
		PK      string    `json:"primary_key,omitempty"`
		Columns []colJSON `json:"columns"`
		Rows    int       `json:"rows"`
	}
	type schemaJSON struct {
		Database    string      `json:"database"`
		Epoch       int64       `json:"epoch"`
		Tables      []tableJSON `json:"tables"`
		ForeignKeys []string    `json:"foreign_keys"`
	}
	out := schemaJSON{Database: db.Name, Epoch: sn.Epoch()}
	for _, t := range db.Schema.Tables {
		tj := tableJSON{Name: t.Name, PK: t.PrimaryKey, Rows: t.NumRows()}
		for _, c := range t.Columns {
			tj.Columns = append(tj.Columns, colJSON{Name: c.Name, Type: c.Type.String()})
		}
		out.Tables = append(out.Tables, tj)
	}
	for _, fk := range db.Schema.ForeignKeys {
		out.ForeignKeys = append(out.ForeignKeys, fk.String())
	}
	writeJSON(w, out)
}

// dbs lists the registered databases with their published head epochs.
func (s *server) dbs(w http.ResponseWriter, r *http.Request) {
	type dbJSON struct {
		Name      string `json:"name"`
		Tables    int    `json:"tables"`
		Rows      int    `json:"rows"`
		HeadEpoch int64  `json:"head_epoch"`
		Default   bool   `json:"default"`
	}
	out := []dbJSON{}
	for _, name := range s.eng.Databases() {
		db, ok := s.eng.Lookup(name)
		if !ok {
			continue
		}
		// Count rows on a frozen snapshot: one consistent epoch per entry.
		snap := db.Snapshot()
		out = append(out, dbJSON{
			Name:      name,
			Tables:    len(snap.Schema.Tables),
			Rows:      snap.TotalRows(),
			HeadEpoch: snap.Epoch(),
			Default:   name == s.defaultDB,
		})
	}
	writeJSON(w, out)
}

// stats reports the engine-wide serving snapshot.
func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	type cacheJSON struct {
		StreamedExists int64 `json:"streamed_exists"`
		IndexSeeds     int64 `json:"index_seeds"`
		IndexProbes    int64 `json:"index_probes"`
	}
	type dictJSON struct {
		Table   string `json:"table"`
		Column  string `json:"column"`
		Entries int    `json:"entries"`
		Bytes   int64  `json:"bytes"`
	}
	type tableJSON struct {
		Table       string `json:"table"`
		Rows        int    `json:"rows"`
		VectorBytes int64  `json:"vector_bytes"`
		DictBytes   int64  `json:"dict_bytes"`
	}
	type storageJSON struct {
		Rows        int         `json:"rows"`
		VectorBytes int64       `json:"vector_bytes"`
		DictBytes   int64       `json:"dict_bytes"`
		Tables      []tableJSON `json:"tables"`
		Dicts       []dictJSON  `json:"dicts"`
		// Provenance: "memory" for databases built in-process, "disk" for
		// databases cold-started from a segment store.
		Source       string  `json:"source"`
		Segments     int     `json:"segments,omitempty"`
		Chunks       int     `json:"chunks,omitempty"`
		ManifestHash string  `json:"manifest_hash,omitempty"`
		LoadMS       float64 `json:"load_ms,omitempty"`
	}
	type epochJSON struct {
		Epoch    int64 `json:"epoch"`
		Requests int64 `json:"requests"`
	}
	type dbJSON struct {
		Database         string  `json:"database"`
		Requests         int64   `json:"requests"`
		Errors           int64   `json:"errors"`
		Candidates       int64   `json:"candidates"`
		Truncated        int64   `json:"truncated"`
		Interrupted      int64   `json:"interrupted"`
		AutocompleteSize int     `json:"autocomplete_size"`
		P50MS            float64 `json:"p50_ms"`
		P95MS            float64 `json:"p95_ms"`
		// Epoch visibility: the published head, Engine.Append batches
		// accepted, live/retired cache shards, per-request epoch lag, and
		// the requests each live shard served.
		HeadEpoch     int64       `json:"head_epoch"`
		Appends       int64       `json:"appends"`
		EpochsLive    int         `json:"epochs_live"`
		EpochsRetired int64       `json:"epochs_retired"`
		EpochLagMax   int64       `json:"epoch_lag_max"`
		EpochLagAvg   float64     `json:"epoch_lag_avg"`
		Epochs        []epochJSON `json:"epochs"`
		// Cancel-to-return latency: the gap between a request's context
		// firing and the request actually returning.
		CancelReturns       int64       `json:"cancel_returns"`
		CancelToReturnP50NS int64       `json:"cancel_to_return_p50_ns"`
		CancelToReturnP99NS int64       `json:"cancel_to_return_p99_ns"`
		Cache               cacheJSON   `json:"cache"`
		Storage             storageJSON `json:"storage"`
	}
	type statsJSON struct {
		InFlight  int64    `json:"in_flight"`
		Queued    int64    `json:"queued"`
		Admitted  int64    `json:"admitted"`
		Rejected  int64    `json:"rejected"`
		Databases []dbJSON `json:"databases"`
	}
	out := statsJSON{
		InFlight:  st.InFlight,
		Queued:    st.Queued,
		Admitted:  st.Admitted,
		Rejected:  st.Rejected,
		Databases: []dbJSON{},
	}
	for _, d := range st.Databases {
		sto := storageJSON{
			Rows:         d.Storage.Rows,
			VectorBytes:  d.Storage.VectorBytes,
			DictBytes:    d.Storage.DictBytes,
			Tables:       []tableJSON{},
			Dicts:        []dictJSON{},
			Source:       d.Storage.Provenance.Source,
			Segments:     d.Storage.Provenance.Segments,
			Chunks:       d.Storage.Provenance.Chunks,
			ManifestHash: d.Storage.Provenance.ManifestHash,
			LoadMS:       float64(d.Storage.Provenance.LoadDuration) / float64(time.Millisecond),
		}
		for _, tf := range d.Storage.Tables {
			sto.Tables = append(sto.Tables, tableJSON{
				Table:       tf.Table,
				Rows:        tf.Rows,
				VectorBytes: tf.VectorBytes,
				DictBytes:   tf.DictBytes,
			})
		}
		for _, dd := range d.Storage.Dicts {
			sto.Dicts = append(sto.Dicts, dictJSON{
				Table:   dd.Table,
				Column:  dd.Column,
				Entries: dd.Entries,
				Bytes:   dd.Bytes,
			})
		}
		epochs := []epochJSON{}
		for _, ep := range d.Epochs {
			epochs = append(epochs, epochJSON{Epoch: ep.Epoch, Requests: ep.Requests})
		}
		out.Databases = append(out.Databases, dbJSON{
			Database:            d.Database,
			Requests:            d.Requests,
			Errors:              d.Errors,
			Candidates:          d.Candidates,
			Truncated:           d.Truncated,
			Interrupted:         d.Interrupted,
			AutocompleteSize:    d.AutocompleteSize,
			P50MS:               float64(d.P50) / float64(time.Millisecond),
			P95MS:               float64(d.P95) / float64(time.Millisecond),
			HeadEpoch:           d.HeadEpoch,
			Appends:             d.Appends,
			EpochsLive:          d.EpochsLive,
			EpochsRetired:       d.EpochsRetired,
			EpochLagMax:         d.EpochLagMax,
			EpochLagAvg:         d.EpochLagAvg,
			Epochs:              epochs,
			CancelReturns:       d.CancelReturns,
			CancelToReturnP50NS: d.CancelP50.Nanoseconds(),
			CancelToReturnP99NS: d.CancelP99.Nanoseconds(),
			Cache: cacheJSON{
				StreamedExists: d.Cache.Pipeline.StreamedExists,
				IndexSeeds:     d.Cache.Pipeline.IndexSeeds,
				IndexProbes:    d.Cache.Pipeline.IndexProbes,
			},
			Storage: sto,
		})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// jsonValue converts a JSON literal to a Value.
func jsonValue(v interface{}) (duoquest.Value, error) {
	switch x := v.(type) {
	case string:
		return duoquest.Text(x), nil
	case float64:
		return duoquest.Number(x), nil
	default:
		return duoquest.Null(), fmt.Errorf("literal must be string or number, got %T", v)
	}
}

// jsonSketch converts the wire form to a TSQ.
func jsonSketch(sj *sketchJSON) (*duoquest.TSQ, error) {
	sk := &duoquest.TSQ{Sorted: sj.Sorted, Limit: sj.Limit}
	for _, t := range sj.Types {
		switch t {
		case "text":
			sk.Types = append(sk.Types, duoquest.TypeText)
		case "number":
			sk.Types = append(sk.Types, duoquest.TypeNumber)
		default:
			return nil, fmt.Errorf("bad type %q", t)
		}
	}
	for _, row := range sj.Tuples {
		var tuple duoquest.Tuple
		for _, cell := range row {
			switch x := cell.(type) {
			case nil:
				tuple = append(tuple, duoquest.Empty())
			case string:
				tuple = append(tuple, duoquest.Exact(duoquest.Text(x)))
			case float64:
				tuple = append(tuple, duoquest.Exact(duoquest.Number(x)))
			case []interface{}:
				if len(x) != 2 {
					return nil, fmt.Errorf("range cell needs [lo, hi]")
				}
				lo, ok1 := x[0].(float64)
				hi, ok2 := x[1].(float64)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("range bounds must be numbers")
				}
				tuple = append(tuple, duoquest.Range(lo, hi))
			default:
				return nil, fmt.Errorf("bad cell %T", cell)
			}
		}
		sk.Tuples = append(sk.Tuples, tuple)
	}
	if err := sk.Validate(); err != nil {
		return nil, err
	}
	return sk, nil
}

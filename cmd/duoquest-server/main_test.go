package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

// testConfig is DefaultConfig with the search bounds most server tests use.
func testConfig() duoquest.Config {
	cfg := duoquest.DefaultConfig()
	cfg.Budget = 2 * time.Second
	cfg.MaxCandidates = 3
	return cfg
}

func testServer(t *testing.T, cfg duoquest.Config) *server {
	t.Helper()
	eng := duoquest.NewEngine(cfg)
	for _, db := range []*duoquest.Database{dataset.Movies(), dataset.MAS()} {
		if err := eng.Register(db); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := newServer(eng, "mas")
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

const masBody = `{
	"nlq": "List the names of organizations in continent Europe",
	"literals": ["Europe"],
	"sketch": {"types": ["text"], "tuples": [["University of Oxford"]]}
}`

// withFields prepends routing fields (db, deadline_ms, epoch, stream) to a
// specification body: withFields(`"db": "movies"`, body).
func withFields(fields, spec string) string {
	return "{" + fields + ", " + strings.TrimPrefix(strings.TrimSpace(spec), "{")
}

func TestSynthesizeEndpoint(t *testing.T) {
	srv := testServer(t, testConfig())
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(masBody))
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp synthesizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if !strings.Contains(resp.Candidates[0].SQL, "continent = 'Europe'") {
		t.Errorf("top SQL = %s", resp.Candidates[0].SQL)
	}
	if len(resp.Candidates[0].Preview) == 0 {
		t.Error("preview missing")
	}
}

func TestSynthesizeEndpointErrors(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	cases := []struct {
		method string
		target string
		body   string
		want   int
	}{
		{http.MethodGet, "/v1/synthesize", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/synthesize", "not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "literals": [true]}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "sketch": {"types": ["blob"]}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "sketch": {"tuples": [[["a", "b"]]]}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "sketch": {"limit": -3}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"db": "nope", "nlq": "x"}`, http.StatusNotFound},
		{http.MethodPost, "/v1/synthesize", `{"db": "nope", "stream": true, "nlq": "x"}`, http.StatusNotFound},
		// Malformed routing fields are 400 — a negative epoch is not a
		// retired one — and a never-published epoch is 410.
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "epoch": -1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "epoch": 99}`, http.StatusGone},
		{http.MethodPost, "/v1/synthesize", `{"nlq": "x", "deadline_ms": -5}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/complete", `{"prefix": "SIG", "max": -2}`, http.StatusBadRequest},
		// The unversioned routes are gone.
		{http.MethodPost, "/synthesize", `{"nlq": "x"}`, http.StatusNotFound},
		{http.MethodGet, "/complete?q=SIG", "", http.StatusNotFound},
		{http.MethodGet, "/schema", "", http.StatusNotFound},
		{http.MethodGet, "/dbs", "", http.StatusNotFound},
		{http.MethodGet, "/stats", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.want {
			t.Errorf("%s %s %q: status = %d, want %d", c.method, c.target, c.body, w.Code, c.want)
		}
	}
}

// Streaming mode must emit exactly the non-streaming candidates, in the
// same order, then one done line carrying the summary.
func TestSynthesizeStreamingMatchesNonStreaming(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()

	plain := httptest.NewRecorder()
	h.ServeHTTP(plain, httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(masBody)))
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status = %d: %s", plain.Code, plain.Body.String())
	}
	var want synthesizeResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	stream := httptest.NewRecorder()
	h.ServeHTTP(stream, httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(withFields(`"stream": true`, masBody))))
	if stream.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", stream.Code, stream.Body.String())
	}
	if ct := stream.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}

	var got []candidateJSON
	var done *streamLine
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "candidate":
			if done != nil {
				t.Error("candidate after done line")
			}
			got = append(got, *line.Candidate)
		case "done":
			cp := line
			done = &cp
		default:
			t.Errorf("unexpected line type %q", line.Type)
		}
	}
	if done == nil {
		t.Fatal("no done line")
	}
	if done.States == 0 {
		t.Error("done line missing states")
	}
	if len(got) != len(want.Candidates) {
		t.Fatalf("stream emitted %d candidates, non-streaming %d", len(got), len(want.Candidates))
	}
	for i := range got {
		if got[i].SQL != want.Candidates[i].SQL || got[i].Rank != want.Candidates[i].Rank {
			t.Errorf("candidate %d: stream %+v vs plain %+v", i, got[i], want.Candidates[i])
		}
	}
}

// The Accept header is an alternative opt-in to streaming.
func TestSynthesizeStreamingViaAccept(t *testing.T) {
	srv := testServer(t, testConfig())
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(masBody))
	req.Header.Set("Accept", "application/x-ndjson")
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
}

// Per-database routing: the same NLQ resolves against the database named in
// the body's db field.
func TestSynthesizeDatabaseRouting(t *testing.T) {
	srv := testServer(t, testConfig())
	body := `{"db": "movies", "nlq": "titles of movies before 1995", "literals": [1995],
		"sketch": {"types": ["text"], "tuples": [["Forrest Gump"]]}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp synthesizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) == 0 || !strings.Contains(resp.Candidates[0].SQL, "movie") {
		t.Errorf("movies candidates = %+v", resp.Candidates)
	}
}

func TestCompleteEndpoint(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(`{"prefix": "SIG", "max": 3}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var hits []map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || hits[0]["value"] != "SIGMOD" {
		t.Errorf("hits = %v", hits)
	}

	// Routing: the movies database has its own index.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(`{"db": "movies", "prefix": "Forrest"}`)))
	hits = nil
	if err := json.Unmarshal(w.Body.Bytes(), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0]["value"] != "Forrest Gump" {
		t.Errorf("movies hits = %v", hits)
	}
}

func TestCompleteEndpointParamValidation(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(body)))
		return w
	}
	// max = 0 is "unset" in a structured body and takes the default of 10.
	for _, body := range []string{
		`{"prefix": "SIG", "max": "abc"}`,
		`{"prefix": "SIG", "max": -2}`,
		`{"prefix": "SIG", "max": 3.5}`,
	} {
		if w := post(body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, w.Code)
		}
	}
	// Oversized max is clamped, not rejected.
	w := post(`{"prefix": "a", "max": 100000}`)
	if w.Code != http.StatusOK {
		t.Fatalf("clamped max: status = %d", w.Code)
	}
	var hits []map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) > maxCompleteResults {
		t.Errorf("clamp failed: %d hits", len(hits))
	}
	// Unknown database.
	if w = post(`{"db": "nope", "prefix": "SIG"}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown db: status = %d", w.Code)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/schema", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var out struct {
		Database    string   `json:"database"`
		Tables      []any    `json:"tables"`
		ForeignKeys []string `json:"foreign_keys"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Database != "mas" || len(out.Tables) != 15 || len(out.ForeignKeys) != 19 {
		t.Errorf("schema = %s, %d tables, %d fks", out.Database, len(out.Tables), len(out.ForeignKeys))
	}
	// Routed to movies.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/schema?db=movies", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Database != "movies" || len(out.Tables) != 3 {
		t.Errorf("movies schema = %s, %d tables", out.Database, len(out.Tables))
	}
	// Unknown database.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/schema?db=nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown db: status = %d", w.Code)
	}
}

func TestDBsEndpoint(t *testing.T) {
	srv := testServer(t, testConfig())
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/dbs", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var out []struct {
		Name    string `json:"name"`
		Tables  int    `json:"tables"`
		Rows    int    `json:"rows"`
		Default bool   `json:"default"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Name != "movies" || out[1].Name != "mas" {
		t.Fatalf("dbs = %+v", out)
	}
	if out[0].Default || !out[1].Default {
		t.Errorf("default flags = %+v", out)
	}
	if out[1].Tables != 15 || out[1].Rows == 0 {
		t.Errorf("mas meta = %+v", out[1])
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	// Serve one synthesis so the counters move.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(masBody)))
	if w.Code != http.StatusOK {
		t.Fatalf("synthesize status = %d", w.Code)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d", w.Code)
	}
	var out struct {
		InFlight  int64 `json:"in_flight"`
		Admitted  int64 `json:"admitted"`
		Databases []struct {
			Database string             `json:"database"`
			Requests int64              `json:"requests"`
			P50MS    float64            `json:"p50_ms"`
			Cache    map[string]float64 `json:"cache"`
			Storage  struct {
				Rows        int   `json:"rows"`
				VectorBytes int64 `json:"vector_bytes"`
				DictBytes   int64 `json:"dict_bytes"`
				Tables      []struct {
					Table string `json:"table"`
					Rows  int    `json:"rows"`
				} `json:"tables"`
				Dicts []struct {
					Table   string `json:"table"`
					Column  string `json:"column"`
					Entries int    `json:"entries"`
					Bytes   int64  `json:"bytes"`
				} `json:"dicts"`
			} `json:"storage"`
		} `json:"databases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Admitted != 1 || out.InFlight != 0 || len(out.Databases) != 2 {
		t.Errorf("stats = %+v", out)
	}
	mas := out.Databases[1]
	if mas.Database != "mas" || mas.Requests != 1 || mas.P50MS <= 0 {
		t.Errorf("mas stats = %+v", mas)
	}
	if mas.Cache["streamed_exists"] == 0 {
		t.Errorf("mas cache stats = %+v", mas.Cache)
	}
	// Counters that are constant now that nothing falls back are not served.
	for _, gone := range []string{"fallback_exists", "joins_built", "streamed_rate"} {
		if _, ok := mas.Cache[gone]; ok {
			t.Errorf("mas cache stats still report %s: %+v", gone, mas.Cache)
		}
	}
	// Storage footprint: per-table column memory and dictionary sizes.
	sto := mas.Storage
	if sto.Rows == 0 || sto.VectorBytes == 0 || sto.DictBytes == 0 {
		t.Errorf("mas storage stats = %+v", sto)
	}
	if len(sto.Tables) != 15 {
		t.Errorf("mas storage tables = %d, want 15", len(sto.Tables))
	}
	if len(sto.Dicts) == 0 {
		t.Fatalf("mas storage reports no dictionaries")
	}
	for _, d := range sto.Dicts {
		if d.Table == "" || d.Column == "" || d.Entries == 0 || d.Bytes == 0 {
			t.Errorf("dictionary stat missing fields: %+v", d)
		}
	}
}

// Graceful shutdown with a request in flight: Shutdown must wait for the
// streaming response to complete, and the client must receive it whole.
// The request is a budget-bound search over the large MAS space (type-only
// sketch, high candidate cap), so the stream provably spans the full
// budget: the test synchronizes on the first streamed candidate before
// shutting down, guaranteeing the overlap rather than racing a sleep.
func TestGracefulShutdownMidRequest(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	cfg.Budget = time.Second
	cfg.MaxCandidates = 100000
	srv := testServer(t, cfg)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	type result struct {
		body string
		err  error
	}
	body := `{"stream": true, "nlq": "names of authors", "sketch": {"types": ["text"]}}`
	firstLine := make(chan struct{})
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			close(firstLine)
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		head, err := br.ReadString('\n')
		close(firstLine) // the handler is now provably mid-stream
		if err != nil {
			resc <- result{err: err}
			return
		}
		rest, err := io.ReadAll(br)
		resc <- result{body: head + string(rest), err: err}
	}()

	<-firstLine
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	if !strings.Contains(r.body, `"type":"done"`) {
		t.Errorf("in-flight response truncated: %q", r.body)
	}
}

func TestJSONSketchRange(t *testing.T) {
	sk, err := jsonSketch(&sketchJSON{
		Types:  []string{"text", "number"},
		Tuples: [][]interface{}{{"Gravity", []interface{}{2010.0, 2017.0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.Tuples) != 1 || sk.Tuples[0][1].Kind != 2 { // CellRange
		t.Errorf("sketch = %v", sk)
	}
	if _, err := jsonSketch(&sketchJSON{Tuples: [][]interface{}{{[]interface{}{1.0}}}}); err == nil {
		t.Error("short range should fail")
	}
	if _, err := jsonSketch(&sketchJSON{Tuples: [][]interface{}{{[]interface{}{"a", "b"}}}}); err == nil {
		t.Error("non-numeric range should fail")
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
)

// elapsedRE matches the timing fields that legitimately differ between two
// otherwise identical responses.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": ?\d+,?`)

// normalizeTiming drops elapsed_ms so responses can be compared byte for
// byte. Dropped, not zeroed: the stream's done line omits the field when a
// request finishes inside a millisecond, which a warm request now does.
func normalizeTiming(body string) string {
	return elapsedRE.ReplaceAllString(body, "")
}

func doReq(t *testing.T, srv *server, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, req)
	return w
}

// boundedConfig bounds the search by MaxStates, not wall clock, so two runs
// of one request explore the same deterministic prefix; its deadline is a
// safety net far beyond the state cap.
func boundedConfig() duoquest.Config {
	cfg := duoquest.DefaultConfig()
	cfg.MaxStates = 3000
	cfg.MaxCandidates = 3
	cfg.DefaultDeadline = 30 * time.Second
	return cfg
}

// TestV1SynthesizeEquivalence: a body that names the default database and
// one that names none produce byte-identical responses (modulo elapsed_ms),
// and the response carries the epoch the request observed. (Until the
// unversioned routes were deleted this compared /v1/synthesize with them.)
func TestV1SynthesizeEquivalence(t *testing.T) {
	srv := testServer(t, boundedConfig())

	implicit := doReq(t, srv, http.MethodPost, "/v1/synthesize", masBody, nil)
	if implicit.Code != http.StatusOK {
		t.Fatalf("default-db status = %d: %s", implicit.Code, implicit.Body.String())
	}
	named := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"db": "mas"`, masBody), nil)
	if named.Code != http.StatusOK {
		t.Fatalf("named-db status = %d: %s", named.Code, named.Body.String())
	}
	if got, want := normalizeTiming(named.Body.String()), normalizeTiming(implicit.Body.String()); got != want {
		t.Errorf("naming the default database changes the response:\n named: %s\ndefault: %s", got, want)
	}

	var resp synthesizeResponse
	if err := json.Unmarshal(named.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch <= 0 {
		t.Errorf("epoch = %d, want a published epoch", resp.Epoch)
	}
}

// TestV1SynthesizeStreamEquivalence: the body's stream flag and the NDJSON
// Accept header produce the same lines (modulo elapsed_ms), ending in a done
// summary that carries the epoch.
func TestV1SynthesizeStreamEquivalence(t *testing.T) {
	srv := testServer(t, boundedConfig())
	byHeader := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"db": "mas"`, masBody),
		map[string]string{"Accept": "application/x-ndjson"})
	if byHeader.Code != http.StatusOK {
		t.Fatalf("Accept status = %d: %s", byHeader.Code, byHeader.Body.String())
	}
	byFlag := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"db": "mas", "stream": true`, masBody), nil)
	if byFlag.Code != http.StatusOK {
		t.Fatalf("stream-flag status = %d: %s", byFlag.Code, byFlag.Body.String())
	}
	if got, want := normalizeTiming(byFlag.Body.String()), normalizeTiming(byHeader.Body.String()); got != want {
		t.Errorf("stream flag and Accept header differ:\n flag: %s\nheader: %s", got, want)
	}
	var done streamLine
	sc := bufio.NewScanner(strings.NewReader(byFlag.Body.String()))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
			t.Fatal(err)
		}
	}
	if done.Type != "done" || done.Epoch <= 0 {
		t.Errorf("final stream line = %+v, want done with a published epoch", done)
	}
}

// TestV1CompleteEquivalence: an omitted max is the default of 10, an omitted
// db the server's default database, and the route is POST-only.
func TestV1CompleteEquivalence(t *testing.T) {
	srv := testServer(t, testConfig())
	implicit := doReq(t, srv, http.MethodPost, "/v1/complete", `{"prefix": "Uni"}`, nil)
	if implicit.Code != http.StatusOK {
		t.Fatalf("defaults status = %d: %s", implicit.Code, implicit.Body.String())
	}
	explicit := doReq(t, srv, http.MethodPost, "/v1/complete", `{"db": "mas", "prefix": "Uni", "max": 10}`, nil)
	if explicit.Code != http.StatusOK {
		t.Fatalf("explicit status = %d: %s", explicit.Code, explicit.Body.String())
	}
	if explicit.Body.String() != implicit.Body.String() {
		t.Errorf("spelling out the defaults changes the answer:\n explicit: %s\ndefaults: %s", explicit.Body.String(), implicit.Body.String())
	}
	if doReq(t, srv, http.MethodGet, "/v1/complete?q=Uni", "", nil).Code != http.StatusMethodNotAllowed {
		t.Error("v1 complete should reject GET")
	}
}

// TestV1ReadRoutesEquivalence: the GET surfaces answer 200, and /v1/schema
// without ?db= is the default database's schema.
func TestV1ReadRoutesEquivalence(t *testing.T) {
	srv := testServer(t, testConfig())
	for _, route := range []string{"/v1/schema?db=movies", "/v1/dbs", "/v1/stats"} {
		if w := doReq(t, srv, http.MethodGet, route, "", nil); w.Code != http.StatusOK {
			t.Errorf("%s status = %d", route, w.Code)
		}
	}
	implicit := doReq(t, srv, http.MethodGet, "/v1/schema", "", nil)
	named := doReq(t, srv, http.MethodGet, "/v1/schema?db=mas", "", nil)
	if implicit.Code != http.StatusOK || implicit.Body.String() != named.Body.String() {
		t.Errorf("/v1/schema without ?db= (status %d) is not the default database's schema", implicit.Code)
	}
}

// TestSynthesizeEpochPinning drives the server's epoch surface end to end:
// a request pinned to a pre-ingest epoch keeps its answers after an append,
// an unpinned request observes the new head, and a retired epoch is 410.
func TestSynthesizeEpochPinning(t *testing.T) {
	srv := testServer(t, boundedConfig())

	before := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"db": "mas"`, masBody), nil)
	if before.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", before.Code, before.Body.String())
	}
	var resp synthesizeResponse
	if err := json.Unmarshal(before.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	pinned := resp.Epoch

	// Ingest a new Europe organization; the head moves, the old epoch stays.
	if _, err := srv.eng.Append("mas", "organization", []duoquest.ColumnData{
		{Nums: []float64{9001}},
		{Texts: []string{"University of Testing"}},
		{Texts: []string{"Europe"}},
		{Texts: []string{"http://uot.example"}},
	}); err != nil {
		t.Fatal(err)
	}

	pinnedBody := withFields(fmt.Sprintf(`"db": "mas", "epoch": %d`, pinned), masBody)
	after := doReq(t, srv, http.MethodPost, "/v1/synthesize", pinnedBody, nil)
	if after.Code != http.StatusOK {
		t.Fatalf("pinned status = %d: %s", after.Code, after.Body.String())
	}
	if got, want := normalizeTiming(after.Body.String()), normalizeTiming(before.Body.String()); got != want {
		t.Errorf("pinned re-run differs from pre-ingest run:\n got %s\nwant %s", got, want)
	}

	head := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"db": "mas"`, masBody), nil)
	if head.Code != http.StatusOK {
		t.Fatalf("head status = %d: %s", head.Code, head.Body.String())
	}
	var headResp synthesizeResponse
	if err := json.Unmarshal(head.Body.Bytes(), &headResp); err != nil {
		t.Fatal(err)
	}
	if headResp.Epoch != pinned+1 {
		t.Errorf("head epoch = %d, want %d", headResp.Epoch, pinned+1)
	}
	if !strings.Contains(head.Body.String(), "University of Testing") {
		t.Error("head-epoch previews should show the ingested row")
	}
	if strings.Contains(after.Body.String(), "University of Testing") {
		t.Error("pinned-epoch previews must not show the ingested row")
	}

	// A never-published epoch answers 410 Gone.
	gone := doReq(t, srv, http.MethodPost, "/v1/synthesize", `{"db": "mas", "epoch": 99, "nlq": "x"}`, nil)
	if gone.Code != http.StatusGone {
		t.Errorf("unpublished epoch status = %d, want %d", gone.Code, http.StatusGone)
	}
}

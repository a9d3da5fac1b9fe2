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

// TestV1SynthesizeEquivalence: the legacy query-parameter route and the
// versioned structured-body route produce byte-identical responses (modulo
// elapsed_ms) for the same request. MaxStates bounds the search so both
// runs explore the same deterministic prefix.
func TestV1SynthesizeEquivalence(t *testing.T) {
	srv := testServer(t,
		duoquest.WithMaxStates(3000),
		duoquest.WithMaxCandidates(3),
		duoquest.WithBudget(30*time.Second),
	)

	legacy := doReq(t, srv, http.MethodPost, "/synthesize?db=mas", masBody, nil)
	if legacy.Code != http.StatusOK {
		t.Fatalf("legacy status = %d: %s", legacy.Code, legacy.Body.String())
	}
	v1Body := `{"db": "mas", ` + strings.TrimPrefix(strings.TrimSpace(masBody), "{")
	v1 := doReq(t, srv, http.MethodPost, "/v1/synthesize", v1Body, nil)
	if v1.Code != http.StatusOK {
		t.Fatalf("v1 status = %d: %s", v1.Code, v1.Body.String())
	}
	if got, want := normalizeTiming(v1.Body.String()), normalizeTiming(legacy.Body.String()); got != want {
		t.Errorf("v1 response differs from legacy:\n v1: %s\nlegacy: %s", got, want)
	}

	// Both carry the epoch the request observed.
	var resp synthesizeResponse
	if err := json.Unmarshal(v1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch <= 0 {
		t.Errorf("v1 epoch = %d, want a published epoch", resp.Epoch)
	}
}

// TestV1SynthesizeStreamEquivalence: the body's stream flag and the legacy
// ?stream=1 produce the same NDJSON lines (modulo elapsed_ms).
func TestV1SynthesizeStreamEquivalence(t *testing.T) {
	srv := testServer(t,
		duoquest.WithMaxStates(3000),
		duoquest.WithMaxCandidates(3),
		duoquest.WithBudget(30*time.Second),
	)
	legacy := doReq(t, srv, http.MethodPost, "/synthesize?db=mas&stream=1", masBody, nil)
	if legacy.Code != http.StatusOK {
		t.Fatalf("legacy status = %d: %s", legacy.Code, legacy.Body.String())
	}
	v1Body := `{"db": "mas", "stream": true, ` + strings.TrimPrefix(strings.TrimSpace(masBody), "{")
	v1 := doReq(t, srv, http.MethodPost, "/v1/synthesize", v1Body, nil)
	if v1.Code != http.StatusOK {
		t.Fatalf("v1 status = %d: %s", v1.Code, v1.Body.String())
	}
	if got, want := normalizeTiming(v1.Body.String()), normalizeTiming(legacy.Body.String()); got != want {
		t.Errorf("v1 stream differs from legacy:\n v1: %s\nlegacy: %s", got, want)
	}
	// The final line is a done summary carrying the epoch.
	var done streamLine
	sc := bufio.NewScanner(strings.NewReader(v1.Body.String()))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
			t.Fatal(err)
		}
	}
	if done.Type != "done" || done.Epoch <= 0 {
		t.Errorf("final stream line = %+v, want done with a published epoch", done)
	}
}

// TestV1CompleteEquivalence: GET /complete and POST /v1/complete answer
// identically.
func TestV1CompleteEquivalence(t *testing.T) {
	srv := testServer(t)
	legacy := doReq(t, srv, http.MethodGet, "/complete?db=mas&q=Uni&max=5", "", nil)
	if legacy.Code != http.StatusOK {
		t.Fatalf("legacy status = %d: %s", legacy.Code, legacy.Body.String())
	}
	v1 := doReq(t, srv, http.MethodPost, "/v1/complete", `{"db": "mas", "prefix": "Uni", "max": 5}`, nil)
	if v1.Code != http.StatusOK {
		t.Fatalf("v1 status = %d: %s", v1.Code, v1.Body.String())
	}
	if v1.Body.String() != legacy.Body.String() {
		t.Errorf("v1 complete differs:\n v1: %s\nlegacy: %s", v1.Body.String(), legacy.Body.String())
	}
	if doReq(t, srv, http.MethodGet, "/v1/complete?q=Uni", "", nil).Code != http.StatusMethodNotAllowed {
		t.Error("v1 complete should reject GET")
	}
}

// TestV1ReadRoutesEquivalence: the GET surfaces are shared cores, so the
// versioned and legacy paths answer byte-identically.
func TestV1ReadRoutesEquivalence(t *testing.T) {
	srv := testServer(t)
	for _, route := range []string{"/schema?db=movies", "/dbs", "/stats"} {
		legacy := doReq(t, srv, http.MethodGet, route, "", nil)
		v1 := doReq(t, srv, http.MethodGet, "/v1"+route, "", nil)
		if legacy.Code != http.StatusOK || v1.Code != http.StatusOK {
			t.Fatalf("%s status legacy=%d v1=%d", route, legacy.Code, v1.Code)
		}
		if v1.Body.String() != legacy.Body.String() {
			t.Errorf("%s differs between v1 and legacy:\n v1: %s\nlegacy: %s",
				route, v1.Body.String(), legacy.Body.String())
		}
	}
}

// TestSynthesizeEpochPinning drives the server's epoch surface end to end:
// a request pinned to a pre-ingest epoch keeps its answers after an append,
// an unpinned request observes the new head, and a retired epoch is 410.
func TestSynthesizeEpochPinning(t *testing.T) {
	srv := testServer(t,
		duoquest.WithMaxStates(3000),
		duoquest.WithMaxCandidates(3),
		duoquest.WithBudget(30*time.Second),
	)

	before := doReq(t, srv, http.MethodPost, "/v1/synthesize", `{"db": "mas", `+strings.TrimPrefix(strings.TrimSpace(masBody), "{"), nil)
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

	pinnedBody := fmt.Sprintf(`{"db": "mas", "epoch": %d, `, pinned) + strings.TrimPrefix(strings.TrimSpace(masBody), "{")
	after := doReq(t, srv, http.MethodPost, "/v1/synthesize", pinnedBody, nil)
	if after.Code != http.StatusOK {
		t.Fatalf("pinned status = %d: %s", after.Code, after.Body.String())
	}
	if got, want := normalizeTiming(after.Body.String()), normalizeTiming(before.Body.String()); got != want {
		t.Errorf("pinned re-run differs from pre-ingest run:\n got %s\nwant %s", got, want)
	}

	head := doReq(t, srv, http.MethodPost, "/v1/synthesize", `{"db": "mas", `+strings.TrimPrefix(strings.TrimSpace(masBody), "{"), nil)
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

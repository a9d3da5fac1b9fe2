package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// deadline_ms must be a non-negative integer (0 = unset); garbage is a client
// error, not a silently ignored knob.
func TestDeadlineParamValidation(t *testing.T) {
	srv := testServer(t, testConfig())
	h := srv.handler()
	for _, field := range []string{
		`"deadline_ms": "abc"`,
		`"deadline_ms": -5`,
		`"deadline_ms": 1.5`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(withFields(field, masBody)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", field, w.Code)
		}
	}
}

// A request whose deadline_ms expires mid-search gets 200 with the anytime
// prefix and truncated set — not an error status.
func TestDeadlineExpiryReturnsTruncated(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	cfg.MaxCandidates = 100000
	srv := testServer(t, cfg)
	body := `{"deadline_ms": 1, "nlq": "names of authors", "sketch": {"types": ["text"]}}`
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
	if !resp.Truncated {
		t.Error("1ms deadline on an open-ended search should truncate")
	}
	st := srv.eng.Stats()
	var total int64
	for _, db := range st.Databases {
		total += db.Truncated
	}
	if total != 1 {
		t.Errorf("Truncated stat = %d, want 1", total)
	}
}

// A request's deadline_ms replaces the engine's default deadline, however
// short that default: the request context is the search's only clock. Under
// a 1 ns default, a request asking for 60 s that the state cap ends first
// returns whole, and nothing is counted as a cancelled return.
func TestRequestDeadlineOverridesEngineDefault(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = time.Nanosecond
	cfg.MaxStates = 200
	srv := testServer(t, cfg)
	w := doReq(t, srv, http.MethodPost, "/v1/synthesize", withFields(`"deadline_ms": 60000`, masBody), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp synthesizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || resp.States == 0 {
		t.Errorf("deadline_ms 60000 under a 1ns default: truncated=%v after %d states, want a whole search", resp.Truncated, resp.States)
	}
	for _, db := range srv.eng.Stats().Databases {
		if db.Truncated != 0 || db.CancelReturns != 0 {
			t.Errorf("%s: Truncated = %d, CancelReturns = %d, want 0 and 0", db.Database, db.Truncated, db.CancelReturns)
		}
	}
}

// A shed request reads the admission gauges alone: registering another,
// large database adds nothing to what writing the 503 allocates, because an
// overloaded server sheds many requests.
func TestOverloadedReadsOnlyTheGauges(t *testing.T) {
	srv := testServer(t, testConfig())
	allocs := func() float64 {
		return testing.AllocsPerRun(20, func() { srv.writeOverloaded(httptest.NewRecorder()) })
	}
	before := allocs()
	cols := []storage.Column{{Name: "id", Type: sqlir.TypeNumber}}
	for c := range 8 {
		cols = append(cols, storage.Column{Name: "c" + strconv.Itoa(c), Type: sqlir.TypeText})
	}
	big := storage.NewTable("big", "id", cols...)
	for r := range 5000 {
		row := []sqlir.Value{sqlir.NewInt(r)}
		for c := range 8 {
			row = append(row, sqlir.NewText(strconv.Itoa(r*8+c)))
		}
		big.MustInsert(row...)
	}
	if err := srv.eng.Register(storage.NewDatabase("big", storage.NewSchema(big))); err != nil {
		t.Fatal(err)
	}
	if after := allocs(); after > before {
		t.Errorf("a 503 costs %.0f allocations with a large database registered, %.0f without", after, before)
	}
}

// A shed request gets a structured 503: machine-readable JSON body plus a
// Retry-After header for informed backoff.
func TestOverloadedResponseShape(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 5 * time.Second
	cfg.MaxCandidates = 100000
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	srv := testServer(t, cfg)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Occupy the only in-flight slot with a streaming search, synchronized
	// on its first emitted candidate.
	body := `{"stream": true, "nlq": "names of authors", "sketch": {"types": ["text"]}}`
	holder, cancelHolder := context.WithCancel(context.Background())
	defer cancelHolder()
	firstLine := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		req, _ := http.NewRequestWithContext(holder, http.MethodPost,
			ts.URL+"/v1/synthesize", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			close(firstLine)
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			close(firstLine)
			return
		}
		close(firstLine)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	<-firstLine

	// Fill the one queue slot with a second request.
	waiter, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		req, _ := http.NewRequestWithContext(waiter, http.MethodPost,
			ts.URL+"/v1/synthesize", strings.NewReader(masBody))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.eng.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The third request must be shed immediately with the structured 503.
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(masBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q, want application/json", ct)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var body503 struct {
		Error        string `json:"error"`
		QueueDepth   int64  `json:"queue_depth"`
		InFlight     int64  `json:"in_flight"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body503); err != nil {
		t.Fatalf("503 body is not JSON: %v", err)
	}
	if body503.Error == "" || body503.RetryAfterMS < 1000 {
		t.Errorf("503 body = %+v", body503)
	}

	cancelHolder()
	cancelWaiter()
	<-holderDone
	<-waiterDone
}

// A client that disconnects mid-stream stops the search promptly and is
// accounted as an interruption, not a success.
func TestStreamDisconnectRecordsInterruption(t *testing.T) {
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = 10 * time.Second
	cfg.MaxCandidates = 100000
	srv := testServer(t, cfg)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body := `{"stream": true, "nlq": "names of authors", "sketch": {"types": ["text"]}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/synthesize", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		cancel()
		t.Fatalf("no first candidate: %v", err)
	}
	cancel() // client walks away mid-stream
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var interrupted int64
		for _, db := range srv.eng.Stats().Databases {
			interrupted += db.Interrupted
		}
		if interrupted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interruption never recorded (interrupted=%d)", interrupted)
		}
		time.Sleep(time.Millisecond)
	}
}

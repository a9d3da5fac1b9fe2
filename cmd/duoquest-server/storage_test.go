package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

// TestRegisterPersisted loads a segment store into an engine and checks
// /stats reports disk provenance for the loaded database and memory
// provenance for the built-ins.
func TestRegisterPersisted(t *testing.T) {
	store, err := duoquest.OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk := dataset.Movies()
	disk.Name = "movies-disk"
	if _, err := store.Persist(disk); err != nil {
		t.Fatal(err)
	}

	eng := duoquest.NewEngine(duoquest.DefaultConfig())
	if err := eng.Register(dataset.MAS()); err != nil {
		t.Fatal(err)
	}
	var logs []string
	registerPersisted(eng, store, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	if got := eng.Databases(); len(got) != 2 {
		t.Fatalf("databases = %v, want mas + movies-disk (logs: %v)", got, logs)
	}

	srv, err := newServer(eng, "mas")
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", w.Code)
	}
	var stats struct {
		Databases []struct {
			Database string `json:"database"`
			Storage  struct {
				Source       string  `json:"source"`
				Segments     int     `json:"segments"`
				Chunks       int     `json:"chunks"`
				ManifestHash string  `json:"manifest_hash"`
				LoadMS       float64 `json:"load_ms"`
			} `json:"storage"`
		} `json:"databases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	bySource := map[string]string{}
	for _, d := range stats.Databases {
		bySource[d.Database] = d.Storage.Source
		if d.Database == "movies-disk" {
			if d.Storage.Segments == 0 || d.Storage.Chunks == 0 {
				t.Fatalf("disk database reports no segments/chunks: %+v", d.Storage)
			}
			if len(d.Storage.ManifestHash) != 64 {
				t.Fatalf("manifest_hash = %q", d.Storage.ManifestHash)
			}
		}
	}
	if bySource["mas"] != "memory" {
		t.Fatalf("mas source = %q, want memory", bySource["mas"])
	}
	if bySource["movies-disk"] != "disk" {
		t.Fatalf("movies-disk source = %q, want disk", bySource["movies-disk"])
	}
}

// TestRegisterPersistedSkipsCorrupt proves one corrupt store entry cannot
// take down the rest: the bad entry is logged and skipped, the healthy one
// is registered, and the engine keeps serving.
func TestRegisterPersistedSkipsCorrupt(t *testing.T) {
	store, err := duoquest.OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := dataset.Movies()
	good.Name = "good"
	bad := dataset.MAS()
	bad.Name = "bad"
	for _, db := range []*duoquest.Database{good, bad} {
		if _, err := store.Persist(db); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one chunk of "bad".
	m, err := store.Manifest("bad")
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Tables[0].Segments[0].Chunks[0]
	path := filepath.Join(store.Dir(), "bad", "chunks", addr)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	eng := duoquest.NewEngine(duoquest.DefaultConfig())
	var logs []string
	registerPersisted(eng, store, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	dbs := eng.Databases()
	if len(dbs) != 1 || dbs[0] != "good" {
		t.Fatalf("databases = %v, want [good]", dbs)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "skipping bad") && strings.Contains(l, addr) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no log names the corrupt chunk %s: %v", addr, logs)
	}

	// The engine still answers autocomplete traffic for the healthy DB.
	srv, err := newServer(eng, "good")
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(`{"prefix": "F", "max": 3}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/complete after corrupt skip = %d: %s", w.Code, w.Body.String())
	}
}

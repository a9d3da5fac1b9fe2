//go:build unix

package segment

import (
	"os"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/storage"
)

// TestRepeatedLoadsBoundTheirMappings: a process that loads one database
// over and over makes at most maxMappedChunks chunk mappings; the loads
// past the bound read their chunks and load the same database. Unbounded,
// the loads below would add 3 000 memory map areas beyond the bound.
func TestRepeatedLoadsBoundTheirMappings(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps to count memory map areas in")
	}
	db := handBuilt(t)
	want := storage.Fingerprint(db)
	store, _ := mustPersist(t, db)
	start := mappedChunks.Load()
	// Later tests and benchmarks in this process map chunks as a fresh
	// process would; the mappings made here stay, within the default
	// vm.max_map_count.
	t.Cleanup(func() { mappedChunks.Store(start) })
	before := mapAreas(t)
	loads := int(maxMappedChunks-start)/6 + 500
	for i := range loads {
		loaded, _, err := store.Load(db.Name)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if got := storage.Fingerprint(loaded); got != want {
			t.Fatalf("load %d: fingerprint %016x, want %016x", i, got, want)
		}
	}
	if grown, bound := mapAreas(t)-before, int(maxMappedChunks-start); grown > bound+1000 {
		t.Fatalf("%d loads added %d memory map areas; the chunk mappings are bounded at %d more", loads, grown, bound)
	}
}

// mapAreas counts the process's memory map areas.
func mapAreas(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(b), "\n")
}

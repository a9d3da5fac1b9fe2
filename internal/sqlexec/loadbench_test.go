package sqlexec_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/storage"
)

// BenchmarkLoadgenVerifySweep is the data-scale sweep: the same
// verification-shaped probe workload (loadgen.Probes — selective equality +
// range over an FK edge, exact-name by-row probes, grouped HAVING) against
// generated databases of growing row counts, so it shows how verification
// cost scales with data size, not just how fast it is on the small demo
// sets. Run it with `go test ./internal/sqlexec -run '^$' -bench
// BenchmarkLoadgenVerifySweep -benchmem`. At
// the smallest scale every probe must answer without an error, and as the
// materializing reference does.

// sweepRows are the swept scales. The 1M scale is skipped under -short so
// CI's quick path stays fast; a run without -short measures the full curve
// including 1M.
var sweepRows = []int{10_000, 30_000, 100_000, 300_000}

// sweepScales appends the 1M scale outside -short runs.
func sweepScales() []int {
	if testing.Short() {
		return sweepRows
	}
	return append(append([]int{}, sweepRows...), 1_000_000)
}

var (
	sweepMu  sync.Mutex
	sweepDBs = map[int]*loadgen.Generated{}
)

func sweepDB(b *testing.B, rows int) *loadgen.Generated {
	b.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if g, ok := sweepDBs[rows]; ok {
		return g
	}
	g, err := loadgen.Generate(loadgen.Spec{Name: "sweep", Tables: 6, Rows: rows}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sweepDBs[rows] = g
	return g
}

func BenchmarkLoadgenVerifySweep(b *testing.B) {
	for _, rows := range sweepScales() {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			g := sweepDB(b, rows)
			probes := g.Probes(100, 2)
			if rows == sweepRows[0] {
				checkSweepEquivalence(b, g.DB, probes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pi, eq := range probes {
					if _, err := sqlexec.Exists(g.DB, eq); err != nil {
						b.Fatalf("probe %d: %v", pi, err)
					}
				}
			}
		})
	}
}

// checkSweepEquivalence asserts every sweep probe answers without an error
// and agrees with the materializing reference.
func checkSweepEquivalence(b *testing.B, db *storage.Database, probes []sqlexec.ExistsQuery) {
	b.Helper()
	for i, eq := range probes {
		got, err := sqlexec.Exists(db, eq)
		if err != nil {
			b.Fatalf("probe %d: %v", i, err)
		}
		ref, err := sqlexec.ExistsReference(db, eq)
		if err != nil {
			b.Fatal(err)
		}
		if got != ref {
			b.Fatalf("probe %d: streaming=%v reference=%v", i, got, ref)
		}
	}
}

package sqlexec_test

import (
	"fmt"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
)

// BenchmarkMorsel*: cores-vs-speedup measurements of the morsel-driven scan
// fan-out over the 300k-row (and, without -short, 1M-row) generated sweep
// database, at explicit worker counts so the curve does not depend on the
// machine's core count. Every configuration first asserts probe-for-probe
// equivalence with the single-threaded columnar pipeline — the differential
// oracle — so parallel speedup can never come from changed semantics. Run
// them with `go test ./internal/sqlexec -run '^$' -bench BenchmarkMorsel
// -benchtime 3x -benchmem`. NOTE: wall-clock speedup only materializes when
// GOMAXPROCS >= workers; on a single core the curve is flat and documents
// scheduling overhead, not scaling (see EXPERIMENTS.md).

// morselBenchWorkers is the swept fan-out width (caller included).
var morselBenchWorkers = []int{1, 2, 4, 8}

// morselBenchRows returns the swept data scales; the 1M scale is skipped
// under -short so CI's quick path stays quick.
func morselBenchRows() []int {
	if testing.Short() {
		return []int{300_000}
	}
	return []int{300_000, 1_000_000}
}

// splitSweepProbes partitions the loadgen probe workload into flat witness
// probes and grouped (GROUP BY/HAVING) probes, the two morsel merge paths.
func splitSweepProbes(b *testing.B, rows int) (flat, grouped []sqlexec.ExistsQuery) {
	b.Helper()
	g := sweepDB(b, rows)
	for _, eq := range g.Probes(150, 2) {
		if len(eq.GroupBy) > 0 || len(eq.Havings) > 0 {
			grouped = append(grouped, eq)
		} else {
			flat = append(flat, eq)
		}
	}
	if len(flat) == 0 || len(grouped) == 0 {
		b.Fatalf("probe split degenerate: %d flat, %d grouped", len(flat), len(grouped))
	}
	return flat, grouped
}

// checkMorselEquivalence asserts the morsel fan-out agrees with the
// single-threaded columnar pipeline on every probe at this configuration.
func checkMorselEquivalence(b *testing.B, rows, workers int, probes []sqlexec.ExistsQuery) {
	b.Helper()
	g := sweepDB(b, rows)
	for i, eq := range probes {
		mOK, mHandled, mErr := sqlexec.ExistsMorsel(g.DB, eq, workers, sqlexec.DefaultMorselSize)
		cOK, cHandled, cErr := sqlexec.ExistsStreaming(g.DB, eq)
		if mErr != nil || cErr != nil {
			b.Fatalf("probe %d: morsel err=%v columnar err=%v", i, mErr, cErr)
		}
		if !mHandled || !cHandled {
			b.Fatalf("probe %d: not streamed (morsel=%v columnar=%v)", i, mHandled, cHandled)
		}
		if mOK != cOK {
			b.Fatalf("probe %d (workers=%d): morsel=%v columnar=%v", i, workers, mOK, cOK)
		}
	}
}

func runMorselBench(b *testing.B, pick func(flat, grouped []sqlexec.ExistsQuery) []sqlexec.ExistsQuery) {
	for _, rows := range morselBenchRows() {
		for _, workers := range morselBenchWorkers {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				flat, grouped := splitSweepProbes(b, rows)
				probes := pick(flat, grouped)
				checkMorselEquivalence(b, rows, workers, probes)
				g := sweepDB(b, rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for pi, eq := range probes {
						if _, _, err := sqlexec.ExistsMorsel(g.DB, eq, workers, sqlexec.DefaultMorselSize); err != nil {
							b.Fatalf("probe %d: %v", pi, err)
						}
					}
				}
			})
		}
	}
}

// Flat witness probes: first-witness short-circuit plus full-scan misses.
func BenchmarkMorselExists(b *testing.B) {
	runMorselBench(b, func(flat, _ []sqlexec.ExistsQuery) []sqlexec.ExistsQuery { return flat })
}

// Grouped existence: the deterministic partition/merge/fold path.
func BenchmarkMorselGroupedExists(b *testing.B) {
	runMorselBench(b, func(_, grouped []sqlexec.ExistsQuery) []sqlexec.ExistsQuery { return grouped })
}

package sqlexec_test

import (
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/storage"
)

// BenchmarkColumnar*: the streaming pipeline on three probe workloads
// (flat, grouped, and a verification-shaped mix over MAS). Every benchmark
// first asserts probe-for-probe equivalence with the materializing
// reference. `make bench-storage` records them (with -benchmem, so allocs/op
// lands next to ns/op) into BENCH_storage.json.

// checkEquivalence asserts streaming pipeline == reference on every probe.
func checkEquivalence(b *testing.B, db *storage.Database, probes []sqlexec.ExistsQuery) {
	b.Helper()
	for i, eq := range probes {
		colOK, colHandled, colErr := sqlexec.ExistsStreaming(db, eq)
		if colErr != nil {
			b.Fatalf("probe %d: %v", i, colErr)
		}
		if !colHandled {
			b.Fatalf("probe %d: not streamed — benchmark workload must stay on the pipeline", i)
		}
		refOK, refErr := sqlexec.ExistsReference(db, eq)
		if refErr != nil {
			b.Fatal(refErr)
		}
		if refOK != colOK {
			b.Fatalf("probe %d: reference=%v streaming=%v", i, refOK, colOK)
		}
	}
}

func runColumnar(b *testing.B, db *storage.Database, probes []sqlexec.ExistsQuery) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, _, err := sqlexec.ExistsStreaming(db, eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Flat existence probes (selective equality + range over the two-edge join).
func BenchmarkColumnarExistsColumnar(b *testing.B) {
	db := benchStore()
	probes := benchProbes()
	checkEquivalence(b, db, probes)
	runColumnar(b, db, probes)
}

// Grouped existence (GROUP BY + HAVING): group keys and per-group
// accumulators dominate.
func BenchmarkColumnarGroupedExistsColumnar(b *testing.B) {
	db := benchStore()
	probes := benchGroupedProbes()
	checkEquivalence(b, db, probes)
	runColumnar(b, db, probes)
}

// End-to-end verification-shaped workload over the MAS database: random
// by-row/by-column style probes from the differential generator, kept only
// when the pipeline streams them (no fallback in the timed loop).
func masVerificationProbes(b *testing.B) (*storage.Database, []sqlexec.ExistsQuery) {
	b.Helper()
	db := dataset.MAS()
	g := newQueryGen(21, db)
	var probes []sqlexec.ExistsQuery
	for len(probes) < 250 {
		eq := g.existsQuery()
		if _, handled, err := sqlexec.ExistsStreaming(db, eq); err != nil || !handled {
			continue
		}
		probes = append(probes, eq)
	}
	return db, probes
}

func BenchmarkColumnarVerifyMASColumnar(b *testing.B) {
	db, probes := masVerificationProbes(b)
	checkEquivalence(b, db, probes)
	runColumnar(b, db, probes)
}

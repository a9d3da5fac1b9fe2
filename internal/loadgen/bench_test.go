package loadgen

import (
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/storage"
)

// Paired ingestion benchmarks at 100k rows: the identical pre-generated
// payloads loaded through the per-row Insert path (arity/type checks, a row
// allocation, an index invalidation, and a generation bump per row) and
// through BulkAppend (one validation pass, one backing array, one
// invalidation, one generation bump per table). The fixture first proves
// the two paths build byte-identical databases that answer identical
// verification probes, so the speedup cannot come from skipped work.
// Run the pair with `go test ./internal/loadgen -run '^$' -bench
// BenchmarkLoadgen -benchmem`.

const ingestRows = 100_000

var (
	ingestOnce sync.Once
	ingestPlan *plan
	ingestCols [][]storage.ColumnData
)

// ingestFixture pre-generates the 100k-row payloads once, outside every
// timed region, and runs the equivalence self-check.
func ingestFixture(b *testing.B) (*plan, [][]storage.ColumnData) {
	b.Helper()
	ingestOnce.Do(func() {
		spec := Spec{Name: "ingest", Tables: 6, Rows: ingestRows}
		ingestPlan = buildPlan(spec, 77)
		r := newPayloadRand(77)
		for ti := range ingestPlan.tables {
			ingestCols = append(ingestCols, ingestPlan.payload(ti, r))
		}

		// Equivalence self-check: same bytes, same probe answers.
		bulk, err := Generate(spec, 77)
		if err != nil {
			panic(err)
		}
		byRow, err := GenerateByRows(spec, 77)
		if err != nil {
			panic(err)
		}
		if fb, fr := storage.Fingerprint(bulk.DB), storage.Fingerprint(byRow.DB); fb != fr {
			panic("ingest benchmark: bulk and row databases differ")
		}
		for _, eq := range bulk.Probes(60, 3) {
			gb, err1 := sqlexec.Exists(bulk.DB, eq)
			gr, err2 := sqlexec.Exists(byRow.DB, eq)
			if err1 != nil || err2 != nil || gb != gr {
				panic("ingest benchmark: bulk and row databases answer differently")
			}
		}
	})
	return ingestPlan, ingestCols
}

func BenchmarkLoadgenIngestRowInsert(b *testing.B) {
	p, cols := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.schema()
		for ti := range p.tables {
			insertRows(s.Table(p.tables[ti].name), cols[ti], p.tables[ti].rows)
		}
	}
}

func BenchmarkLoadgenIngestBulk(b *testing.B) {
	p, cols := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.schema()
		for ti := range p.tables {
			if err := s.Table(p.tables[ti].name).BulkAppend(cols[ti]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLoadgenGenerate measures end-to-end generation (plan + payloads
// + bulk ingest) at the 100k scale — the fixed cost every load test and
// sweep pays per database.
func BenchmarkLoadgenGenerate(b *testing.B) {
	spec := Spec{Name: "gen", Tables: 6, Rows: ingestRows}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, int64(77)); err != nil {
			b.Fatal(err)
		}
	}
}

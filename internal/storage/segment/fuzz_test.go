package segment

import (
	"math"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// FuzzDecodeColumn: the chunk decoder never panics; every payload it
// accepts, the validating BulkAppend accepts too, with the row count the
// decoder reported; and encoding an accepted payload and decoding it again
// reads back the same values and NULLs. The seeds are the chunks of
// handBuilt's columns and of the NULL-form batches, and one whose
// dictionary repeats an entry.
//
// That one BulkAppend refuses and the decoder accepts: the decoder leaves
// what a trusted replay assumes of a dictionary (no repeated entry, entries
// in first-appearance order) to the loader's fingerprint comparison, which
// refuses any dictionary the stored database did not hold, and no column
// holds a repeated entry. Hashing every entry at decode instead made
// BenchmarkSegmentLoad about seven times slower at 1M rows (2 vCPUs).
//
// Run it with `go test -run '^$' -fuzz '^FuzzDecodeColumn$' -fuzztime 60s ./internal/storage/segment/`.
func FuzzDecodeColumn(f *testing.F) {
	db := handBuilt(f)
	for _, tab := range db.Schema.Tables {
		for ci := range tab.Columns {
			vec := tab.VectorAt(ci)
			f.Add(encodeColumn(vectorColumn(vec), vec.Len()), vec.Type() == sqlir.TypeText)
		}
	}
	for _, c := range nullFormCases() {
		f.Add(encodeColumn(normalize(c.data), 2), c.data.Nums == nil)
	}
	// A dictionary that repeats an entry, which no column holds.
	f.Add(encodeColumn(storage.ColumnData{Codes: []uint32{0, 1}, Dict: []string{"a", "a"}}, 2), true)
	f.Fuzz(func(t *testing.T, data []byte, text bool) {
		typ := sqlir.TypeNumber
		if text {
			typ = sqlir.TypeText
		}
		c, rows, err := decodeColumn(data, typ)
		if err != nil {
			return
		}
		tab := storage.NewTable("t", "", storage.Column{Name: "c", Type: typ})
		if err := tab.BulkAppend([]storage.ColumnData{c}); err != nil {
			if !repeatsEntry(c.Dict) {
				t.Fatalf("decoded payload of %d rows refused by BulkAppend: %v", rows, err)
			}
		} else if got := tab.NumRows(); got != rows {
			t.Fatalf("BulkAppend took %d rows, decoder reported %d", got, rows)
		}
		again, rows2, err := decodeColumn(encodeColumn(c, rows), typ)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if rows2 != rows {
			t.Fatalf("re-encoded payload has %d rows, want %d", rows2, rows)
		}
		for i := range rows {
			null := c.IsNull(i)
			switch {
			case again.IsNull(i) != null:
				t.Fatalf("row %d: NULL %v read back as %v", i, null, !null)
			case null:
			case text && c.Dict[c.Codes[i]] != again.Dict[again.Codes[i]]:
				t.Fatalf("row %d: %q read back as %q", i, c.Dict[c.Codes[i]], again.Dict[again.Codes[i]])
			case !text && math.Float64bits(c.Nums[i]) != math.Float64bits(again.Nums[i]):
				t.Fatalf("row %d: %v read back as %v", i, c.Nums[i], again.Nums[i])
			}
		}
	})
}

// repeatsEntry reports whether a dictionary holds some entry twice.
func repeatsEntry(dict []string) bool {
	seen := make(map[string]bool, len(dict))
	for _, s := range dict {
		if seen[s] {
			return true
		}
		seen[s] = true
	}
	return false
}

package segment

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// FuzzDecodeColumn: the chunk decoder never panics; every payload it
// accepts, the validating BulkAppend accepts too, with the row count the
// decoder reported; and the vector BulkAppend builds from it encodes to a
// chunk that decodes to the same values and NULLs. The seeds are the chunks
// of handBuilt's columns, of the columns the NULL-form batches were
// appended to, and one whose dictionary repeats an entry.
//
// That one BulkAppend refuses and the decoder accepts: the decoder leaves
// what a trusted replay assumes of a dictionary (no repeated entry, entries
// in first-appearance order) to the loader's fingerprint comparison, which
// refuses any dictionary the stored database did not hold, and no column
// holds a repeated entry — so no vector encodes to that seed, and it is
// assembled by hand. Hashing every entry at decode instead made
// BenchmarkSegmentLoad about seven times slower at 1M rows (2 vCPUs).
//
// Run it with `go test -run '^$' -fuzz '^FuzzDecodeColumn$' -fuzztime 60s ./internal/storage/segment/`.
func FuzzDecodeColumn(f *testing.F) {
	db := handBuilt(f)
	for _, tab := range db.Schema.Tables {
		for ci := range tab.Columns {
			vec := tab.VectorAt(ci)
			f.Add(encodeVector(vec), vec.Type() == sqlir.TypeText)
		}
	}
	for _, c := range nullFormCases() {
		vec := nullFormDB(f, c).Table("movies").VectorAt(c.ci)
		f.Add(encodeVector(vec), vec.Type() == sqlir.TypeText)
	}
	f.Add(repeatedEntryChunk(), true)
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
			return
		}
		if got := tab.NumRows(); got != rows {
			t.Fatalf("BulkAppend took %d rows, decoder reported %d", got, rows)
		}
		again, rows2, err := decodeColumn(encodeVector(tab.VectorAt(0)), typ)
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

// repeatedEntryChunk is a two-row text chunk, codes 0 and 1, whose
// dictionary holds "a" twice.
func repeatedEntryChunk() []byte {
	out := make([]byte, chunkHeader, chunkHeader+4+2*4+2+2+2*4)
	copy(out, chunkMagic)
	out[4] = kindText
	binary.LittleEndian.PutUint64(out[8:], 2)
	for _, w := range []uint32{2, 1, 1} { // dictionary length, entry lengths
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	out = append(out, "aa"...)
	out = append(out, 0, 0) // pad the codes to a 4-byte offset
	for _, code := range []uint32{0, 1} {
		out = binary.LittleEndian.AppendUint32(out, code)
	}
	return out
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

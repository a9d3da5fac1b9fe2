package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// FuzzDecodeColumn: the chunk decoder never panics; every vector it
// accepts, SetVectors takes onto a fresh table; and that table's vector
// encodes to a chunk that decodes to the same length, NULLs, numbers and
// texts. The seeds are the chunks of handBuilt's columns, of the columns
// the NULL-form batches were appended to, of an all-NULL text column built
// by Insert, one whose dictionary repeats an entry, one holding NaN and one
// whose null bitmap marks a row past the last.
//
// The decoder leaves what the loader's fingerprint comparison checks (no
// repeated dictionary entry, entries in first-appearance order, zero
// placeholders in NULL slots) to that comparison, which refuses any vector
// the stored database did not hold. No vector repeats an entry, so that
// seed is assembled by hand, and it round-trips like any other. Hashing
// every entry at decode instead made BenchmarkSegmentLoad about seven times
// slower at 1M rows (2 vCPUs).
//
// Run it with `go test -run '^$' -fuzz '^FuzzDecodeColumn$' -fuzztime 60s ./internal/storage/segment/`.
func FuzzDecodeColumn(f *testing.F) {
	db := handBuilt(f)
	for _, tab := range db.Schema.Tables {
		for ci := range tab.Columns {
			vec := tab.VectorAt(ci)
			f.Add(storage.EncodeVector(vec), vec.Type() == sqlir.TypeText)
		}
	}
	for _, c := range nullFormCases() {
		vec := nullFormDB(f, c).Table("movies").VectorAt(c.ci)
		f.Add(storage.EncodeVector(vec), vec.Type() == sqlir.TypeText)
	}
	f.Add(storage.EncodeVector(allNullText(f).VectorAt(1)), true)
	f.Add(repeatedEntryChunk(), true)
	f.Add(nanChunk(), false)
	f.Add(strayNullChunk(), false)
	f.Fuzz(func(t *testing.T, data []byte, text bool) {
		typ := sqlir.TypeNumber
		if text {
			typ = sqlir.TypeText
		}
		vec, err := storage.DecodeVector(data, typ)
		if err != nil {
			return
		}
		tab := storage.NewTable("t", "", storage.Column{Name: "c", Type: typ})
		if err := tab.SetVectors([]storage.ColumnVec{vec}); err != nil {
			t.Fatalf("decoded vector of %d rows refused by SetVectors: %v", vec.Len(), err)
		}
		again, err := storage.DecodeVector(storage.EncodeVector(tab.VectorAt(0)), typ)
		if err != nil {
			t.Fatalf("re-encoded vector refused: %v", err)
		}
		if again.Len() != vec.Len() || again.NullCount() != vec.NullCount() {
			t.Fatalf("re-encoded vector has %d rows, %d NULL; want %d, %d",
				again.Len(), again.NullCount(), vec.Len(), vec.NullCount())
		}
		for i := range vec.Len() {
			null := vec.IsNull(i)
			switch {
			case again.IsNull(i) != null:
				t.Fatalf("row %d: NULL %v read back as %v", i, null, !null)
			case null:
			case text && vec.Dict().String(vec.Code(i)) != again.Dict().String(again.Code(i)):
				t.Fatalf("row %d: %q read back as %q", i, vec.Dict().String(vec.Code(i)), again.Dict().String(again.Code(i)))
			case !text && math.Float64bits(vec.Num(i)) != math.Float64bits(again.Num(i)):
				t.Fatalf("row %d: %v read back as %v", i, vec.Num(i), again.Num(i))
			}
		}
	})
}

// FuzzLoadManifest: Load never panics on a manifest whose checksum holds,
// and it either refuses one or returns a database whose fingerprint is the
// manifest's. Each input is a mutation of a persisted manifest's JSON,
// re-checksummed with encode so that it passes the checksum and reaches the
// schema, segment and chunk checks behind it. The chunks are handBuilt's, so
// a mutated address names one of them, another column's or none. The seeds
// are handBuilt's manifest and two edits of it: one chunk address swapped
// for another column's of as many rows, and the foreign key dropped.
//
// Every load maps the chunks it reads and never unmaps them, so a process
// that loads thousands of times would run out of memory map areas were the
// mappings not bounded (maxMappedChunks).
//
// Run it with `go test -run '^$' -fuzz '^FuzzLoadManifest$' -fuzztime 60s ./internal/storage/segment/`.
func FuzzLoadManifest(f *testing.F) {
	db := handBuilt(f)
	store, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, err := store.Persist(db)
	if err != nil {
		f.Fatal(err)
	}
	for _, edit := range []func(m *Manifest){
		func(m *Manifest) {},
		func(m *Manifest) { m.Tables[1].Segments[0].Chunks[2] = m.Tables[1].Segments[0].Chunks[0] },
		func(m *Manifest) { m.ForeignKeys = nil },
	} {
		var seed Manifest
		body, _, err := m.encode()
		if err == nil {
			err = json.Unmarshal(body, &seed)
		}
		if err != nil {
			f.Fatal(err)
		}
		edit(&seed)
		if body, _, err = seed.encode(); err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if json.Unmarshal(data, &m) != nil {
			return
		}
		body, _, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := atomicWrite(store.manifestAt(db.Name), body); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := store.Load(db.Name)
		if err != nil {
			return
		}
		if got := fmt.Sprintf("%016x", storage.Fingerprint(loaded)); got != m.Fingerprint {
			t.Fatalf("loaded a database of fingerprint %s from a manifest recording %s", got, m.Fingerprint)
		}
	})
}

// repeatedEntryChunk is a two-row text chunk, codes 0 and 1, whose
// dictionary holds "a" twice.
func repeatedEntryChunk() []byte {
	out := chunkHeader(1, 2)
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

// nanChunk is a one-row numeric chunk holding NaN.
func nanChunk() []byte {
	return binary.LittleEndian.AppendUint64(chunkHeader(0, 1), math.Float64bits(math.NaN()))
}

// strayNullChunk is a one-row numeric chunk whose null bitmap also marks
// row 1, which it does not have.
func strayNullChunk() []byte {
	out := binary.LittleEndian.AppendUint64(chunkHeader(0, 1), 0)
	out[5] = 1 // null bitmap present
	return append(out, 0b11)
}

// chunkHeader is the 16-byte header of a chunk of the given kind (0
// numeric, 1 text) and row count.
func chunkHeader(kind byte, rows uint64) []byte {
	out := append([]byte("DQS1"), kind, 0, 0, 0)
	return binary.LittleEndian.AppendUint64(out, rows)
}

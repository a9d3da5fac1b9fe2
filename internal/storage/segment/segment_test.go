package segment

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// handBuilt returns a small database exercising every storage feature the
// chunk codec must round-trip: text dictionaries, NULLs in both column
// types, an FK constraint, and an empty table.
func handBuilt(t testing.TB) *storage.Database {
	t.Helper()
	genres := storage.NewTable("genres", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
	)
	movies := storage.NewTable("movies", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "genre_id", Type: sqlir.TypeNumber},
		storage.Column{Name: "rating", Type: sqlir.TypeNumber},
	)
	empty := storage.NewTable("empty", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "note", Type: sqlir.TypeText},
	)
	schema := storage.NewSchema(genres, movies, empty)
	schema.AddForeignKey("movies", "genre_id", "genres", "id")
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	genres.MustInsert(sqlir.NewNumber(1), sqlir.NewText("drama"))
	genres.MustInsert(sqlir.NewNumber(2), sqlir.NewText("comedy"))
	movies.MustInsert(sqlir.NewNumber(1), sqlir.NewText("Alpha"), sqlir.NewNumber(1), sqlir.NewNumber(8.1))
	movies.MustInsert(sqlir.NewNumber(2), sqlir.Null(), sqlir.NewNumber(2), sqlir.Null())
	movies.MustInsert(sqlir.NewNumber(3), sqlir.NewText("Alpha"), sqlir.NewNumber(1), sqlir.NewNumber(6.5))
	return storage.NewDatabase("handbuilt", schema)
}

// mustPersist persists db into a fresh store under a temp dir.
func mustPersist(t *testing.T, db *storage.Database) (*Store, *Manifest) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Persist(db)
	if err != nil {
		t.Fatal(err)
	}
	return store, m
}

func TestRoundTripHandBuilt(t *testing.T) {
	db := handBuilt(t)
	want := storage.Fingerprint(db)
	store, m := mustPersist(t, db)

	if m.Fingerprint != fmt.Sprintf("%016x", want) {
		t.Fatalf("manifest fingerprint %s, database %016x", m.Fingerprint, want)
	}

	loaded, info, err := store.Load(db.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.Fingerprint(loaded); got != want {
		t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
	}
	// Three tables, one of them empty: two segments.
	if info.Tables != 3 || info.Segments != 2 || info.Chunks != 6 {
		t.Fatalf("info = %+v, want 3 tables / 2 segments / 6 chunks", info)
	}
	if loaded.Table("empty").NumRows() != 0 {
		t.Fatal("empty table gained rows")
	}
	if len(loaded.Schema.ForeignKeys) != 1 {
		t.Fatalf("foreign keys = %d, want 1", len(loaded.Schema.ForeignKeys))
	}
	// NULLs must survive as NULLs, not zero values.
	mv := loaded.Table("movies")
	if v := mv.VectorAt(1).Value(1); !v.IsNull() {
		t.Fatalf("movies row 1 title = %v, want NULL", v)
	}
	if v := mv.VectorAt(3).Value(1); !v.IsNull() {
		t.Fatalf("movies row 1 rating = %v, want NULL", v)
	}
}

// TestRoundTripProperty persists and reloads generated databases across the
// NULL-rate and skew grid, asserting fingerprint identity and — as a
// differential oracle — that verification probes answer identically against
// the loaded database and the never-persisted original.
func TestRoundTripProperty(t *testing.T) {
	rowCounts := []int{10_000, 100_000}
	if testing.Short() {
		rowCounts = []int{10_000}
	}
	for _, rows := range rowCounts {
		for _, nullRate := range []float64{-1, 0.35} {
			for _, zipf := range []float64{1.1, 2.0} {
				name := fmt.Sprintf("rows=%d/null=%g/zipf=%g", rows, nullRate, zipf)
				t.Run(name, func(t *testing.T) {
					spec := loadgen.Spec{Name: "prop", Tables: 5, Rows: rows, NullRate: nullRate, ZipfS: zipf}
					g, err := loadgen.Generate(spec, 42)
					if err != nil {
						t.Fatal(err)
					}
					want := storage.Fingerprint(g.DB)
					store, _ := mustPersist(t, g.DB)
					loaded, _, err := store.Load(g.DB.Name)
					if err != nil {
						t.Fatal(err)
					}
					if got := storage.Fingerprint(loaded); got != want {
						t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
					}
					for pi, eq := range g.Probes(40, 7) {
						gotHit, err1 := sqlexec.Exists(loaded, eq)
						wantHit, err2 := sqlexec.Exists(g.DB, eq)
						if err1 != nil || err2 != nil {
							t.Fatalf("probe %d: %v / %v", pi, err1, err2)
						}
						if gotHit != wantHit {
							t.Fatalf("probe %d: loaded says %v, original says %v", pi, gotHit, wantHit)
						}
					}
				})
			}
		}
	}
}

// TestChunkFormatPinned: handBuilt persists to the bytes it always has —
// the manifest checksum and every chunk address are recorded here — so a
// store written earlier keeps deduplicating against new persists and
// segment.bytes_per_row does not move.
func TestChunkFormatPinned(t *testing.T) {
	_, m := mustPersist(t, handBuilt(t))
	if want := "232d72b6cc0fae0da62c8fc7164e87669f95c4b60e4a62c194772400879e84c7"; m.Checksum != want {
		t.Errorf("manifest checksum %s, want %s", m.Checksum, want)
	}
	want := []string{
		"genres 1ae9dbb49465100688ac6d53c6f09c046dcf5c3ac1dfffa965a749474e60e6ee",
		"genres 6b437a8c3556051e58bce79be60bd6440fd48b92ed4fb38af4d96ff8f75cf09a",
		"movies 1a355b71657e8afbc400140229ed13bb61e7ab17f2a03ca272c0895b44c7147a",
		"movies 02b3086078ee8d867ef0f05cbb23369124e387951a01b30605f0cefd828a3a81",
		"movies e46a311c09f8e3b7dc6e897a6f47c0f336379520d928dbbc07b1f34ea6f0b710",
		"movies 81d6b480b1dd88ac9941ec26e2128bb157b85948305f7a5ce02f025a520272f8",
	}
	var got []string
	for _, mt := range m.Tables {
		for _, seg := range mt.Segments {
			for _, addr := range seg.Chunks {
				got = append(got, mt.Name+" "+addr)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("chunks\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestPersistAfterAppend: a database grown in memory by Database.Append
// and persisted again loads back to the same bytes, NULL where a NULL was
// appended; the unchanged table's chunks are shared, so only the grown
// table's columns add chunk files.
func TestPersistAfterAppend(t *testing.T) {
	db := handBuilt(t)
	store, _ := mustPersist(t, db)
	before := chunkFiles(t, store, db.Name)
	batch := []storage.ColumnData{
		{Nums: []float64{4, 5}},
		{Texts: []string{"Beta", "Alpha"}, Nulls: []bool{false, false}},
		{Nums: []float64{2, 1}},
		{Nums: []float64{0, 7.5}, Nulls: []bool{true, false}},
	}
	if _, err := db.Append("movies", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Persist(db); err != nil {
		t.Fatal(err)
	}
	if got, want := chunkFiles(t, store, db.Name), before+len(batch); got != want {
		t.Fatalf("chunk files = %d after the second persist, want %d", got, want)
	}
	loaded, _, err := store.Load(db.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := storage.Fingerprint(loaded), storage.Fingerprint(db); got != want {
		t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
	}
	if v := loaded.Table("movies").VectorAt(3).Value(3); !v.IsNull() {
		t.Fatalf("appended NULL came back %v", v)
	}
}

// TestPersistStoresNaNAsNull: an appended NaN is NULL in memory, as
// BulkAppend stores it, and so in the chunk Persist writes: the store loads
// back the same database, NULL where the NaN was given.
func TestPersistStoresNaNAsNull(t *testing.T) {
	db := handBuilt(t)
	batch := []storage.ColumnData{
		{Nums: []float64{4, 5}},
		{Texts: []string{"Beta", "Gamma"}},
		{Nums: []float64{2, 1}},
		{Nums: []float64{7.5, math.NaN()}},
	}
	if _, err := db.Append("movies", batch); err != nil {
		t.Fatal(err)
	}
	store, _ := mustPersist(t, db)
	loaded, _, err := store.Load(db.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := storage.Fingerprint(loaded), storage.Fingerprint(db); got != want {
		t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
	}
	for _, d := range []*storage.Database{db, loaded} {
		if v := d.Table("movies").VectorAt(3).Value(4); !v.IsNull() {
			t.Fatalf("appended NaN reads %v, want NULL", v)
		}
	}
}

// nullFormCase is one movies column of a two-row batch whose row 1 is NULL.
type nullFormCase struct {
	name string
	ci   int
	data storage.ColumnData
}

// nullFormCases gives the batch's NULL in each payload form: Nums, Texts
// and Codes. The Codes payload's NULL row holds a code that indexes
// nothing.
func nullFormCases() []nullFormCase {
	nulls := []bool{false, true}
	return []nullFormCase{
		{"Nums/Nulls", 3, storage.ColumnData{Nums: []float64{7.5, 9}, Nulls: nulls}},
		{"Texts/Nulls", 1, storage.ColumnData{Texts: []string{"Beta", "Gamma"}, Nulls: nulls}},
		{"Codes/Nulls", 1, storage.ColumnData{Codes: []uint32{0, 99}, Dict: []string{"Beta"}, Nulls: nulls}},
	}
}

// nullFormDB is handBuilt with the case's batch appended to movies: rows 3
// and 4, row 4 NULL in the case's column.
func nullFormDB(t testing.TB, c nullFormCase) *storage.Database {
	t.Helper()
	db := handBuilt(t)
	batch := []storage.ColumnData{
		{Nums: []float64{4, 5}},
		{Texts: []string{"Beta", "Gamma"}},
		{Nums: []float64{2, 1}},
		{Nums: []float64{7.5, 8}},
	}
	batch[c.ci] = c.data
	if _, err := db.Append("movies", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPersistNullForms: whichever payload form an appended batch gives a
// NULL in, the vector, and so the chunk Persist writes from it, holds it:
// the store loads back the same database, NULL where it was given. A NULL
// row's code is ignored even when it indexes nothing, as BulkAppend
// ignores it.
func TestPersistNullForms(t *testing.T) {
	for _, c := range nullFormCases() {
		t.Run(c.name, func(t *testing.T) {
			db := nullFormDB(t, c)
			store, _ := mustPersist(t, db)
			loaded, _, err := store.Load(db.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := storage.Fingerprint(loaded), storage.Fingerprint(db); got != want {
				t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
			}
			for _, d := range []*storage.Database{db, loaded} {
				if v := d.Table("movies").VectorAt(c.ci).Value(4); !v.IsNull() {
					t.Fatalf("appended NULL reads %v", v)
				}
			}
		})
	}
}

// allNullText is a table built by Insert whose text column holds only
// NULLs.
func allNullText(t testing.TB) *storage.Table {
	t.Helper()
	tb := storage.NewTable("notes", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "body", Type: sqlir.TypeText},
	)
	tb.MustInsert(sqlir.NewNumber(1), sqlir.Null())
	tb.MustInsert(sqlir.NewNumber(2), sqlir.Null())
	return tb
}

// TestAllNullTextLoads: a database whose text column holds only NULLs
// loads back, and the same rows fingerprint alike whether Insert or
// BulkAppend built them. Insert once gave such a column no dictionary where
// BulkAppend and the loader gave it an empty one, and the fingerprint told
// the two apart, so Load refused the database as not matching its manifest.
func TestAllNullTextLoads(t *testing.T) {
	db := storage.NewDatabase("allnull", storage.NewSchema(allNullText(t)))
	store, _ := mustPersist(t, db)
	loaded, _, err := store.Load(db.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := storage.Fingerprint(loaded), storage.Fingerprint(db); got != want {
		t.Fatalf("loaded fingerprint %016x, want %016x", got, want)
	}
	bulk := storage.NewTable("notes", "id", db.Table("notes").Columns...)
	if err := bulk.BulkAppend([]storage.ColumnData{
		{Nums: []float64{1, 2}},
		{Texts: []string{"", ""}, Nulls: []bool{true, true}},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := storage.Fingerprint(storage.NewDatabase("allnull", storage.NewSchema(bulk))), storage.Fingerprint(db); got != want {
		t.Fatalf("BulkAppend-built fingerprint %016x, Insert-built %016x", got, want)
	}
}

// TestLoadRefusesTwoSegments: Persist writes at most one segment per table,
// so a manifest listing a table's segment twice — checksum and all — is
// refused, naming the table and the count, and no database is returned.
func TestLoadRefusesTwoSegments(t *testing.T) {
	db := handBuilt(t)
	store, m := mustPersist(t, db)
	for i := range m.Tables {
		if mt := &m.Tables[i]; mt.Name == "movies" {
			mt.Segments = append(mt.Segments, mt.Segments[0])
		}
	}
	if err := store.writeManifest(db.Name, m); err != nil {
		t.Fatal(err)
	}
	got, _, err := store.Load(db.Name)
	if got != nil || err == nil || !strings.Contains(err.Error(), "table movies: manifest lists 2 segments") {
		t.Fatalf("Load = %v, %v; want no database and an error naming table movies and 2 segments", got, err)
	}
}

// TestConcurrentLoadsKeepGC: overlapping loads leave the collector's
// setting as they found it. Load once switched the collector off for its
// duration and restored the value it had saved, so a load that saved
// another load's "off" and returned last left it off for good.
func TestConcurrentLoadsKeepGC(t *testing.T) {
	spec, _ := loadgen.Preset("medium")
	spec.Rows = 100_000
	g, err := loadgen.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := mustPersist(t, g.DB)
	before := gogcPercent()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				if _, _, err := store.Load(g.DB.Name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := gogcPercent(); got != before {
		t.Fatalf("GOGC reads %d after overlapping loads, %d before", got, before)
	}
}

// gogcPercent reads the collector's GOGC percentage (-1 when it is off).
func gogcPercent() int64 {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// firstChunkPath returns the path and address of one chunk of the persisted
// database, preferring a text column so dictionary bytes are in play.
func firstChunkPath(t *testing.T, store *Store, name string) (string, string) {
	t.Helper()
	m, err := store.Manifest(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range m.Tables {
		for _, seg := range mt.Segments {
			for ci, addr := range seg.Chunks {
				if mt.Columns[ci].Type == "text" {
					return filepath.Join(store.Dir(), name, "chunks", addr), addr
				}
			}
		}
	}
	t.Fatal("no text chunk found")
	return "", ""
}

func TestCorruptChunkDetected(t *testing.T) {
	db := handBuilt(t)
	store, _ := mustPersist(t, db)
	path, addr := firstChunkPath(t, store, db.Name)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = store.Load(db.Name)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ChunkError, got %v", err)
	}
	if ce.Chunk != addr {
		t.Fatalf("error names chunk %s, corrupted %s", ce.Chunk, addr)
	}
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("want ErrChecksumMismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("error message does not name the chunk: %v", err)
	}
}

func TestMissingChunkDetected(t *testing.T) {
	db := handBuilt(t)
	store, _ := mustPersist(t, db)
	path, addr := firstChunkPath(t, store, db.Name)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, _, err := store.Load(db.Name)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ChunkError, got %v", err)
	}
	if ce.Chunk != addr {
		t.Fatalf("error names chunk %s, deleted %s", ce.Chunk, addr)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist in chain, got %v", err)
	}
}

func TestTruncatedManifestDetected(t *testing.T) {
	db := handBuilt(t)
	store, _ := mustPersist(t, db)
	path := filepath.Join(store.Dir(), db.Name, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load(db.Name); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Fatalf("want manifest error, got %v", err)
	}
}

func TestEditedManifestDetected(t *testing.T) {
	db := handBuilt(t)
	store, _ := mustPersist(t, db)
	path := filepath.Join(store.Dir(), db.Name, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"rows": 3`, `"rows": 4`, 1)
	if edited == string(data) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load(db.Name); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

// TestChunkDedupe: re-persisting the same database writes no new chunk
// files, and persisting under a second name shares every chunk address.
func TestChunkDedupe(t *testing.T) {
	db := handBuilt(t)
	store, m1 := mustPersist(t, db)
	before := chunkFiles(t, store, db.Name)
	m2, err := store.Persist(db)
	if err != nil {
		t.Fatal(err)
	}
	if after := chunkFiles(t, store, db.Name); after != before {
		t.Fatalf("re-persist grew chunk dir %d -> %d", before, after)
	}
	if m1.Fingerprint != m2.Fingerprint {
		t.Fatalf("fingerprint drifted across persists: %s vs %s", m1.Fingerprint, m2.Fingerprint)
	}
}

// chunkFiles counts the chunk files stored for a database.
func chunkFiles(t *testing.T, store *Store, name string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(store.Dir(), name, "chunks"))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func TestStoreNameValidation(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := handBuilt(t)
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
		if _, err := store.PersistAs(bad, db); err == nil {
			t.Fatalf("PersistAs(%q) accepted", bad)
		}
		if store.Has(bad) {
			t.Fatalf("Has(%q) = true", bad)
		}
		if _, _, err := store.Load(bad); err == nil {
			t.Fatalf("Load(%q) accepted", bad)
		}
	}
}

func TestHasAndList(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if store.Has("handbuilt") {
		t.Fatal("Has on empty store")
	}
	if _, err := store.Persist(handBuilt(t)); err != nil {
		t.Fatal(err)
	}
	if !store.Has("handbuilt") {
		t.Fatal("Has after persist")
	}
	// A stray directory without a manifest is not a database.
	if err := os.MkdirAll(filepath.Join(store.Dir(), "stray"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "handbuilt" {
		t.Fatalf("List = %v, want [handbuilt]", names)
	}
}

// TestLoadIsolation: a corrupt entry fails alone; a healthy sibling in the
// same store still loads.
func TestLoadIsolation(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := handBuilt(t)
	if _, err := store.PersistAs("good", db); err != nil {
		t.Fatal(err)
	}
	if _, err := store.PersistAs("bad", db); err != nil {
		t.Fatal(err)
	}
	path, _ := firstChunkPath(t, store, "bad")
	if err := os.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("bad"); err == nil {
		t.Fatal("corrupt entry loaded")
	}
	loaded, _, err := store.Load("good")
	if err != nil {
		t.Fatalf("healthy sibling failed: %v", err)
	}
	if got, want := storage.Fingerprint(loaded), storage.Fingerprint(db); got != want {
		t.Fatalf("sibling fingerprint %016x, want %016x", got, want)
	}
}

// A persisted schema wider than a catalog holds is refused at load, with
// the limit named; 64 tables load.
func TestLoadRejectsTooWideSchema(t *testing.T) {
	wide := func(n int) *storage.Database {
		var tables []*storage.Table
		for i := range n {
			tables = append(tables, storage.NewTable(fmt.Sprintf("t%02d", i), "id",
				storage.Column{Name: "id", Type: sqlir.TypeNumber}))
		}
		return storage.NewDatabase(fmt.Sprintf("wide%d", n), storage.NewSchema(tables...))
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{sqlir.MaxTables, sqlir.MaxTables + 1} {
		db := wide(n)
		if _, err := store.Persist(db); err != nil {
			t.Fatal(err)
		}
		got, _, err := store.Load(db.Name)
		switch {
		case n <= sqlir.MaxTables && (err != nil || len(got.Schema.Tables) != n):
			t.Errorf("%d tables: %v", n, err)
		case n > sqlir.MaxTables && (err == nil || !strings.Contains(err.Error(), "at most 64")):
			t.Errorf("%d tables: %v, want an error naming the limit", n, err)
		}
	}
}

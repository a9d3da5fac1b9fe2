package storage

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// epochTable builds a small nullable schema for snapshot tests: a numeric
// and a text column, both taking NULLs, so appends exercise the null-bitmap
// copy-on-write in both representations.
func epochDB() (*Database, *Table) {
	tb := NewTable("ev", "id",
		Column{"id", sqlir.TypeNumber},
		Column{"name", sqlir.TypeText},
	)
	return NewDatabase("epochs", NewSchema(tb)), tb
}

// batch returns one deterministic bulk payload of n rows starting at row
// offset base; every third row is NULL in both columns.
func epochBatch(base, n int) []ColumnData {
	nums := make([]float64, n)
	texts := make([]string, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ri := base + i
		nums[i] = float64(ri)
		texts[i] = fmt.Sprintf("s%d", ri%7)
		nulls[i] = ri%3 == 2
		if nulls[i] {
			nums[i], texts[i] = 0, ""
		}
	}
	return []ColumnData{
		{Nums: nums, Nulls: nulls},
		{Texts: texts, Nulls: nulls},
	}
}

// checkRows verifies the table holds exactly rows [0, n) of the epochBatch
// pattern — the oracle both for pinned snapshots and for the head.
func checkRows(t *testing.T, tb *Table, n int) {
	t.Helper()
	if got := tb.NumRows(); got != n {
		t.Fatalf("table %s rows = %d, want %d", tb.Name, got, n)
	}
	id, name := tb.Vector("id"), tb.Vector("name")
	for ri := 0; ri < n; ri++ {
		if ri%3 == 2 {
			if !id.IsNull(ri) || !name.IsNull(ri) {
				t.Fatalf("row %d should be NULL", ri)
			}
			continue
		}
		if id.IsNull(ri) || name.IsNull(ri) {
			t.Fatalf("row %d should not be NULL", ri)
		}
		if id.Num(ri) != float64(ri) {
			t.Fatalf("row %d id = %g, want %d", ri, id.Num(ri), ri)
		}
		if got, want := name.Dict().String(name.Code(ri)), fmt.Sprintf("s%d", ri%7); got != want {
			t.Fatalf("row %d name = %q, want %q", ri, got, want)
		}
	}
}

// TestSnapshotDictSharesRootMap: on every retained epoch, a text column's
// frozen dictionary answers Lookup exactly as a map freshly built from its
// own strings — every string it holds at its code, every string interned
// after it missing — while sharing an earlier epoch's map (one link deep)
// instead of cloning the live one each time. The first batch is adopted
// from a dictionary-encoded payload, so the first root builds its map
// lazily; later batches intern a few new strings each, so the delta
// outgrows an eighth of its root several times over.
func TestSnapshotDictSharesRootMap(t *testing.T) {
	db, _ := epochDB()
	seed := make([]string, 64)
	codes := make([]uint32, len(seed))
	for i := range seed {
		seed[i] = fmt.Sprintf("seed%d", i)
		codes[i] = uint32(i)
	}
	if _, err := db.Append("ev", []ColumnData{{Nums: make([]float64, len(seed))}, {Codes: codes, Dict: seed}}); err != nil {
		t.Fatal(err)
	}
	snaps := []*Database{db.Snapshot()}
	for e := 0; e < 60; e++ {
		texts := []string{fmt.Sprintf("new%d", e), fmt.Sprintf("new%d", e/2), "seed3"}
		if _, err := db.Append("ev", []ColumnData{{Nums: make([]float64, len(texts))}, {Texts: texts}}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, db.Snapshot())
		if e%7 == 0 {
			snaps[len(snaps)-1].Table("ev").Vector("name").Dict().Lookup("seed0")
		}
	}
	all := db.Schema.Table("ev").Vector("name").Dict().Strings()
	shared, roots := 0, 0
	for ei, snap := range snaps {
		d := snap.Table("ev").Vector("name").Dict()
		switch {
		case d.root == nil:
			roots++
		case d.root.root != nil:
			t.Fatalf("epoch %d: dictionary chain is two links deep", ei)
		default:
			shared++
		}
		fresh := map[string]uint32{}
		for c, s := range d.Strings() {
			fresh[s] = uint32(c)
		}
		for _, s := range all {
			want, wok := fresh[s]
			if got, ok := d.Lookup(s); ok != wok || got != want {
				t.Fatalf("epoch %d: Lookup(%q) = %d, %v; its strings say %d, %v", ei, s, got, ok, want, wok)
			}
		}
	}
	if shared == 0 || roots < 3 {
		t.Errorf("%d shared and %d root dictionaries over %d epochs: sharing or re-rooting never happened", shared, roots, len(snaps))
	}
	t.Logf("%d epochs: %d roots, %d sharing a root's map", len(snaps), roots, shared)
}

// TestSnapshotNullBoundaryCOW publishes a snapshot mid null-bitmap word and
// appends NULL-bearing rows into the same word: the snapshot must keep its
// pre-append bits (it holds that word by value), the head must see the new
// ones. A live table refuses the snapshot's vectors: their bitmap stops at
// the boundary word and their dictionary is frozen.
func TestSnapshotNullBoundaryCOW(t *testing.T) {
	db, _ := epochDB()
	if _, err := db.Append("ev", epochBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	checkRows(t, snap.Table("ev"), 5)
	// Rows 5..69 extend into the snapshot's partially filled word 0 and past
	// it, with NULLs on both sides of the 64-row boundary.
	if _, err := db.Append("ev", epochBatch(5, 65)); err != nil {
		t.Fatal(err)
	}
	checkRows(t, snap.Table("ev"), 5)
	checkRows(t, db.Snapshot().Table("ev"), 70)
	if got := snap.Table("ev").Vector("id").NullCount(); got != 1 {
		t.Errorf("snapshot null count = %d, want 1", got)
	}

	_, copied := epochDB()
	ft := snap.Table("ev")
	if err := copied.SetVectors([]ColumnVec{*ft.VectorAt(0), *ft.VectorAt(1)}); err == nil || !strings.Contains(err.Error(), "a snapshot's vector") {
		t.Fatalf("SetVectors of a snapshot's vectors: error = %v, want a refusal", err)
	}
	if copied.NumRows() != 0 {
		t.Fatalf("a refused SetVectors gave the table %d rows", copied.NumRows())
	}
	checkRows(t, snap.Table("ev"), 5)
}

// TestSnapshotPerRowInsert covers the per-row Insert path after a
// publication (the service's build-phase API): the pinned snapshot stays
// intact while the head sees each row.
func TestSnapshotPerRowInsert(t *testing.T) {
	db, tb := epochDB()
	tb.MustInsert(num(0), text("s0"))
	snap := db.Snapshot()
	for ri := 1; ri < 8; ri++ {
		if ri%3 == 2 {
			tb.MustInsert(sqlir.Null(), sqlir.Null())
		} else {
			tb.MustInsert(num(float64(ri)), text(fmt.Sprintf("s%d", ri%7)))
		}
	}
	checkRows(t, snap.Table("ev"), 1)
	checkRows(t, db.Snapshot().Table("ev"), 8)
}

// checkPostings verifies a snapshot's name index against the epochBatch
// pattern: "s3" is on every row ri < n with ri%7 == 3 that is not NULL.
func checkPostings(t *testing.T, tb *Table, n int) {
	t.Helper()
	ix := tb.CodeIndex(tb.ColumnIndex("name"))
	var want []int32
	for ri := 3; ri < n; ri += 7 {
		if ri%3 != 2 {
			want = append(want, int32(ri))
		}
	}
	if got := ix.TextString("s3"); !slices.Equal(got, want) {
		t.Errorf("%d-row snapshot: postings of s3 = %v, want %v", n, got, want)
	}
}

// TestConcurrentAppendAndSnapshots is the storage-level race test: one
// writer publishing epochs through Database.Append while readers pin
// snapshots and scan them. Run with -race this proves the clamped vectors,
// the frozen dictionaries, the null bitmap's boundary word held by value and
// the posting lists a new epoch's index appends into keep published epochs
// immutable under live ingest.
func TestConcurrentAppendAndSnapshots(t *testing.T) {
	db, _ := epochDB()
	if _, err := db.Append("ev", epochBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	pinned := db.Snapshot()
	checkPostings(t, pinned.Table("ev"), 5)

	const batches = 40
	const rowsPer = 9
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := 5
		for i := 0; i < batches; i++ {
			if _, err := db.Append("ev", epochBatch(base, rowsPer)); err != nil {
				t.Error(err)
				return
			}
			base += rowsPer
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				checkRows(t, pinned.Table("ev"), 5)
				checkPostings(t, pinned.Table("ev"), 5)
				snap := db.Snapshot()
				n := snap.Table("ev").NumRows()
				if n < 5 || (n-5)%rowsPer != 0 {
					t.Errorf("snapshot rows = %d, not a batch boundary", n)
					return
				}
				checkRows(t, snap.Table("ev"), n)
				checkPostings(t, snap.Table("ev"), n)
				if st := snap.Stats(snap.Schema.Catalog().MustCol("ev", "id")); st.NonNull > n {
					t.Errorf("snapshot stats count %d of %d rows", st.NonNull, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkRows(t, db.Snapshot().Table("ev"), 5+batches*rowsPer)
}

// shareDB builds the table the posting-sharing tests append to: a dense id
// column (the FK shape that gets the array index), a sparse numeric column
// (the value-map index) and a text column, all nullable.
func shareDB() *Database {
	tb := NewTable("ev", "id",
		Column{"id", sqlir.TypeNumber},
		Column{"sparse", sqlir.TypeNumber},
		Column{"tag", sqlir.TypeText},
	)
	return NewDatabase("share", NewSchema(tb))
}

// shareBatch draws n seeded rows. Ids repeat inside [0, 200) so their lists
// grow across epochs; breakDense adds one id far outside that range, which
// the dense layout cannot take. The sparse column holds non-integers, ±0,
// ±Inf and NaN (stored as NULL); the text column grows its dictionary as
// epochs go by.
func shareBatch(r *rand.Rand, epoch, n int, breakDense bool) []ColumnData {
	ids := ColumnData{Nums: make([]float64, n), Nulls: make([]bool, n)}
	sparse := ColumnData{Nums: make([]float64, n), Nulls: make([]bool, n)}
	tags := ColumnData{Texts: make([]string, n), Nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		ids.Nums[i] = float64(r.Intn(200))
		ids.Nulls[i] = r.Intn(10) == 0
		switch k := r.Intn(20); {
		case k == 0:
			sparse.Nums[i] = math.NaN()
		case k == 1:
			sparse.Nums[i] = math.Copysign(0, -1)
		case k == 2:
			sparse.Nums[i] = math.Inf(1)
		case k == 3:
			sparse.Nums[i] = math.Inf(-1)
		case k < 6:
			sparse.Nulls[i] = true
		default:
			sparse.Nums[i] = float64(r.Intn(40)) * 12345.25
		}
		tags.Texts[i] = fmt.Sprintf("t%d", r.Intn(10+epoch))
		if tags.Nulls[i] = r.Intn(3) == 0; tags.Nulls[i] {
			tags.Texts[i] = ""
		}
	}
	if breakDense {
		ids.Nums[0], ids.Nulls[0] = 1e6, false
	}
	return []ColumnData{ids, sparse, tags}
}

// wantPostings is the from-scratch oracle: each value's rows in the vector,
// in row order, keyed by Value.String (which spells ±0 alike, as Value.Equal
// has it).
func wantPostings(vec *ColumnVec) map[string][]int32 {
	out := map[string][]int32{}
	for i := 0; i < vec.Len(); i++ {
		v := vec.Value(i)
		if v.IsNull() {
			continue
		}
		out[v.String()] = append(out[v.String()], int32(i))
	}
	return out
}

// TestSnapshotSharedPostingsMatchRebuild: every held epoch's postings equal
// a from-scratch build over its own vectors, however its index was made —
// over a seeded append stream, and in the places a slot table's chunks are
// copied or passed over: a dictionary that grows across a chunk and page
// boundary, fresh ids that widen an id column's table the same way, a delta
// that writes its base's short last chunk, and an extension that fails.
func TestSnapshotSharedPostingsMatchRebuild(t *testing.T) {
	t.Run("seeded appends", seededSharedPostings)
	t.Run("dictionary grows across a chunk boundary", dictGrowsAcrossChunks)
	t.Run("fresh ids grow across a chunk boundary", freshIdsGrowAcrossChunks)
	t.Run("delta writes the base's short last chunk", deltaWritesShortChunk)
	t.Run("failed extension writes nothing", failedExtensionWritesNothing)
}

// seededSharedPostings runs 64 epochs of seeded appends,
// holding every epoch's snapshot and reading its indexes as it goes (except
// every ninth epoch, which is left unread until the end: its base is
// cleared when its successor is published, so its indexes build from
// scratch there), one delta breaking the id column's dense range. After the last
// append every held epoch's postings for every value must equal a
// from-scratch build over that epoch's own vectors — appends into shared
// posting-list capacity are invisible to every earlier epoch — and some
// successor lists must really share their base's array.
func seededSharedPostings(t *testing.T) {
	db := shareDB()
	cols := []string{"id", "sparse", "tag"}
	r := rand.New(rand.NewSource(25))
	var snaps []*Database
	for e := 0; e < 64; e++ {
		if _, err := db.Append("ev", shareBatch(r, e, 1+r.Intn(48), e == 40)); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		snaps = append(snaps, snap)
		if e%9 == 8 {
			continue
		}
		for _, c := range cols {
			codeIndex(snap.Table("ev"), c)
		}
	}

	// Every value any epoch holds, plus NaN (stored as NULL, so in no list),
	// -0 and two absent values.
	last := snaps[len(snaps)-1].Table("ev")
	probes := map[string][]sqlir.Value{
		"tag":    {sqlir.NewText("absent")},
		"sparse": {sqlir.NewNumber(math.NaN()), sqlir.NewNumber(math.Copysign(0, -1)), sqlir.NewNumber(0.5)},
		"id":     {sqlir.NewNumber(-1), sqlir.NewNumber(199.5)},
	}
	for _, c := range cols {
		vec := last.Vector(c)
		seen := map[string]bool{}
		for i := 0; i < vec.Len(); i++ {
			if v := vec.Value(i); !v.IsNull() && !seen[v.String()] {
				seen[v.String()] = true
				probes[c] = append(probes[c], v)
			}
		}
	}

	sharedGrowth := 0
	for e, snap := range snaps {
		tb := snap.Table("ev")
		for _, c := range cols {
			ix := codeIndex(tb, c)
			want := wantPostings(tb.Vector(c))
			var prev *CodeIndex
			if e > 0 {
				prev = codeIndex(snaps[e-1].Table("ev"), c)
			}
			for _, v := range probes[c] {
				got := ix.Postings(v)
				if !slices.Equal(got, want[v.String()]) {
					t.Fatalf("epoch %d %s = %s: postings %v, rebuild %v", e+1, c, v, got, want[v.String()])
				}
				if prev == nil {
					continue
				}
				if base := prev.Postings(v); len(base) > 0 && len(got) > len(base) && &got[0] == &base[0] {
					sharedGrowth++
				}
			}
		}
	}
	if sharedGrowth == 0 {
		t.Error("no epoch appended into its predecessor's posting lists: the lists are copied, not shared")
	}
}

// chunkEpochs appends each batch to a table of a dense id column and a text
// column, reading both indexes of every epoch as it is published and
// keeping a copy of their postings. After the last append every epoch's
// postings must equal a rebuild over its own vectors and the copy taken at
// its first read. It returns the epochs' tables.
func chunkEpochs(t *testing.T, batches ...[]ColumnData) []*Table {
	t.Helper()
	tb := NewTable("ev", "id", Column{"id", sqlir.TypeNumber}, Column{"tag", sqlir.TypeText})
	db := NewDatabase("chunks", NewSchema(tb))
	var tables []*Table
	var first []map[string]map[string][]int32
	for _, batch := range batches {
		if _, err := db.Append("ev", batch); err != nil {
			t.Fatal(err)
		}
		ft := db.Snapshot().Table("ev")
		read := map[string]map[string][]int32{}
		for _, c := range []string{"id", "tag"} {
			read[c] = heldPostings(ft, c, distinctValues(ft.Vector(c)))
		}
		tables, first = append(tables, ft), append(first, read)
	}
	last := tables[len(tables)-1]
	for e, ft := range tables {
		for _, c := range []string{"id", "tag"} {
			probes := distinctValues(last.Vector(c))
			checkRebuild(t, fmt.Sprintf("epoch %d", e+1), ft, c, probes)
			held := heldPostings(ft, c, probes)
			for k, want := range first[e][c] {
				if got := held[k]; !slices.Equal(got, want) {
					t.Fatalf("epoch %d %s = %s: postings %v after later epochs, %v at first read", e+1, c, k, got, want)
				}
			}
		}
	}
	return tables
}

// textRows is a batch of n rows whose tag is tag(i) and whose id is 0.
func textRows(n int, tag func(i int) string) []ColumnData {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = tag(i)
	}
	return []ColumnData{{Nums: make([]float64, n)}, {Texts: texts}}
}

// idRows is a batch with one row per id, its tag "x".
func idRows(ids ...float64) []ColumnData {
	tags := make([]string, len(ids))
	for i := range tags {
		tags[i] = "x"
	}
	return []ColumnData{{Nums: ids}, {Texts: tags}}
}

// sameChunk reports whether two indexes hold chunk c of page p in one array.
func sameChunk(a, b *CodeIndex, p, c int) bool { return &a.slots[p][c][0] == &b.slots[p][c][0] }

// dictGrowsAcrossChunks: the tag dictionary holds 4 090 strings, so its
// slot table's one page ends in a short chunk. Epoch 2 writes slot 5 and
// grows the dictionary past the page (4 096 slots); epoch 3 writes the
// second page's short chunk and grows the dictionary past a chunk boundary
// inside that page. Each widening copies the base's short last page and
// chunk; the chunks a delta does not write stay shared.
func dictGrowsAcrossChunks(t *testing.T) {
	tags := func(codes ...int) []ColumnData {
		return textRows(len(codes), func(i int) string { return fmt.Sprintf("t%d", codes[i]) })
	}
	upTo := func(lo, hi int) []int {
		var out []int
		for c := lo; c < hi; c++ {
			out = append(out, c)
		}
		return out
	}
	tables := chunkEpochs(t,
		tags(upTo(0, 4090)...),
		tags(append([]int{5, 4089}, upTo(4090, 4102)...)...),
		tags(append([]int{4100}, upTo(4102, 4170)...)...),
	)
	ix := make([]*CodeIndex, len(tables))
	for e, ft := range tables {
		ix[e] = codeIndex(ft, "tag")
	}
	if len(ix[1].slots) != 2 || len(ix[1].slots[1]) != 1 || len(ix[2].slots[1]) != 2 {
		t.Fatalf("slot tables of %d and %d slots: want 2 pages, the second of 1 chunk and then of 2", ix[1].width, ix[2].width)
	}
	if !sameChunk(ix[1], ix[0], 0, 1) || sameChunk(ix[1], ix[0], 0, 0) || sameChunk(ix[1], ix[0], 0, 63) {
		t.Error("epoch 2: want chunk 1 shared with its base, and chunk 0 (written) and the widened chunk 63 copied")
	}
	if &ix[2].slots[0][0] != &ix[1].slots[0][0] || sameChunk(ix[2], ix[1], 1, 0) {
		t.Error("epoch 3: want its base's first page shared, and the widened short chunk of the second copied")
	}
}

// freshIdsGrowAcrossChunks is dictGrowsAcrossChunks for an id column: ids 0
// to 4 089 fill one page ending in a short chunk, epoch 2 writes id 5 and
// appends ids 4 090 to 4 101, past the page, and epoch 3 ids 4 102 to 4 169,
// past a chunk boundary inside the second page. Each extension widens the
// slot table upward instead of rebuilding it: the chunks a delta does not
// write stay shared.
func freshIdsGrowAcrossChunks(t *testing.T) {
	ids := func(lo, hi int, extra ...float64) []ColumnData {
		for i := lo; i < hi; i++ {
			extra = append(extra, float64(i))
		}
		return idRows(extra...)
	}
	tables := chunkEpochs(t, ids(0, 4090), ids(4090, 4102, 5), ids(4102, 4170))
	ix := make([]*CodeIndex, len(tables))
	for e, ft := range tables {
		ix[e] = codeIndex(ft, "id")
	}
	if ix[2].num != nil || len(ix[1].slots) != 2 || len(ix[1].slots[1]) != 1 || len(ix[2].slots[1]) != 2 {
		t.Fatalf("slot tables of %d and %d slots: want 2 pages, the second of 1 chunk and then of 2", ix[1].width, ix[2].width)
	}
	if !sameChunk(ix[1], ix[0], 0, 1) || sameChunk(ix[1], ix[0], 0, 0) || sameChunk(ix[1], ix[0], 0, 63) {
		t.Error("epoch 2: want chunk 1 shared with its base, and chunk 0 (written) and the widened chunk 63 copied")
	}
	if &ix[2].slots[0][0] != &ix[1].slots[0][0] || sameChunk(ix[2], ix[1], 1, 0) {
		t.Error("epoch 3: want its base's first page shared, and the widened short chunk of the second copied")
	}
}

// deltaWritesShortChunk: the id column's slot table is 100 slots wide, so
// its second chunk is short; a delta writes ids in it, copying that chunk
// and leaving the first one shared.
func deltaWritesShortChunk(t *testing.T) {
	ids := make([]float64, 100)
	for i := range ids {
		ids[i] = float64(i)
	}
	tables := chunkEpochs(t, idRows(ids...), idRows(70, 99, 70), idRows(99, 64))
	a, b := codeIndex(tables[0], "id"), codeIndex(tables[1], "id")
	if len(a.slots[0]) != 2 || len(a.slots[0][1]) != 36 {
		t.Fatalf("a 100-slot table has %d chunks, the last of %d slots", len(a.slots[0]), len(a.slots[0][1]))
	}
	if !sameChunk(a, b, 0, 0) || sameChunk(a, b, 0, 1) {
		t.Error("want the untouched first chunk shared and the written short chunk copied")
	}
}

// failedExtensionWritesNothing: the delta's first row is an id inside the
// base's slot table and its second is far outside it, so the extension
// fails. It fails on reading the delta, before it writes the first row into
// the spare capacity of the base's list. The index is then built from
// scratch, the base's readers still see their own rows, and the next epoch
// extends the rebuilt index.
func failedExtensionWritesNothing(t *testing.T) {
	ids := make([]float64, 200)
	for i := range ids {
		ids[i] = float64(i % 97) // ids 0 to 5 have three rows, so spare capacity
	}
	tables := chunkEpochs(t, idRows(ids...), idRows(1, 1e6), idRows(1, 5))
	base, rebuilt := codeIndex(tables[0], "id"), codeIndex(tables[1], "id")
	raw := base.slots[0][0][1]
	if got := raw[:cap(raw)]; len(raw) != 3 || len(got) < 4 || got[3] == 200 {
		t.Fatalf("base list of id 1: %v, with capacity %v: want spare capacity the failed extension did not write", raw, got)
	}
	if rebuilt.num == nil {
		t.Error("the failed extension's index is a slot table: it was not rebuilt over the new range")
	}
}

// TestSnapshotPostingsAppendLeavesNextEpochUnchanged: an epoch extends its
// predecessor's posting list in place, and a caller then appends to the list
// the predecessor's Postings returned. The caller's append must reallocate —
// the returned list is capped at its length — so the successor's postings
// keep the row it appended.
func TestSnapshotPostingsAppendLeavesNextEpochUnchanged(t *testing.T) {
	db, _ := epochDB()
	name := func(s string, n int) []ColumnData {
		nums, texts := make([]float64, n), make([]string, n)
		for i := range texts {
			nums[i], texts[i] = float64(i), s
		}
		return []ColumnData{{Nums: nums}, {Texts: texts}}
	}
	if _, err := db.Append("ev", name("red", 3)); err != nil {
		t.Fatal(err)
	}
	base := db.Snapshot()
	bix := codeIndex(base.Table("ev"), "name")
	if _, err := db.Append("ev", name("red", 1)); err != nil {
		t.Fatal(err)
	}
	next := db.Snapshot()
	nix := codeIndex(next.Table("ev"), "name")
	if got := nix.TextString("red"); !slices.Equal(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("next epoch postings = %v", got)
	}

	for _, p := range [][]int32{bix.TextString("red"), bix.Postings(sqlir.NewText("red")), bix.Text(0)} {
		_ = append(p, 99)
	}
	if got := nix.TextString("red"); !slices.Equal(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("a caller's append to the base's postings reached the next epoch: %v", got)
	}
	if got := bix.TextString("red"); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("base postings = %v", got)
	}
}

// heldPostings returns every probe's postings in a table's column index,
// copied, keyed by Value.String.
func heldPostings(tb *Table, c string, probes []sqlir.Value) map[string][]int32 {
	ix := codeIndex(tb, c)
	out := map[string][]int32{}
	for _, v := range probes {
		out[v.String()] = slices.Clone(ix.Postings(v))
	}
	return out
}

// distinctValues lists a column's distinct non-null values in row order.
func distinctValues(vec *ColumnVec) []sqlir.Value {
	var out []sqlir.Value
	seen := map[string]bool{}
	for i := 0; i < vec.Len(); i++ {
		if v := vec.Value(i); !v.IsNull() && !seen[v.String()] {
			seen[v.String()] = true
			out = append(out, v)
		}
	}
	return out
}

// checkRebuild compares a table's postings for every probe with a
// from-scratch build over the table's own vectors.
func checkRebuild(t *testing.T, label string, tb *Table, c string, probes []sqlir.Value) {
	t.Helper()
	want := wantPostings(tb.Vector(c))
	got := heldPostings(tb, c, probes)
	for _, v := range probes {
		if !slices.Equal(got[v.String()], want[v.String()]) {
			t.Fatalf("%s %s = %s: postings %v, rebuild %v", label, c, v, got[v.String()], want[v.String()])
		}
	}
}

// TestBaseChainIsOneHop: with every epoch frozen and read as it is
// published, each frozen table's base is the previous epoch's table, and
// after every publication no held table's base has a base of its own.
func TestBaseChainIsOneHop(t *testing.T) {
	db := shareDB()
	r := rand.New(rand.NewSource(51))
	var tables []*Table
	for e := 0; e < 24; e++ {
		if _, err := db.Append("ev", shareBatch(r, e, 1+r.Intn(32), false)); err != nil {
			t.Fatal(err)
		}
		for ei, tb := range tables {
			if b := tb.base.Load(); b != nil && b.base.Load() != nil {
				t.Fatalf("after publication %d: epoch %d's base has a base of its own", e+1, ei+1)
			}
		}
		tb := db.Snapshot().Table("ev")
		if e > 0 && tb.base.Load() != tables[len(tables)-1] {
			t.Fatalf("epoch %d: base is not the previous epoch's table", e+1)
		}
		for _, c := range []string{"id", "sparse", "tag"} {
			codeIndex(tb, c)
		}
		tables = append(tables, tb)
	}
}

// TestBaseChainRacingFirstReadsMatchRebuild: first reads of every column at
// epochs N and N+1 race each other and a publication of N+2 whose epoch is
// read at once. Whichever way each race goes — N+1 extends N's index or
// builds its own, N extends N−1's or finds its base cleared — every held
// epoch's postings equal a from-scratch build.
func TestBaseChainRacingFirstReadsMatchRebuild(t *testing.T) {
	db := shareDB()
	cols := []string{"id", "sparse", "tag"}
	r := rand.New(rand.NewSource(52))
	e := 0
	next := func() []ColumnData {
		e++
		return shareBatch(r, e, 1+r.Intn(24), e == 31)
	}
	if _, err := db.Append("ev", next()); err != nil {
		t.Fatal(err)
	}
	held := []*Database{db.Snapshot()}
	for _, c := range cols {
		codeIndex(held[0].Table("ev"), c)
	}
	for round := 0; round < 16; round++ {
		var pair [2]*Database
		for i := range pair {
			if _, err := db.Append("ev", next()); err != nil {
				t.Fatal(err)
			}
			pair[i] = db.Snapshot()
		}
		batch := next()
		var wg sync.WaitGroup
		for _, snap := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, c := range cols {
					codeIndex(snap.Table("ev"), c)
				}
			}()
		}
		var third *Database
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Append("ev", batch); err != nil {
				t.Error(err)
				return
			}
			third = db.Snapshot()
			for _, c := range cols {
				codeIndex(third.Table("ev"), c)
			}
		}()
		wg.Wait()
		if third == nil {
			t.FailNow()
		}
		held = append(held, pair[0], pair[1], third)
	}
	last := held[len(held)-1].Table("ev")
	for _, c := range cols {
		probes := distinctValues(last.Vector(c))
		for _, snap := range held {
			checkRebuild(t, fmt.Sprintf("epoch %d", snap.Epoch()), snap.Table("ev"), c, probes)
		}
	}
}

// TestBaseChainLateFirstReadMatchesRebuild: an epoch whose columns are first
// read only after its successor is published has lost its base, so it
// builds from scratch, equal to a rebuild; its successor then extends it
// without changing what the late epoch reads, and neither touches what the
// epoch before them reads.
func TestBaseChainLateFirstReadMatchesRebuild(t *testing.T) {
	db := shareDB()
	cols := []string{"id", "sparse", "tag"}
	r := rand.New(rand.NewSource(53))
	if _, err := db.Append("ev", shareBatch(r, 0, 40, false)); err != nil {
		t.Fatal(err)
	}
	prev := db.Snapshot().Table("ev")
	if _, err := db.Append("ev", shareBatch(r, 1, 40, false)); err != nil {
		t.Fatal(err)
	}
	late := db.Snapshot().Table("ev")
	if late.base.Load() != prev {
		t.Fatal("a frozen epoch's base is not the previous epoch's table")
	}
	if _, err := db.Append("ev", shareBatch(r, 2, 40, false)); err != nil {
		t.Fatal(err)
	}
	succ := db.Snapshot().Table("ev")
	if late.base.Load() != nil {
		t.Fatal("publishing the successor left the epoch's own base set")
	}
	probes := map[string][]sqlir.Value{}
	before := map[string]map[string][]int32{}
	for _, c := range cols {
		probes[c] = distinctValues(succ.Vector(c))
		before[c] = heldPostings(prev, c, probes[c])
	}
	shared := 0
	for _, c := range cols {
		checkRebuild(t, "late epoch", late, c, probes[c])
		checkRebuild(t, "successor", succ, c, probes[c])
		checkRebuild(t, "late epoch after its successor's read", late, c, probes[c])
		if got := heldPostings(prev, c, probes[c]); !maps.EqualFunc(got, before[c], slices.Equal) {
			t.Fatalf("%s: the later epochs' first reads changed the earlier epoch's postings", c)
		}
		for _, v := range probes[c] {
			base, got := codeIndex(late, c).Postings(v), codeIndex(succ, c).Postings(v)
			if len(base) > 0 && len(got) > len(base) && &got[0] == &base[0] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("the successor did not extend the late epoch's posting lists")
	}
}

// TestBaseChainLinksUnreadEpochs: an epoch is frozen when it is published,
// so three publications with no read in between link each frozen table to
// the previous epoch's as its base, clearing that one's own base, so no
// chain is longer than one hop. Read afterwards in epoch order — the first
// and second build from scratch, the third extends the second — every
// epoch's postings and statistics equal a from-scratch rebuild. Two
// concurrent Snapshot calls after an Append return the same pointer.
func TestBaseChainLinksUnreadEpochs(t *testing.T) {
	db := shareDB()
	cols := []string{"id", "sparse", "tag"}
	r := rand.New(rand.NewSource(58))
	var held []*Table
	for e := 0; e < 3; e++ {
		if _, err := db.Append("ev", shareBatch(r, e, 40, false)); err != nil {
			t.Fatal(err)
		}
		tb := db.latest.Load().Table("ev") // held without a Snapshot call
		var want *Table
		if e > 0 {
			want = held[e-1]
		}
		if got := tb.base.Load(); got != want {
			t.Fatalf("epoch %d: base %p, want the previous epoch's table %p", e+1, got, want)
		}
		held = append(held, tb)
		for ei, h := range held {
			if b := h.base.Load(); b != nil && b.base.Load() != nil {
				t.Fatalf("after publication %d: epoch %d's chain is two hops", e+1, ei+1)
			}
		}
	}
	shared := 0
	for e, tb := range held {
		for _, c := range cols {
			probes := distinctValues(held[len(held)-1].Vector(c))
			checkRebuild(t, fmt.Sprintf("epoch %d", e+1), tb, c, probes)
			if e == 0 {
				continue
			}
			for _, v := range probes {
				base, got := codeIndex(held[e-1], c).Postings(v), codeIndex(tb, c).Postings(v)
				if len(base) > 0 && len(got) > len(base) && &got[0] == &base[0] {
					shared++
				}
			}
		}
		for ci, c := range tb.Columns {
			if got, want := tb.Stats(ci), freshStats(tb.VectorAt(ci)); !sameStats(got, want) {
				t.Fatalf("epoch %d %s: stats %+v, fresh %+v", e+1, c.Name, got, want)
			}
		}
	}
	if shared == 0 {
		t.Error("the third epoch did not extend the second's posting lists")
	}

	if _, err := db.Append("ev", shareBatch(r, 3, 8, false)); err != nil {
		t.Fatal(err)
	}
	var snaps [2]*Database
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[i] = db.Snapshot()
		}()
	}
	wg.Wait()
	if snaps[0] != snaps[1] || snaps[0] != db.latest.Load() {
		t.Fatalf("two snapshots of one epoch are %p and %p, the epoch %p", snaps[0], snaps[1], db.latest.Load())
	}
}

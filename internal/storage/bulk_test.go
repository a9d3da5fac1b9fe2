package storage

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// textPostings returns the code index's posting list for one string of a
// text column.
func textPostings(t *testing.T, tb *Table, col, s string) []int32 {
	t.Helper()
	return codeIndex(tb, col).TextString(s)
}

// codeIndex is the code index of the named column.
func codeIndex(tb *Table, col string) *CodeIndex { return tb.CodeIndex(tb.ColumnIndex(col)) }

func bulkTable() *Table {
	return NewTable("t", "id",
		Column{Name: "id", Type: sqlir.TypeNumber},
		Column{Name: "name", Type: sqlir.TypeText},
		Column{Name: "score", Type: sqlir.TypeNumber},
	)
}

// TestBulkAppendMatchesInsert: a bulk-built table is cell-for-cell identical
// to an Insert-built table with the same data.
func TestBulkAppendMatchesInsert(t *testing.T) {
	byRow := bulkTable()
	byBulk := bulkTable()

	nums := []float64{1, 2, 3, 4}
	names := []string{"a", "b", "a", ""}
	nameNulls := []bool{false, false, false, true}
	scores := []float64{10.5, 0, 7, 10.5}
	scoreNulls := []bool{false, true, false, false}

	for i := range nums {
		name := sqlir.NewText(names[i])
		if nameNulls[i] {
			name = sqlir.Null()
		}
		score := sqlir.NewNumber(scores[i])
		if scoreNulls[i] {
			score = sqlir.Null()
		}
		byRow.MustInsert(sqlir.NewNumber(nums[i]), name, score)
	}
	if err := byBulk.BulkAppend([]ColumnData{
		{Nums: nums},
		{Texts: names, Nulls: nameNulls},
		{Nums: scores, Nulls: scoreNulls},
	}); err != nil {
		t.Fatal(err)
	}

	if byBulk.NumRows() != byRow.NumRows() {
		t.Fatalf("rows: bulk %d, insert %d", byBulk.NumRows(), byRow.NumRows())
	}
	for ri := 0; ri < byRow.NumRows(); ri++ {
		for ci := range byRow.Columns {
			rv := byRow.VectorAt(ci).Value(ri)
			bv := byBulk.VectorAt(ci).Value(ri)
			if !rv.Equal(bv) {
				t.Fatalf("row %d col %d: insert %s, bulk %s", ri, ci, rv, bv)
			}
		}
	}
	// Null placeholders must be stored exactly as Insert stores them (zero),
	// not whatever the caller left in the payload slot.
	if got := byBulk.Vector("score").Num(1); got != 0 {
		t.Fatalf("null score placeholder = %v, want 0", got)
	}
}

// TestBulkAppendDictEncoded: the Codes+Dict payload form matches per-row
// interning exactly — first-appearance code order, unreferenced dictionary
// entries dropped — on both a fresh column (hash-free adoption) and a
// column that already holds a dictionary (per-entry intern).
func TestBulkAppendDictEncoded(t *testing.T) {
	byRow := bulkTable()
	byBulk := bulkTable()

	dict := []string{"zeta", "alpha", "unused", "beta"}
	codes := []uint32{3, 1, 3, 0, 9} // 9 sits in a NULL slot: ignored
	nulls := []bool{false, false, false, false, true}
	texts := []string{"beta", "alpha", "beta", "zeta", ""}

	for i := range codes {
		name := sqlir.NewText(texts[i])
		if nulls[i] {
			name = sqlir.Null()
		}
		byRow.MustInsert(sqlir.NewInt(i), name, sqlir.NewInt(i))
	}
	nums := []float64{0, 1, 2, 3, 4}
	if err := byBulk.BulkAppend([]ColumnData{
		{Nums: nums},
		{Codes: codes, Dict: dict, Nulls: nulls},
		{Nums: nums},
	}); err != nil {
		t.Fatal(err)
	}

	rowDict := byRow.Vector("name").Dict()
	bulkDict := byBulk.Vector("name").Dict()
	if rowDict.Size() != bulkDict.Size() {
		t.Fatalf("dict sizes: row %d, bulk %d ('unused' must not be interned)", rowDict.Size(), bulkDict.Size())
	}
	for i, s := range rowDict.Strings() {
		if got := bulkDict.Strings()[i]; got != s {
			t.Fatalf("dict[%d]: bulk %q, row %q (first-appearance order)", i, got, s)
		}
	}
	for ri := range codes {
		rv, bv := byRow.VectorAt(1).Value(ri), byBulk.VectorAt(1).Value(ri)
		if !rv.Equal(bv) {
			t.Fatalf("row %d: bulk %s, row-insert %s", ri, bv, rv)
		}
		if !nulls[ri] && byRow.Vector("name").Code(ri) != byBulk.Vector("name").Code(ri) {
			t.Fatalf("row %d: codes diverge", ri)
		}
	}
	// The lazily built lookup map answers like the eagerly built one.
	if c, ok := bulkDict.Lookup("beta"); !ok || bulkDict.String(c) != "beta" {
		t.Fatalf("Lookup(beta) = %d, %v after adoption", c, ok)
	}
	if _, ok := bulkDict.Lookup("unused"); ok {
		t.Fatal("unreferenced dictionary entry is interned")
	}

	// Second dictionary-encoded batch onto the now non-empty column.
	if err := byBulk.BulkAppend([]ColumnData{
		{Nums: []float64{5, 6}},
		{Codes: []uint32{0, 1}, Dict: []string{"gamma", "alpha"}},
		{Nums: []float64{5, 6}},
	}); err != nil {
		t.Fatal(err)
	}
	byRow.MustInsert(sqlir.NewInt(5), sqlir.NewText("gamma"), sqlir.NewInt(5))
	byRow.MustInsert(sqlir.NewInt(6), sqlir.NewText("alpha"), sqlir.NewInt(6))
	for ri := 5; ri < 7; ri++ {
		if rv, bv := byRow.VectorAt(1).Value(ri), byBulk.VectorAt(1).Value(ri); !rv.Equal(bv) {
			t.Fatalf("row %d after second batch: bulk %s, row-insert %s", ri, bv, rv)
		}
	}

	// A duplicate entry in an adopted dictionary would make code-keyed
	// equality unsound; validation rejects it atomically at ingest.
	dup := bulkTable()
	err := dup.BulkAppend([]ColumnData{
		{Nums: []float64{1, 2}},
		{Codes: []uint32{0, 1}, Dict: []string{"same", "same"}},
		{Nums: []float64{1, 2}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate dictionary entry") {
		t.Fatalf("err = %v, want duplicate-entry rejection", err)
	}
	if dup.NumRows() != 0 {
		t.Fatalf("%d rows appended after duplicate dictionary", dup.NumRows())
	}
	// The lazily built lookup map re-checks the invariant as a backstop.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ensureMap accepted a duplicate-entry dictionary")
			}
		}()
		(&Dict{strs: []string{"same", "same"}}).Lookup("same")
	}()

	// Out-of-range codes in non-NULL slots are rejected atomically.
	bad := bulkTable()
	err = bad.BulkAppend([]ColumnData{
		{Nums: []float64{1}},
		{Codes: []uint32{5}, Dict: []string{"only"}},
		{Nums: []float64{1}},
	})
	if err == nil || !strings.Contains(err.Error(), "out of dictionary range") {
		t.Fatalf("err = %v, want out-of-range rejection", err)
	}
	if bad.NumRows() != 0 {
		t.Fatalf("%d rows appended after invalid codes", bad.NumRows())
	}
}

// TestBulkAppendMixedWithInsert: batches and single rows interleave.
func TestBulkAppendMixedWithInsert(t *testing.T) {
	tb := bulkTable()
	tb.MustInsert(sqlir.NewInt(1), sqlir.NewText("x"), sqlir.NewInt(5))
	if err := tb.BulkAppend([]ColumnData{
		{Nums: []float64{2, 3}},
		{Texts: []string{"y", "x"}},
		{Nums: []float64{6, 7}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.MustInsert(sqlir.NewInt(4), sqlir.NewText("z"), sqlir.Null())
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", tb.NumRows())
	}
	// The dictionary interned "x" once across both paths.
	if got := tb.Vector("name").Dict().Size(); got != 3 {
		t.Fatalf("dict size = %d, want 3", got)
	}
	if got := len(textPostings(t, tb, "name", "x")); got != 2 {
		t.Fatalf("postings for x = %d, want 2", got)
	}
}

// TestBulkAppendGeneration: one Database.Append batch publishes exactly one
// epoch, so snapshot readers see batch boundaries, not per-row churn.
func TestBulkAppendGeneration(t *testing.T) {
	tb := bulkTable()
	db := NewDatabase("bulk", NewSchema(tb))
	e0 := db.Snapshot().Epoch()
	epoch, err := db.Append(tb.Name, []ColumnData{
		{Nums: []float64{1, 2, 3}},
		{Texts: []string{"a", "b", "c"}},
		{Nums: []float64{4, 5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := epoch - e0; got != 1 {
		t.Fatalf("epoch moved by %d for one batch, want 1", got)
	}
	// A built index is invalidated by the next batch.
	tb.CodeIndex(tb.ColumnIndex("name"))
	if err := tb.BulkAppend([]ColumnData{
		{Nums: []float64{7}},
		{Texts: []string{"a"}},
		{Nums: []float64{8}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(textPostings(t, tb, "name", "a")); got != 2 {
		t.Fatalf("postings for a after second batch = %d, want 2", got)
	}
}

// TestBulkAppendValidation: malformed payloads are rejected atomically.
func TestBulkAppendValidation(t *testing.T) {
	cases := []struct {
		name string
		cols []ColumnData
		want string
	}{
		{"arity", []ColumnData{{Nums: []float64{1}}}, "columns, want"},
		{"type mismatch", []ColumnData{
			{Texts: []string{"a"}}, {Texts: []string{"b"}}, {Nums: []float64{1}},
		}, "does not match type"},
		{"ragged", []ColumnData{
			{Nums: []float64{1, 2}}, {Texts: []string{"a"}}, {Nums: []float64{1, 2}},
		}, "other columns have"},
		{"null flags", []ColumnData{
			{Nums: []float64{1}}, {Texts: []string{"a"}, Nulls: []bool{false, true}}, {Nums: []float64{2}},
		}, "null flags"},
	}
	for _, tc := range cases {
		tb := bulkTable()
		err := tb.BulkAppend(tc.cols)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if tb.NumRows() != 0 {
			t.Errorf("%s: %d rows appended after validation error", tc.name, tb.NumRows())
		}
	}

	// Empty batch is a no-op, not an error.
	tb := bulkTable()
	if err := tb.BulkAppend([]ColumnData{{}, {}, {}}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if tb.NumRows() != 0 {
		t.Fatalf("empty batch appended %d rows", tb.NumRows())
	}
}

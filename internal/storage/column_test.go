package storage

import (
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// colRows is what colTable holds, row by row.
var colRows = [][]sqlir.Value{
	{sqlir.NewNumber(1), sqlir.NewText("red"), sqlir.NewNumber(1.5)},
	{sqlir.NewNumber(2), sqlir.NewText("blue"), sqlir.Null()},
	{sqlir.NewNumber(3), sqlir.NewText("red"), sqlir.NewNumber(-2)},
	{sqlir.NewNumber(4), sqlir.Null(), sqlir.NewNumber(0)},
	{sqlir.NewNumber(5), sqlir.NewText("green"), sqlir.NewNumber(1.5)},
}

func colTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("items", "id",
		Column{Name: "id", Type: sqlir.TypeNumber},
		Column{Name: "tag", Type: sqlir.TypeText},
		Column{Name: "score", Type: sqlir.TypeNumber},
	)
	for _, r := range colRows {
		tb.MustInsert(r...)
	}
	return tb
}

// The dictionary interns each distinct string once, in first-appearance
// order, and codes round-trip.
func TestDictInterning(t *testing.T) {
	tb := colTable(t)
	vec := tb.Vector("tag")
	if vec == nil {
		t.Fatal("no vector for tag")
	}
	d := vec.Dict()
	if d.Size() != 3 {
		t.Fatalf("dict size = %d, want 3 (red, blue, green)", d.Size())
	}
	for want, s := range []string{"red", "blue", "green"} {
		c, ok := d.Lookup(s)
		if !ok || int(c) != want {
			t.Errorf("Lookup(%q) = (%d, %v), want (%d, true)", s, c, ok, want)
		}
		if d.String(c) != s {
			t.Errorf("String(%d) = %q, want %q", c, d.String(c), s)
		}
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup of absent string reported present")
	}
	// Rows 0 and 2 share the "red" code.
	if vec.Code(0) != vec.Code(2) {
		t.Errorf("duplicate text got distinct codes: %d vs %d", vec.Code(0), vec.Code(2))
	}
}

// Null bitmap and typed accessors agree with the rows that were inserted.
func TestVectorNullsAndValues(t *testing.T) {
	tb := colTable(t)
	tag, score := tb.Vector("tag"), tb.Vector("score")
	if tag.NullCount() != 1 || score.NullCount() != 1 {
		t.Fatalf("null counts = %d, %d, want 1, 1", tag.NullCount(), score.NullCount())
	}
	if !tag.IsNull(3) || tag.IsNull(0) {
		t.Error("tag null bitmap wrong")
	}
	if !score.IsNull(1) || score.IsNull(3) {
		t.Error("score null bitmap wrong")
	}
	if score.Num(2) != -2 || score.Num(3) != 0 {
		t.Errorf("score nums = %v, %v", score.Num(2), score.Num(3))
	}
	for ri := 0; ri < tb.NumRows(); ri++ {
		for ci := range tb.Columns {
			if got, want := tb.VectorAt(ci).Value(ri), colRows[ri][ci]; !got.Equal(want) {
				t.Errorf("vector value (%d,%d) = %s, inserted %s", ri, ci, got, want)
			}
		}
	}
}

// The typed code index serves posting lists in row order for both numeric
// and text columns, and misses cleanly.
func TestCodeIndexPostings(t *testing.T) {
	tb := colTable(t)
	ix := tb.CodeIndex(tb.ColumnIndex("tag"))
	if got := ix.TextString("red"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("red postings = %v, want [0 2]", got)
	}
	if got := ix.TextString("absent"); got != nil {
		t.Errorf("absent postings = %v, want nil", got)
	}
	if got := ix.Postings(sqlir.NewNumber(3)); got != nil {
		t.Errorf("kind-mismatched probe returned %v", got)
	}

	nix := tb.CodeIndex(tb.ColumnIndex("score"))
	if got := nix.Num(1.5); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("1.5 postings = %v, want [0 4]", got)
	}
	// NULL rows are not indexed.
	if got := nix.Num(0); len(got) != 1 || got[0] != 3 {
		t.Errorf("0 postings = %v, want [3]", got)
	}
	// The index is memoized: a second request returns the same one.
	if again := tb.CodeIndex(tb.ColumnIndex("score")); again != nix {
		t.Error("second CodeIndex call rebuilt the index instead of memoizing")
	}
}

// Insert invalidates the code index.
func TestCodeIndexInvalidatedByInsert(t *testing.T) {
	tb := colTable(t)
	ix := tb.CodeIndex(tb.ColumnIndex("tag"))
	if got := ix.TextString("blue"); len(got) != 1 {
		t.Fatalf("blue postings = %v", got)
	}
	tb.MustInsert(sqlir.NewNumber(6), sqlir.NewText("blue"), sqlir.NewNumber(9))
	ix2 := tb.CodeIndex(tb.ColumnIndex("tag"))
	if got := ix2.TextString("blue"); len(got) != 2 {
		t.Errorf("post-insert blue postings = %v, want 2 rows", got)
	}
}

// A brand-new string interned by a post-build Insert must be findable after
// the rebuild (codes assigned past the old dictionary snapshot).
func TestCodeIndexNewCodeAfterInsert(t *testing.T) {
	tb := colTable(t)
	tb.CodeIndex(tb.ColumnIndex("tag"))
	tb.MustInsert(sqlir.NewNumber(7), sqlir.NewText("violet"), sqlir.NewNumber(1))
	ix := tb.CodeIndex(tb.ColumnIndex("tag"))
	if got := ix.TextString("violet"); len(got) != 1 || got[0] != 5 {
		t.Errorf("violet postings = %v, want [5]", got)
	}
}

// Footprint reports dictionary sizes and vector memory per column.
func TestFootprint(t *testing.T) {
	tb := colTable(t)
	fps := tb.Footprint()
	if len(fps) != 3 {
		t.Fatalf("footprint has %d columns", len(fps))
	}
	tag := fps[1]
	if tag.Column != "tag" || tag.DictEntries != 3 || tag.DictBytes == 0 {
		t.Errorf("tag footprint = %+v", tag)
	}
	if tag.Rows != 5 || tag.Nulls != 1 || tag.VectorBytes == 0 {
		t.Errorf("tag footprint = %+v", tag)
	}
	id := fps[0]
	if id.DictEntries != 0 || id.DictBytes != 0 || id.VectorBytes == 0 {
		t.Errorf("id footprint = %+v", id)
	}

	db := NewDatabase("t", NewSchema(tb))
	tfs := db.Footprint()
	if len(tfs) != 1 || tfs[0].Table != "items" || tfs[0].Rows != 5 {
		t.Fatalf("database footprint = %+v", tfs)
	}
	if tfs[0].VectorBytes == 0 || tfs[0].DictBytes == 0 {
		t.Errorf("database footprint bytes = %+v", tfs[0])
	}
}

// Stats and DistinctValues, now computed from the vectors, keep their
// contracts on mixed null/duplicate data.
func TestColumnarStatsAndDistinct(t *testing.T) {
	tb := colTable(t)
	st := tb.Stats(tb.ColumnIndex("tag"))
	if st.NonNull != 4 || tb.Vector("tag").Dict().Size() != 3 {
		t.Errorf("tag stats = %+v, %d distinct", st, tb.Vector("tag").Dict().Size())
	}
	if !st.Min.Equal(sqlir.NewText("blue")) || !st.Max.Equal(sqlir.NewText("red")) {
		t.Errorf("tag min/max = %s/%s", st.Min, st.Max)
	}

	st = tb.Stats(tb.ColumnIndex("score"))
	if st.NonNull != 4 {
		t.Errorf("score stats = %+v", st)
	}
	if vals, err := tb.DistinctValues("score", 0); err != nil || len(vals) != 3 {
		t.Errorf("distinct scores = %v, %v", vals, err)
	}
	if st.Min.Num != -2 || st.Max.Num != 1.5 {
		t.Errorf("score min/max = %s/%s", st.Min, st.Max)
	}

	vals, err := tb.DistinctValues("tag", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0].Text != "blue" || vals[1].Text != "green" || vals[2].Text != "red" {
		t.Errorf("distinct tags = %v", vals)
	}
	nums, err := tb.DistinctValues("score", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != 2 || nums[0].Num != -2 || nums[1].Num != 0 {
		t.Errorf("distinct scores = %v", nums)
	}
}

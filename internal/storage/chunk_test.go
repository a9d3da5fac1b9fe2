package storage

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// TestSetVectorsRefuses: SetVectors takes vectors only onto a live table
// without rows, one per column, typed as the column and equally long;
// anything else is refused, naming the table, and sets nothing. Accepted
// vectors drop what the table derived from its old rows.
func TestSetVectorsRefuses(t *testing.T) {
	newTable := func() *Table {
		return NewTable("t", "",
			Column{Name: "n", Type: sqlir.TypeNumber},
			Column{Name: "s", Type: sqlir.TypeText},
		)
	}
	src := newTable()
	src.MustInsert(sqlir.NewNumber(1), sqlir.NewText("a"))
	src.MustInsert(sqlir.Null(), sqlir.Null())
	short := newTable()
	short.MustInsert(sqlir.NewNumber(3), sqlir.NewText("b"))
	decode := func(tb *Table, ci int) ColumnVec {
		vec, err := DecodeVector(EncodeVector(tb.VectorAt(ci)), tb.Columns[ci].Type)
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}
	num, text := decode(src, 0), decode(src, 1)

	full := newTable()
	full.MustInsert(sqlir.NewNumber(2), sqlir.NewText("z"))
	frozen := NewDatabase("d", NewSchema(newTable())).Snapshot().Table("t")
	for _, c := range []struct {
		name string
		tb   *Table
		vecs []ColumnVec
		want string
	}{
		{"frozen", frozen, []ColumnVec{num, text}, "frozen snapshot"},
		{"with rows", full, []ColumnVec{num, text}, "holding 1 rows"},
		{"one vector", newTable(), []ColumnVec{num}, "1 vectors for 2 columns"},
		{"wrong type", newTable(), []ColumnVec{text, num}, "column n: vector of type text"},
		{"unequal lengths", newTable(), []ColumnVec{num, decode(short, 1)}, "column s: 1 rows, column n has 2"},
	} {
		rows := c.tb.NumRows()
		err := c.tb.SetVectors(c.vecs)
		if err == nil || !strings.Contains(err.Error(), "table t") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one naming table t and %q", c.name, err, c.want)
		}
		if c.tb.NumRows() != rows {
			t.Errorf("%s: a refused SetVectors changed the row count to %d", c.name, c.tb.NumRows())
		}
	}

	tb := newTable()
	if st := tb.Stats(0); st.NonNull != 0 {
		t.Fatalf("empty table stats %+v", st)
	}
	if err := tb.SetVectors([]ColumnVec{num, text}); err != nil {
		t.Fatal(err)
	}
	if st := tb.Stats(0); st.NonNull != 1 || !st.Min.Equal(sqlir.NewNumber(1)) {
		t.Fatalf("stats after SetVectors %+v, want the set rows'", st)
	}
	if got := tb.CodeIndex(1).TextString("a"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("postings of a = %v, want [0]", got)
	}
}

// TestDecodeVectorRefuses: a chunk no vector encodes to is refused, with
// the fault named, whichever check it fails.
func TestDecodeVectorRefuses(t *testing.T) {
	tb := NewTable("t", "",
		Column{Name: "n", Type: sqlir.TypeNumber},
		Column{Name: "s", Type: sqlir.TypeText},
	)
	tb.MustInsert(sqlir.NewNumber(1), sqlir.NewText("a"))
	tb.MustInsert(sqlir.Null(), sqlir.Null())
	num, text := EncodeVector(tb.VectorAt(0)), EncodeVector(tb.VectorAt(1))
	patched := func(chunk []byte, patch func([]byte)) []byte {
		out := append([]byte(nil), chunk...)
		patch(out)
		return out
	}
	for _, c := range []struct {
		name  string
		chunk []byte
		typ   sqlir.Type
		want  string
	}{
		{"kind against type", num, sqlir.TypeText, "does not match column type"},
		{"truncated", num[:len(num)-2], sqlir.TypeNumber, "truncated"},
		{"trailing byte", append(append([]byte(nil), num...), 0), sqlir.TypeNumber, "1 trailing bytes"},
		// The bitmap's one byte follows the two rows' values.
		{"NULL bit past the last row", patched(num, func(b []byte) { b[len(b)-1] |= 1 << 2 }), sqlir.TypeNumber, "past row 2"},
		// Dictionary length 3 (after the 16-byte header) for two rows.
		{"dictionary longer than the rows", patched(text, func(b []byte) { b[16] = 3 }), sqlir.TypeText, "dictionary of 3 entries for 2 rows"},
		// Row 0's code (after the header, the dictionary length, one entry
		// length, the entry "a" and three bytes of padding) set to 5.
		{"code out of range", patched(text, func(b []byte) { b[16+4+4+1+3] = 5 }), sqlir.TypeText, "row 0 code 5 out of dictionary range 1"},
	} {
		if _, err := DecodeVector(c.chunk, c.typ); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

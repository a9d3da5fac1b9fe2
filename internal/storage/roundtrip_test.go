package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// sameCell is bit equality: -0 differs from 0.
func sameCell(a, b sqlir.Value) bool {
	return a.Kind == b.Kind && a.Text == b.Text && math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

// checkCells asserts the table holds exactly the rows the test kept, and
// that each text column's dictionary holds exactly the strings of those rows
// (what pbe.columnCovers and Stats read instead of scanning).
func checkCells(t *testing.T, label string, tb *Table, kept [][]sqlir.Value) {
	t.Helper()
	if tb.NumRows() != len(kept) {
		t.Fatalf("%s: %d rows, kept %d", label, tb.NumRows(), len(kept))
	}
	for ci, col := range tb.Columns {
		vec := tb.VectorAt(ci)
		want := map[string]bool{}
		for ri, row := range kept {
			if got := vec.Value(ri); !sameCell(got, row[ci]) {
				t.Fatalf("%s: row %d column %s = %s, kept %s", label, ri, col.Name, got, row[ci])
			}
			if row[ci].Kind == sqlir.KindText {
				want[row[ci].Text] = true
			}
		}
		if col.Type != sqlir.TypeText || len(want) == 0 {
			continue
		}
		got := append([]string(nil), vec.Dict().Strings()...)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%s: column %s dictionary %q, kept strings %v", label, col.Name, got, want)
		}
		for _, s := range got {
			if !want[s] {
				t.Fatalf("%s: column %s dictionary holds %q, which no kept row does", label, col.Name, s)
			}
		}
	}
}

// TestPropWhatGoesInComesOut: whatever mix of Insert and BulkAppend payload
// forms built a table, every cell reads back bit for bit as the value the
// test kept, a frozen snapshot keeps reading back its own prefix while the
// live table grows past it, and the table's vectors come back whole through
// the chunk codec. Values include NULLs, NaN (which comes out
// NULL), ±Inf, -0 and text from a tiny alphabet; batch sizes straddle the
// 64-row bitmap word.
func TestPropWhatGoesInComesOut(t *testing.T) {
	nums := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2, 7, 7, 7}
	texts := []string{"dup", "dup", "dup", "rare", "x y", "", "Ünï"}
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("t", "",
			Column{Name: "n", Type: sqlir.TypeNumber},
			Column{Name: "s", Type: sqlir.TypeText},
		)
		db := NewDatabase("roundtrip", NewSchema(tb))
		var kept [][]sqlir.Value
		type pin struct {
			snap *Database
			rows int
		}
		var pins []pin
		for step := 0; step < 10; step++ {
			n := 1 + r.Intn(90)
			// The payload in every form at once; NULL slots hold junk that
			// must not come back out.
			nv, tv := make([]float64, n), make([]string, n)
			nNull, tNull := make([]bool, n), make([]bool, n)
			dict := []string{"never referenced"}
			codeOf := map[string]uint32{}
			codes := make([]uint32, n)
			var given [][]sqlir.Value // the batch's rows as given; kept has them as stored
			for i := 0; i < n; i++ {
				row := []sqlir.Value{sqlir.Null(), sqlir.Null()}
				nv[i], tv[i], codes[i] = 99, "junk", 1<<20
				if nNull[i] = r.Intn(10) < 3; !nNull[i] {
					nv[i] = nums[r.Intn(len(nums))]
					row[0] = sqlir.NewNumber(nv[i])
				}
				if tNull[i] = r.Intn(10) < 3; !tNull[i] {
					tv[i] = texts[r.Intn(len(texts))]
					row[1] = sqlir.NewText(tv[i])
					if _, ok := codeOf[tv[i]]; !ok {
						codeOf[tv[i]] = uint32(len(dict))
						dict = append(dict, tv[i])
					}
					codes[i] = codeOf[tv[i]]
				}
				given = append(given, row)
				if row[0].IsNaN() {
					row = []sqlir.Value{sqlir.Null(), row[1]}
				}
				kept = append(kept, row)
			}
			var err error
			switch form := r.Intn(3); form {
			case 0:
				for _, row := range given {
					if err = tb.Insert(row...); err != nil {
						break
					}
				}
			case 1:
				err = tb.BulkAppend([]ColumnData{{Nums: nv, Nulls: nNull}, {Texts: tv, Nulls: tNull}})
			case 2:
				err = tb.BulkAppend([]ColumnData{{Nums: nv, Nulls: nNull}, {Codes: codes, Dict: dict, Nulls: tNull}})
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkCells(t, "live", tb, kept)
			if r.Intn(2) == 0 {
				pins = append(pins, pin{db.Snapshot(), len(kept)})
			}
			for _, p := range pins {
				checkCells(t, "snapshot", p.snap.Table("t"), kept[:p.rows])
			}
		}
		// The table's vectors, encoded as chunks and decoded into a fresh
		// table, hold the same cells and the same fingerprint.
		back := NewTable("t", "", tb.Columns...)
		vecs := make([]ColumnVec, len(tb.Columns))
		for ci, col := range tb.Columns {
			vec, err := DecodeVector(EncodeVector(tb.VectorAt(ci)), col.Type)
			if err != nil {
				t.Fatalf("seed %d column %s: %v", seed, col.Name, err)
			}
			vecs[ci] = vec
		}
		if err := back.SetVectors(vecs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkCells(t, "decoded", back, kept)
		if got, want := Fingerprint(NewDatabase("roundtrip", NewSchema(back))), Fingerprint(db); got != want {
			t.Fatalf("seed %d: decoded fingerprint %016x, want %016x", seed, got, want)
		}
	}
}

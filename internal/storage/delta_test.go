package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// factTable builds a table of the shape a generated fact table has: a
// dense primary key, a unique text label, a Zipf-skewed foreign key into a
// parent of a twentieth as many rows, a nullable categorical text column, a
// nullable small-integer column, and a nullable column of halves (not all
// integers, so it keeps the value map).
func factTable(rows int) *Database {
	tb := NewTable("fact", "id",
		Column{"id", sqlir.TypeNumber},
		Column{"label", sqlir.TypeText},
		Column{"parent_id", sqlir.TypeNumber},
		Column{"kind", sqlir.TypeText},
		Column{"year", sqlir.TypeNumber},
		Column{"score", sqlir.TypeNumber},
	)
	r := rand.New(rand.NewSource(int64(rows)))
	z := rand.NewZipf(r, 1.2, 1, uint64(max(rows/20, 2)-1))
	id := ColumnData{Nums: make([]float64, rows)}
	label := ColumnData{Codes: make([]uint32, rows), Dict: make([]string, rows)}
	parent := ColumnData{Nums: make([]float64, rows)}
	kind := ColumnData{Codes: make([]uint32, rows), Dict: make([]string, 64), Nulls: make([]bool, rows)}
	year := ColumnData{Nums: make([]float64, rows), Nulls: make([]bool, rows)}
	score := ColumnData{Nums: make([]float64, rows), Nulls: make([]bool, rows)}
	for k := range kind.Dict {
		kind.Dict[k] = fmt.Sprintf("kind-%02d", k)
	}
	for i := 0; i < rows; i++ {
		id.Nums[i] = float64(i + 1)
		label.Dict[i], label.Codes[i] = fmt.Sprintf("label-%07d", i+1), uint32(i)
		parent.Nums[i] = float64(1 + z.Uint64())
		kind.Codes[i], kind.Nulls[i] = uint32(r.Intn(64)), r.Intn(10) == 0
		year.Nums[i], year.Nulls[i] = float64(1950+r.Intn(70)), r.Intn(10) == 0
		score.Nums[i], score.Nulls[i] = float64(r.Intn(21))/2+0.5, r.Intn(10) == 0
	}
	if err := tb.BulkAppend([]ColumnData{id, label, parent, kind, year, score}); err != nil {
		panic(err)
	}
	return NewDatabase("fact", NewSchema(tb))
}

// copyRows returns n of the table's rows from row `from` on, wrapping, as
// one bulk payload: what an ingest workload appends, so the delta's values
// are ones the table already holds.
func copyRows(tb *Table, from, n int) []ColumnData {
	rows := tb.NumRows()
	cols := make([]ColumnData, len(tb.Columns))
	for ci, c := range tb.Columns {
		vec := tb.VectorAt(ci)
		cd := ColumnData{Nulls: make([]bool, n)}
		if c.Type == sqlir.TypeNumber {
			cd.Nums = make([]float64, n)
		} else {
			cd.Texts = make([]string, n)
		}
		for j := 0; j < n; j++ {
			ri := (from + j) % rows
			switch {
			case vec.IsNull(ri):
				cd.Nulls[j] = true
			case c.Type == sqlir.TypeNumber:
				cd.Nums[j] = vec.Num(ri)
			default:
				cd.Texts[j] = vec.Dict().String(vec.Code(ri))
			}
		}
		cols[ci] = cd
	}
	return cols
}

// epochRound is one ingest epoch as a reader meets it: append 128 copied
// rows, take the snapshot, and read every column's statistics and index.
func epochRound(db *Database, round int) {
	live := db.Schema.Tables[0]
	if _, err := db.Append("fact", copyRows(live, round*997, 128)); err != nil {
		panic(err)
	}
	tb := db.Snapshot().Schema.Tables[0]
	for ci := range tb.Columns {
		tb.Stats(ci)
		tb.CodeIndex(ci)
	}
}

// epochBytes returns the median bytes one epochRound allocates on a table
// of rows rows, over rounds after a warm-up. The median leaves out the
// rare round in which a column vector's geometric growth reallocates it.
func epochBytes(rows int) uint64 {
	db := factTable(rows)
	for round := 0; round < 8; round++ {
		epochRound(db, round)
	}
	var per []uint64
	var ms runtime.MemStats
	for round := 8; round < 40; round++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		epochRound(db, round)
		runtime.ReadMemStats(&ms)
		per = append(per, ms.TotalAlloc-before)
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestEpochCostIsItsDelta: what an epoch costs — the append, the snapshot,
// and every column's statistics and index on first read — depends on the
// rows appended, not on the table's size: on a table ten times larger the
// same 128-row epoch may allocate at most half as much again.
func TestEpochCostIsItsDelta(t *testing.T) {
	small, large := epochBytes(20_000), epochBytes(200_000)
	t.Logf("bytes per 128-row epoch: %d at 20k rows, %d at 200k rows (%.2f×)", small, large, float64(large)/float64(small))
	if float64(large) > 1.5*float64(small) {
		t.Errorf("a 128-row epoch allocates %d bytes at 200k rows, %.2f× the %d at 20k: the epoch costs the table, not its delta",
			large, float64(large)/float64(small), small)
	}
}

// BenchmarkEpochAppend times one epochRound — append 128 copied rows,
// snapshot, and every column's statistics and index on first read — at 20k
// and 200k rows. Each iteration appends, so the table grows by 128 rows an
// iteration.
func BenchmarkEpochAppend(b *testing.B) {
	for _, rows := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := factTable(rows)
			epochRound(db, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epochRound(db, i+1)
			}
		})
	}
}

// BenchmarkIndexBuild times a from-scratch index build over 200k rows for
// each layout: a dense id column (slot table by value), a text column
// (slot table by code) and a column of halves (value map).
func BenchmarkIndexBuild(b *testing.B) {
	tb := factTable(200_000).Schema.Tables[0]
	for _, col := range []string{"id", "label", "score"} {
		vec := tb.Vector(col)
		b.Run(col, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := &CodeIndex{vec: vec}
				ix.build()
			}
		})
	}
}

// TestSnapshotSeesAddedForeignKey: a build-phase AddForeignKey with no row
// change still publishes a new epoch, whose schema has the key and the new
// catalog while sharing every frozen table with the epoch before; that
// epoch keeps its own schema.
func TestSnapshotSeesAddedForeignKey(t *testing.T) {
	parent := NewTable("parent", "id", Column{"id", sqlir.TypeNumber})
	child := NewTable("child", "id", Column{"id", sqlir.TypeNumber}, Column{"parent_id", sqlir.TypeNumber})
	db := NewDatabase("fk", NewSchema(parent, child))
	parent.MustInsert(num(1))
	child.MustInsert(num(1), num(1))
	before := db.Snapshot()
	oldCat := before.Schema.Catalog()

	db.Schema.AddForeignKey("child", "parent_id", "parent", "id")
	after := db.Snapshot()
	if after == before {
		t.Fatal("Snapshot after AddForeignKey returned the previous epoch")
	}
	if after.Epoch() <= before.Epoch() {
		t.Errorf("epoch %d after AddForeignKey, %d before", after.Epoch(), before.Epoch())
	}
	if len(after.Schema.ForeignKeys) != 1 || len(after.Schema.Catalog().ForeignKeys()) != 1 {
		t.Errorf("new snapshot has %d foreign keys, its catalog %d; want 1 and 1",
			len(after.Schema.ForeignKeys), len(after.Schema.Catalog().ForeignKeys()))
	}
	if after.Schema.Catalog() != db.Schema.Catalog() {
		t.Error("new snapshot's catalog is not the live schema's")
	}
	if len(before.Schema.ForeignKeys) != 0 || before.Schema.Catalog() != oldCat || len(oldCat.ForeignKeys()) != 0 {
		t.Error("the earlier snapshot's schema changed")
	}
	for i := range after.Schema.Tables {
		if after.Schema.Tables[i] != before.Schema.Tables[i] {
			t.Errorf("table %s was re-frozen for a catalog change", after.Schema.Tables[i].Name)
		}
	}
	if db.Snapshot() != after {
		t.Error("a second Snapshot with no change published again")
	}
}

// freshStats is the oracle for Stats: one pass over the rows in row order,
// keeping the first of equal extremes, as a fresh computation does.
func freshStats(vec *ColumnVec) ColumnStats {
	var st ColumnStats
	for i := 0; i < vec.Len(); i++ {
		v := vec.Value(i)
		if v.IsNull() {
			continue
		}
		if st.NonNull == 0 || v.Compare(st.Min) < 0 {
			st.Min = v
		}
		if st.NonNull == 0 || v.Compare(st.Max) > 0 {
			st.Max = v
		}
		st.NonNull++
	}
	return st
}

// sameStats compares statistics bit for bit, so −0 and +0 differ.
func sameStats(a, b ColumnStats) bool {
	same := func(x, y sqlir.Value) bool {
		return x.Kind == y.Kind && math.Float64bits(x.Num) == math.Float64bits(y.Num) && x.Text == y.Text
	}
	return a.NonNull == b.NonNull && same(a.Min, b.Min) && same(a.Max, b.Max)
}

// TestSnapshotStatsFoldEqualsFresh: on every epoch of a seeded append
// stream, the statistics a frozen table folds from its base's equal a
// fresh pass over its own rows. The batches include NULL-only batches, NaN
// (stored as NULL), ±0 and ±Inf, batches whose first row is a new
// extreme, a dictionary that grows at both ends of its order, and two
// columns that hold only NULLs until epoch 12. Every
// fourth epoch is read only after its successor is published, so it has
// lost its base and computes afresh.
func TestSnapshotStatsFoldEqualsFresh(t *testing.T) {
	tb := NewTable("st", "n",
		Column{"n", sqlir.TypeNumber},
		Column{"s", sqlir.TypeText},
		Column{"late", sqlir.TypeNumber},
		Column{"late_text", sqlir.TypeText},
	)
	db := NewDatabase("stats", NewSchema(tb))
	r := rand.New(rand.NewSource(57))
	var held []*Database
	check := func(snap *Database) {
		t.Helper()
		ft := snap.Schema.Tables[0]
		for ci, c := range ft.Columns {
			if got, want := ft.Stats(ci), freshStats(ft.VectorAt(ci)); !sameStats(got, want) {
				t.Fatalf("epoch %d %s: stats %+v, fresh %+v", snap.Epoch(), c.Name, got, want)
			}
		}
	}
	folded := 0
	for e := 0; e < 48; e++ {
		n := 1 + r.Intn(40)
		cols := []ColumnData{
			{Nums: make([]float64, n), Nulls: make([]bool, n)},
			{Texts: make([]string, n), Nulls: make([]bool, n)},
			{Nums: make([]float64, n), Nulls: make([]bool, n)},
			{Texts: make([]string, n), Nulls: make([]bool, n)},
		}
		allNull := e%7 == 3
		for i := 0; i < n; i++ {
			switch k := r.Intn(12); {
			case k == 0:
				cols[0].Nums[i] = math.NaN()
			case k == 1:
				cols[0].Nums[i] = math.Copysign(0, -1)
			case k == 2 && e > 30:
				cols[0].Nums[i] = math.Inf(1 - 2*r.Intn(2))
			default:
				cols[0].Nums[i] = float64(r.Intn(10 + e))
			}
			cols[1].Texts[i] = fmt.Sprintf("%c%d", 'a'+r.Intn(26), r.Intn(3+e))
			cols[2].Nums[i] = float64(e*100 - r.Intn(5000))
			cols[3].Texts[i] = fmt.Sprintf("t%d", r.Intn(2+e))
			for c := range cols {
				cols[c].Nulls[i] = allNull || r.Intn(5) == 0 || (c >= 2 && e < 12)
			}
		}
		if e%3 == 1 && !allNull {
			// The batch's first row is a new extreme, so a fold that starts
			// at the wrong row misses it.
			cols[0].Nums[0], cols[0].Nulls[0] = -float64(e), false
			cols[2].Nums[0], cols[2].Nulls[0] = float64(1e6+e), e < 12
		}
		if _, err := db.Append("st", cols); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		held = append(held, snap)
		if e%4 == 3 {
			continue
		}
		ft := snap.Schema.Tables[0]
		if b := ft.base.Load(); b != nil {
			b.hashMu.Lock()
			folded += len(b.stats)
			b.hashMu.Unlock()
		}
		check(snap)
		if e%4 == 0 && e > 0 {
			check(held[e-1]) // the unread epoch, now without its base
		}
	}
	for _, snap := range held {
		check(snap)
	}
	if folded == 0 {
		t.Error("no epoch folded its base's statistics")
	}
	t.Logf("%d column statistics folded from a base over %d epochs", folded, len(held))
}

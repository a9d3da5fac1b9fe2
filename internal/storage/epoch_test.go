package storage

import (
	"fmt"
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

// TestSnapshotNullBoundaryCOW publishes a snapshot mid null-bitmap word and
// appends NULL-bearing rows into the same word: the snapshot must keep its
// pre-append bits (copy-on-write), the head must see the new ones.
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

// TestConcurrentAppendAndSnapshots is the storage-level race test: one
// writer publishing epochs through Database.Append while readers pin
// snapshots and scan them. Run with -race this proves the clamped views,
// the frozen dictionaries, and the null-bitmap COW keep published epochs
// immutable under live ingest.
func TestConcurrentAppendAndSnapshots(t *testing.T) {
	db, _ := epochDB()
	if _, err := db.Append("ev", epochBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	pinned := db.Snapshot()

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
				snap := db.Snapshot()
				n := snap.Table("ev").NumRows()
				if n < 5 || (n-5)%rowsPer != 0 {
					t.Errorf("snapshot rows = %d, not a batch boundary", n)
					return
				}
				checkRows(t, snap.Table("ev"), n)
				if _, err := snap.Table("ev").CodeIndex("name"); err != nil {
					t.Error(err)
					return
				}
				if _, err := snap.Stats(sqlir.ColumnRef{Table: "ev", Column: "id"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkRows(t, db.Snapshot().Table("ev"), 5+batches*rowsPer)
}

// Epoch-based snapshot isolation (MVCC-lite). Storage is append-only — rows
// are inserted, never updated or deleted — so a consistent snapshot of a
// database is nothing more than a per-table row watermark plus the
// dictionary sizes at one instant. Writers publish immutable *epochs*:
// numbered views whose column vectors are capacity-clamped slice headers
// over the live backing arrays. Later appends only ever write past the
// published lengths (a view holds the null bitmap's partially filled
// boundary word by value, see ColumnVec.tail), so every published epoch
// stays valid forever at the cost of one word per column.
//
// Readers obtain a snapshot as a frozen *Database — structurally identical
// to a live one, so the whole query stack (sqlexec, verify, enumerate,
// autocomplete) runs on it unchanged — and caches key by the frozen
// database identity instead of being invalidated on write.
//
// Storage publishes; it does not retain. The live database holds only its
// newest view, and an older epoch lives exactly as long as someone holds
// the frozen database they were handed — which epochs stay addressable by
// number is the service's decision (its shard map), not storage's.
//
// Concurrency contract: once concurrent readers exist, all mutation must go
// through Database.Append (which serializes with publication); the
// table-level Insert/BulkAppend APIs remain build-phase-only.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// tableView is one table's state at publication: the generation it was
// captured at (to detect staleness and to share views across epochs for
// untouched tables) and a capacity-clamped copy of each column vector. The
// frozen Table is materialized lazily on first snapshot request and
// memoized, so all readers of an epoch share one table — and therefore one
// set of lazily built posting-list indexes.
type tableView struct {
	gen  int64
	cols []ColumnVec

	// base is the previous epoch's frozen table, when it had one at
	// publication: the frozen table this view becomes extends the base's
	// ready code indexes and memoized statistics on their first read
	// (Table.CodeIndex, Table.Stats — append-only rows make prefixes
	// shareable) instead of rebuilding from scratch.
	// Handed over and cleared on freeze.
	base *Table

	once sync.Once
	tbl  atomic.Pointer[Table]
}

// dbView is one published epoch: a number, the per-table views, and the
// catalog and foreign keys the schema had at publication. Views of tables
// untouched since the previous epoch are shared with it, so an ingest burst
// into one table — or a build-phase AddForeignKey, which changes only the
// catalog — does not re-freeze (or re-index) the others.
type dbView struct {
	epoch  int64
	tables []*tableView
	cat    *sqlir.Catalog
	fks    []ForeignKey

	once   sync.Once
	frozen *Database
}

// captureView snapshots the table's vectors under the database write lock.
// Each clamp seals the vector: the full-slice expressions pin length and
// capacity so a reader can never observe a later in-place append. The null
// bitmap is clamped at its last full word and a partially filled last word
// is copied into the view (tail), so the live vector's later NULL bits in
// that word are set in place, where no view reads.
// prev is the table's view in the previous epoch, or nil; its frozen
// dictionaries are what the new ones share lookup maps with (Dict.freeze).
func (t *Table) captureView(prev *tableView) *tableView {
	tv := &tableView{gen: t.gen.Load(), cols: make([]ColumnVec, len(t.vecs))}
	for i := range t.vecs {
		v := &t.vecs[i]
		fv := ColumnVec{
			typ:       v.typ,
			nums:      v.nums[:len(v.nums):len(v.nums)],
			codes:     v.codes[:len(v.codes):len(v.codes)],
			nulls:     v.nulls[: v.n>>6 : v.n>>6],
			n:         v.n,
			nullCount: v.nullCount,
		}
		if v.n&63 != 0 {
			fv.tail = v.nulls[v.n>>6]
		}
		if v.dict != nil {
			var pd *Dict
			if prev != nil {
				pd = prev.cols[i].dict
			}
			fv.dict = v.dict.freeze(pd)
		}
		tv.cols[i] = fv
	}
	return tv
}

// freeze materializes the view as a read-only Table, once.
func (tv *tableView) freeze(src *Table) *Table {
	tv.once.Do(func() {
		ft := NewTable(src.Name, src.PrimaryKey, src.Columns...)
		copy(ft.vecs, tv.cols)
		ft.frozen = true
		ft.base.Store(tv.base)
		tv.base = nil
		tv.tbl.Store(ft)
	})
	return tv.tbl.Load()
}

// freeze materializes the epoch as a read-only Database, once. Unchanged
// tables reuse the previous epoch's frozen Table (same pointer), so their
// lazy indexes and statistics memos carry across epochs untouched.
func (v *dbView) freeze(src *Database) *Database {
	v.once.Do(func() {
		tables := make([]*Table, len(v.tables))
		for i, tv := range v.tables {
			tables[i] = tv.freeze(src.Schema.Tables[i])
		}
		sch := NewSchema(tables...)
		sch.ForeignKeys = v.fks
		sch.cat.Store(v.cat)
		fdb := NewDatabase(src.Name, sch)
		fdb.frozen = true
		fdb.snapEpoch = v.epoch
		v.frozen = fdb
	})
	return v.frozen
}

// changedSince reports whether any table mutated, or the schema's catalog
// changed, after the view was captured. Generations and the catalog are
// atomics, so the check is safe against a concurrent Append and costs one
// load per table.
func (d *Database) changedSince(v *dbView) bool {
	if len(v.tables) != len(d.Schema.Tables) || v.cat != d.Schema.Catalog() {
		return true
	}
	for i, t := range d.Schema.Tables {
		if t.gen.Load() != v.tables[i].gen {
			return true
		}
	}
	return false
}

// publishLocked captures a new epoch. Caller holds writeMu. Views of tables
// whose generation did not move are shared with the previous epoch, so an
// epoch published for a catalog change alone shares every view.
func (d *Database) publishLocked() *dbView {
	prev := d.latest.Load()
	d.epochSeq++
	nv := &dbView{epoch: d.epochSeq, tables: make([]*tableView, len(d.Schema.Tables)),
		cat: d.Schema.Catalog(), fks: slices.Clone(d.Schema.ForeignKeys)}
	for i, t := range d.Schema.Tables {
		var ptv *tableView
		if prev != nil && i < len(prev.tables) {
			ptv = prev.tables[i]
		}
		if ptv != nil && ptv.gen == t.gen.Load() {
			nv.tables[i] = ptv
			continue
		}
		ntv := t.captureView(ptv)
		if ptv != nil {
			// Hand the new view the previous epoch's frozen table, so the
			// new epoch's first read of an index extends the base's with
			// just the appended rows (Table.CodeIndex). Clearing the base's
			// own base here keeps every chain one hop long.
			if pt := ptv.tbl.Load(); pt != nil {
				pt.base.Store(nil)
				ntv.base = pt
			}
		}
		nv.tables[i] = ntv
	}
	d.latest.Store(nv)
	return nv
}

// Epoch returns the latest published epoch number (0 before the first
// publication). On a frozen snapshot it returns the pinned epoch.
func (d *Database) Epoch() int64 {
	if d.frozen {
		return d.snapEpoch
	}
	if v := d.latest.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// Frozen reports whether the database is an immutable epoch snapshot.
func (d *Database) Frozen() bool { return d.frozen }

// Snapshot returns an immutable view of the latest data as a frozen
// Database. If build-phase mutations happened since the last publication,
// a fresh epoch is published first, so sequential insert-then-query code
// observes its own writes without a separate publish step. The returned
// database is memoized per epoch: two snapshots of the same epoch are the
// same pointer, which is what lets caches key by database identity.
func (d *Database) Snapshot() *Database {
	if d.frozen {
		return d
	}
	if v := d.latest.Load(); v != nil && !d.changedSince(v) {
		return v.freeze(d)
	}
	d.writeMu.Lock()
	v := d.latest.Load()
	if v == nil || d.changedSince(v) {
		v = d.publishLocked()
	}
	d.writeMu.Unlock()
	return v.freeze(d)
}

// Append bulk-appends one batch to the named table and publishes the result
// as a new epoch, returning its number. This is the only mutation that may
// run concurrently with snapshot readers: the write lock serializes batches
// and publication, and published epochs are never written again. The
// returned epoch already includes the batch, so any later Snapshot observes
// the new rows while snapshots of earlier epochs do not.
func (d *Database) Append(table string, cols []ColumnData) (int64, error) {
	if d.frozen {
		return 0, fmt.Errorf("storage: database %s: cannot append to a frozen snapshot (epoch %d)", d.Name, d.snapEpoch)
	}
	t := d.Schema.Table(table)
	if t == nil {
		return 0, fmt.Errorf("storage: no table %s", table)
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := t.BulkAppend(cols); err != nil {
		return 0, err
	}
	return d.publishLocked().epoch, nil
}

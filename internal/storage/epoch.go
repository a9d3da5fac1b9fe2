// Epoch-based snapshot isolation (MVCC-lite). Storage is append-only — rows
// are inserted, never updated or deleted — so a consistent snapshot of a
// database is nothing more than a per-table row watermark plus the
// dictionary sizes at one instant. Writers publish immutable *epochs*:
// numbered frozen databases whose column vectors are capacity-clamped slice
// headers over the live backing arrays. Later appends only ever write past
// the published lengths (a frozen vector holds the null bitmap's partially
// filled boundary word by value, see ColumnVec.tail), so every published
// epoch stays valid forever at the cost of one word per column.
//
// An epoch is a frozen *Database from the moment it is published —
// structurally identical to a live one, so the whole query stack (sqlexec,
// verify, enumerate, autocomplete) runs on it unchanged — and caches key
// by the frozen database identity instead of being invalidated on write.
//
// Storage publishes; it does not retain. The live database holds only its
// newest epoch, and an older epoch lives exactly as long as someone holds
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
)

// freeze returns the table's current rows as a read-only Table, under the
// database write lock. It shares the live table's columns and column index,
// which never change, and records the live generation (gen) it froze at.
// Each clamp seals a vector: the full-slice expressions pin length and
// capacity so a reader can never observe a later in-place append. The null
// bitmap is clamped at its last full word and a partially filled last word
// is copied into the frozen vector (tail), so the live vector's later NULL
// bits in that word are set in place, where no epoch reads.
//
// prev is the table's frozen copy in the previous epoch, or nil. Its frozen
// dictionaries are what the new ones share lookup maps with (Dict.freeze),
// and it becomes the new table's base: the first read of an index or of a
// column's statistics extends the base's with just the appended rows
// (Table.CodeIndex, Table.Stats). Clearing prev's own base here keeps
// every chain one hop long.
func (t *Table) freeze(prev *Table) *Table {
	ft := &Table{Name: t.Name, Columns: t.Columns, PrimaryKey: t.PrimaryKey,
		vecs: make([]ColumnVec, len(t.vecs)), colIdx: t.colIdx, frozen: true}
	ft.gen.Store(t.gen.Load())
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
				pd = prev.vecs[i].dict
			}
			fv.dict = v.dict.freeze(pd)
		}
		ft.vecs[i] = fv
	}
	if prev != nil {
		prev.base.Store(nil)
		ft.base.Store(prev)
	}
	return ft
}

// changedSince reports whether any table mutated, or the schema's catalog
// changed, after epoch e was published. Generations and the catalog are
// atomics, so the check is safe against a concurrent Append and costs one
// load per table.
func (d *Database) changedSince(e *Database) bool {
	if len(e.Schema.Tables) != len(d.Schema.Tables) || e.Schema.Catalog() != d.Schema.Catalog() {
		return true
	}
	for i, t := range d.Schema.Tables {
		if t.gen.Load() != e.Schema.Tables[i].gen.Load() {
			return true
		}
	}
	return false
}

// publishLocked publishes a new epoch. Caller holds writeMu. Tables whose
// generation did not move are the previous epoch's frozen tables (same
// pointer), so their lazy indexes and statistics memos carry across epochs
// untouched, and an epoch published for a catalog change alone shares
// every table.
func (d *Database) publishLocked() *Database {
	prev := d.latest.Load()
	d.epochSeq++
	tables := make([]*Table, len(d.Schema.Tables))
	for i, t := range d.Schema.Tables {
		var pt *Table
		if prev != nil && i < len(prev.Schema.Tables) {
			pt = prev.Schema.Tables[i]
		}
		if pt != nil && pt.gen.Load() == t.gen.Load() {
			tables[i] = pt
			continue
		}
		tables[i] = t.freeze(pt)
	}
	sch := NewSchema(tables...)
	sch.ForeignKeys = slices.Clone(d.Schema.ForeignKeys)
	sch.cat.Store(d.Schema.Catalog())
	e := NewDatabase(d.Name, sch)
	e.frozen, e.snapEpoch = true, d.epochSeq
	d.latest.Store(e)
	return e
}

// Epoch returns the latest published epoch number (0 before the first
// publication). On a frozen snapshot it returns the pinned epoch.
func (d *Database) Epoch() int64 {
	if d.frozen {
		return d.snapEpoch
	}
	if e := d.latest.Load(); e != nil {
		return e.snapEpoch
	}
	return 0
}

// Frozen reports whether the database is an immutable epoch snapshot.
func (d *Database) Frozen() bool { return d.frozen }

// Snapshot returns the latest data as a frozen Database. If build-phase
// mutations happened since the last publication, a fresh epoch is
// published first, so sequential insert-then-query code observes its own
// writes without a separate publish step. Two snapshots of the same epoch
// are the same pointer, which is what lets caches key by database identity.
func (d *Database) Snapshot() *Database {
	if d.frozen {
		return d
	}
	if e := d.latest.Load(); e != nil && !d.changedSince(e) {
		return e
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if e := d.latest.Load(); e != nil && !d.changedSince(e) {
		return e
	}
	return d.publishLocked()
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
	return d.publishLocked().snapEpoch, nil
}

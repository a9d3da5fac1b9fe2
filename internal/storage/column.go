// Columnar storage: every table column is held as a typed vector —
// []float64 for numeric columns, dictionary-encoded []uint32 codes plus an
// interned string table for text columns, and a null bitmap for both — and
// the vectors are the whole table: sqlexec's streaming pipeline reads cells
// off them through the posting-list indexes below, and its test oracle, a
// materializing reference, reads them directly.
package storage

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// Dict is a per-column string dictionary: every distinct non-null text value
// inserted into the column is interned once and addressed by a dense uint32
// code. Codes are assigned in first-appearance order and never change, so a
// code remains valid across Inserts (Insert only ever appends entries).
type Dict struct {
	strs  []string
	codes map[string]uint32
	// root is set on a frozen dictionary that shares an earlier frozen
	// dictionary's lookup map: codes then holds only the codes interned
	// since root, and Lookup probes it before root (see freeze).
	root *Dict
	// live is the live dictionary a frozen one was captured from.
	live *Dict
	// blob, when non-empty, is the concatenation of strs in code order —
	// DecodeVector slices a decoded dictionary out of one backing string
	// and records it here, letting columnFingerprint fold the whole
	// dictionary as a word stream instead of string by string. Cleared the
	// moment strs diverges from it (intern appending a new entry).
	blob string
	// mapOnce gates the lazy build of codes: a bulk dictionary adoption
	// (appendBulk) and a decoded dictionary (DecodeVector) leave the map nil
	// so loading never pays for hashing, and the first intern or Lookup
	// builds it from strs exactly once.
	// Concurrent Lookups are safe — Once serializes the build; intern runs
	// only in exclusive (mutation) contexts and keeps the map current
	// afterwards.
	mapOnce sync.Once
}

// ensureMap builds the string→code map from strs on first need. The build
// pass doubles as the duplicate check for bulk-adopted dictionaries
// (BulkAppend documents the distinctness precondition; adoption itself is
// hash-free and cannot dedupe): a collision here means code-keyed equality
// would silently miss rows, so it is a programming bug worth a panic.
func (d *Dict) ensureMap() {
	d.mapOnce.Do(func() {
		if d.codes != nil {
			return
		}
		m := make(map[string]uint32, len(d.strs))
		for i, s := range d.strs {
			if _, dup := m[s]; dup {
				panic(fmt.Sprintf("storage: dictionary holds duplicate entry %q — bulk-adopted dictionaries must contain distinct strings", s))
			}
			m[s] = uint32(i)
		}
		d.codes = m
	})
}

// intern returns the code for s, assigning the next code on first sight.
func (d *Dict) intern(s string) uint32 {
	d.ensureMap()
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.codes[s] = c
	d.blob = "" // strs no longer matches the adopted concatenation
	return c
}

// Lookup returns the code for s, reporting whether s is interned. A miss
// means no row of the column holds s.
func (d *Dict) Lookup(s string) (uint32, bool) {
	if d.root != nil {
		if c, ok := d.codes[s]; ok {
			return c, true
		}
		return d.root.Lookup(s)
	}
	d.ensureMap()
	c, ok := d.codes[s]
	return c, ok
}

// freeze returns a frozen copy of the live dictionary d at its current size.
// The copy shares the interned strings (the blob survives even if a later
// intern clears the live one: the clamped prefix still matches the adopted
// concatenation) but not the live lookup map, which keeps growing. prev is
// the previous epoch's frozen copy of the same column's dictionary, or nil.
//
// Cloning the whole map per epoch made the dictionaries a retained epoch's
// largest cost, so a copy shares a root's map instead: the root is prev's
// root (prev itself if it has none) and the copy's own map holds only the
// codes interned since it, so a lookup is at most two probes and chains are
// one link long. A copy becomes a root of its own — a bucket copy of the
// live map, or a lazy build when the live map does not exist yet — when
// there is no such root, when prev was captured from another live
// dictionary, or when the delta would exceed an eighth of the root.
func (d *Dict) freeze(prev *Dict) *Dict {
	size := len(d.strs)
	fd := &Dict{strs: d.strs[:size:size], blob: d.blob, live: d}
	root := prev
	if root != nil && root.root != nil {
		root = root.root
	}
	if root != nil && root.live == d && size-root.Size() <= root.Size()/8 {
		fd.root = root
		if n := root.Size(); size > n {
			fd.codes = make(map[string]uint32, size-n)
			for c := n; c < size; c++ {
				fd.codes[d.strs[c]] = uint32(c)
			}
		}
		return fd
	}
	if d.codes != nil {
		fd.codes = maps.Clone(d.codes)
	}
	return fd
}

// String returns the interned string for a code.
func (d *Dict) String(code uint32) string { return d.strs[code] }

// Size returns the number of interned strings — exactly the column's
// distinct non-null value count, since entries are never removed. A nil
// dictionary (a text column with no non-null row yet) has none.
func (d *Dict) Size() int {
	if d == nil {
		return 0
	}
	return len(d.strs)
}

// Strings returns the interned string table in code order (shared slice;
// callers must not mutate). Autocomplete builds its inverted index from
// this instead of re-scanning and de-duplicating rows.
func (d *Dict) Strings() []string { return d.strs }

// Bytes estimates the dictionary's memory footprint: string payloads plus
// string headers and the code map entries.
func (d *Dict) Bytes() int64 {
	var n int64
	for _, s := range d.strs {
		n += int64(len(s)) + 16 // payload + string header
	}
	// map entry ≈ string header + uint32 + bucket overhead.
	n += int64(len(d.strs)) * 28
	return n
}

// ColumnVec is one column's typed vector. Exactly one of nums/codes is
// populated, matching the column's declared type; nulls marks NULL rows in
// either representation (the slot in nums/codes holds a zero placeholder).
type ColumnVec struct {
	typ       sqlir.Type
	nums      []float64
	codes     []uint32
	dict      *Dict
	nulls     []uint64 // bitmap, bit i set = row i is NULL
	n         int
	nullCount int

	// tail is a frozen vector's partially filled last bitmap word, held by
	// value: a snapshot's nulls stop at its last full word (captureView),
	// so the live vector sets the NULL bits of later rows in that word in
	// place, in a word no snapshot reads. Zero on a live vector, whose
	// nulls hold every word.
	tail uint64
}

// Type returns the column's declared type.
func (v *ColumnVec) Type() sqlir.Type { return v.typ }

// Len returns the row count.
func (v *ColumnVec) Len() int { return v.n }

// NullCount returns the number of NULL rows.
func (v *ColumnVec) NullCount() int { return v.nullCount }

// IsNull reports whether row i is NULL.
func (v *ColumnVec) IsNull(i int) bool {
	if w := i >> 6; w < len(v.nulls) {
		return v.nulls[w]&(1<<(uint(i)&63)) != 0
	}
	return v.tail&(1<<(uint(i)&63)) != 0
}

// Num returns row i's numeric value (0 when the row is NULL; check IsNull).
func (v *ColumnVec) Num(i int) float64 { return v.nums[i] }

// Code returns row i's dictionary code (0 when the row is NULL; check
// IsNull before trusting it — 0 is also a valid code).
func (v *ColumnVec) Code(i int) uint32 { return v.codes[i] }

// Dict returns the column's string dictionary (nil for numeric columns).
func (v *ColumnVec) Dict() *Dict { return v.dict }

// Value materializes row i as a sqlir.Value. The returned struct shares the
// interned string, so this allocates nothing.
func (v *ColumnVec) Value(i int) sqlir.Value {
	if v.IsNull(i) {
		return sqlir.Null()
	}
	switch v.typ {
	case sqlir.TypeNumber:
		return sqlir.NewNumber(v.nums[i])
	case sqlir.TypeText:
		return sqlir.NewText(v.dict.strs[v.codes[i]])
	default:
		return sqlir.Null()
	}
}

// appendValue extends the vector by one row. val's type has already been
// checked against the column type by Insert. A NaN is stored as NULL, as
// SQLite stores it, so no column holds a NaN. A text vector gets its
// dictionary with its first row, NULL or not, as BulkAppend and
// DecodeVector give it one.
func (v *ColumnVec) appendValue(val sqlir.Value) {
	i := v.n
	v.n++
	if i>>6 >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	if v.typ == sqlir.TypeText && v.dict == nil {
		v.dict = &Dict{}
	}
	if val.IsNull() || val.IsNaN() {
		v.nulls[i>>6] |= 1 << (uint(i) & 63)
		v.nullCount++
		switch v.typ {
		case sqlir.TypeNumber:
			v.nums = append(v.nums, 0)
		case sqlir.TypeText:
			v.codes = append(v.codes, 0)
		}
		return
	}
	switch v.typ {
	case sqlir.TypeNumber:
		v.nums = append(v.nums, val.Num)
	case sqlir.TypeText:
		v.codes = append(v.codes, v.dict.intern(val.Text))
	}
}

// vectorBytes estimates the vector's memory footprint excluding the
// dictionary (reported separately).
func (v *ColumnVec) vectorBytes() int64 {
	return int64(len(v.nums))*8 + int64(len(v.codes))*4 + int64((v.n+63)>>6)*8
}

// CodeIndex is a typed posting-list index over one column — the only index
// the storage engine has. Postings live in one slot table: a text column's
// slot is the dictionary code, and a numeric column whose non-null values
// are all integers in a compact range — the FK/PK id columns every join
// probes — has slot value − off, so a join probe is an array load rather
// than a float hash. Only a numeric column with no such range keys its
// postings by value, in num. Posting lists preserve row order. Made on
// first read; a live table drops its indexes on Insert, a frozen epoch
// table keeps them for its lifetime, and a new epoch's table extends its
// predecessor's (extendFrom). Every accessor returns a list capped at its
// length, so no caller can append into capacity a successor epoch's index
// may be using.
type CodeIndex struct {
	once sync.Once
	vec  *ColumnVec
	// slots holds the slot table in pages of chunks: chunk c holds slots
	// [c·slotChunk, (c+1)·slotChunk) and page p chunks [p·pageChunks,
	// (p+1)·pageChunks), each sized to what it holds, so only the last
	// chunk and page are short. An extension shares its base's pages and
	// chunks until it writes into one (extendFrom).
	slots [][][][]int32
	width int // slots in the table
	off   int
	num   map[uint64][]int32 // numeric columns with no compact range, keyed by numKey

	// ready flips once the index is made; a successor epoch extends only a
	// ready index, so it never races an in-flight build on the
	// still-serving base table.
	ready atomic.Bool
}

// A slot table's chunk holds up to slotChunk slots, and its page up to
// pageChunks chunks (1 << pageBits slots).
const (
	chunkBits  = 6
	pageBits   = 12
	slotChunk  = 1 << chunkBits
	pageChunks = 1 << (pageBits - chunkBits)
)

// capped returns list with no spare capacity: appending to it reallocates.
func capped(list []int32) []int32 { return list[:len(list):len(list)] }

// list returns slot s's posting list, capped.
func (ix *CodeIndex) list(s int) []int32 {
	return capped(ix.slots[s>>pageBits][s>>chunkBits&(pageChunks-1)][s&(slotChunk-1)])
}

// numSlot returns the slot of numeric value f, false when f is not an
// integer inside the slot table's range.
func (ix *CodeIndex) numSlot(f float64) (int, bool) {
	if f != math.Trunc(f) || f < float64(ix.off) || f >= float64(ix.off+ix.width) {
		return 0, false
	}
	return int(f) - ix.off, true
}

// numKey is the value map's key for f: its bits, with −0 folded into +0
// (f+0) so that ±0 share a list, as Value.Equal has them. An integer key
// takes the runtime's 64-bit map fast path, which a float key cannot.
func numKey(f float64) uint64 { return math.Float64bits(f + 0) }

// Num returns a numeric column's posting list for a float value (nil when
// absent).
func (ix *CodeIndex) Num(f float64) []int32 {
	if ix.num != nil {
		return capped(ix.num[numKey(f)])
	}
	if s, ok := ix.numSlot(f); ok {
		return ix.list(s)
	}
	return nil
}

// Text returns a text column's posting list for a dictionary code (nil when
// out of range: a code interned after the index was built has no rows in the
// index's table — a live table drops the index on Insert, and a frozen
// table's dictionary never grows).
func (ix *CodeIndex) Text(code uint32) []int32 {
	if int(code) >= ix.width {
		return nil
	}
	return ix.list(int(code))
}

// TextString returns the posting list for a string value via the dictionary
// (nil when the string is not stored in the column).
func (ix *CodeIndex) TextString(s string) []int32 {
	if ix.vec.dict == nil {
		return nil
	}
	c, ok := ix.vec.dict.Lookup(s)
	if !ok {
		return nil
	}
	return ix.Text(c)
}

// Postings returns the posting list for an arbitrary value: typed lookups
// for matching kinds, nil for NULL or kind-mismatched probes (a text value
// never matches a numeric column, exactly as the value-keyed index).
func (ix *CodeIndex) Postings(v sqlir.Value) []int32 {
	switch {
	case v.Kind == sqlir.KindNumber && ix.vec.typ == sqlir.TypeNumber:
		return ix.Num(v.Num)
	case v.Kind == sqlir.KindText && ix.vec.typ == sqlir.TypeText:
		return ix.TextString(v.Text)
	default:
		return nil
	}
}

// fill appends rows [from, n) of the column to the index, in the layout the
// index holds. A build passes the one array its slot table was cut from,
// flat, and writes slot s at flat[s]; an extension passes its base index,
// whose pages and chunks it still shares, and the first write into one
// copies it (own). fill reports false at a numeric value outside the slot
// table, which only an extension meets.
func (ix *CodeIndex) fill(from int, base *CodeIndex, flat [][]int32) bool {
	vec := ix.vec
	for i := from; i < vec.n; i++ {
		var s int
		switch {
		case vec.IsNull(i):
			continue
		case ix.num != nil:
			k := numKey(vec.nums[i])
			ix.num[k] = append(ix.num[k], int32(i))
			continue
		case vec.typ == sqlir.TypeText:
			s = int(vec.codes[i])
		default:
			var ok bool
			if s, ok = ix.numSlot(vec.nums[i]); !ok {
				return false
			}
		}
		if flat != nil {
			flat[s] = append(flat[s], int32(i))
			continue
		}
		p, c := s>>pageBits, s>>chunkBits&(pageChunks-1)
		ix.own(base, p, c)
		chunk := ix.slots[p][c]
		chunk[s&(slotChunk-1)] = append(chunk[s&(slotChunk-1)], int32(i))
	}
	return true
}

// own makes page p, and chunk c of it, the index's own before a write:
// each that is still the base index's (the same array) is copied.
func (ix *CodeIndex) own(base *CodeIndex, p, c int) {
	if p >= len(base.slots) {
		return // past the base's table: widen made it
	}
	bp := base.slots[p]
	if &ix.slots[p][0] == &bp[0] {
		ix.slots[p] = slices.Clone(bp)
	}
	if c < len(bp) && &ix.slots[p][c][0] == &bp[c][0] {
		ix.slots[p][c] = slices.Clone(bp[c])
	}
}

// widen returns a slot table of width slots that shares the pages and
// chunks of table, of width from, that hold no slot at or past from, and
// gives every other chunk and page storage of its own — cut from one array
// per level — keeping the lists and chunks the old ones hold. It also
// returns the array the chunks were cut from, which holds slots
// [from/slotChunk·slotChunk, width): widen(nil, 0, w) is an empty table of
// width w and its slots in order.
func widen(table [][][][]int32, from, width int) ([][][][]int32, [][]int32) {
	nc := (width + slotChunk - 1) >> chunkBits
	out := make([][][][]int32, (nc+pageChunks-1)/pageChunks)
	copy(out, table)
	if width == from {
		return out, nil
	}
	c0, p0 := from>>chunkBits, from>>pageBits
	chunks := make([][][]int32, nc-p0*pageChunks)
	for p := p0; p < len(out); p++ {
		lo, hi := (p-p0)*pageChunks, min((p-p0+1)*pageChunks, len(chunks))
		copy(chunks[lo:hi], out[p])
		out[p] = chunks[lo:hi:hi]
	}
	slots := make([][]int32, width-c0*slotChunk)
	for c := c0; c < nc; c++ {
		lo, hi := (c-c0)*slotChunk, min((c-c0+1)*slotChunk, len(slots))
		pg := out[c>>(pageBits-chunkBits)]
		copy(slots[lo:hi], pg[c&(pageChunks-1)])
		pg[c&(pageChunks-1)] = slots[lo:hi:hi]
	}
	return out, slots
}

// build makes the index from scratch: a text column gets one slot per
// dictionary code, a numeric column the slot table when its values have a
// dense range, else the value map.
func (ix *CodeIndex) build() {
	vec := ix.vec
	if vec.typ == sqlir.TypeText {
		ix.width = vec.dict.Size()
	} else if off, width, ok := denseRange(vec); ok {
		ix.off, ix.width = off, width
	} else {
		ix.num = make(map[uint64][]int32, vec.n-vec.nullCount)
	}
	var flat [][]int32
	if ix.num == nil {
		ix.slots, flat = widen(nil, 0, ix.width)
	}
	ix.fill(0, nil, flat)
}

// denseRange reports the slot table a numeric column fits, in one scan:
// every non-null value must be an integer and the value range must stay
// within a small multiple of the row count (so id-like columns qualify and
// sparse ones keep the value map).
func denseRange(vec *ColumnVec) (off, width int, ok bool) {
	nonNull := vec.n - vec.nullCount
	if nonNull == 0 {
		return 0, 0, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < vec.n; i++ {
		if vec.IsNull(i) {
			continue
		}
		f := vec.nums[i]
		if f != math.Trunc(f) || math.Abs(f) > 1<<31 {
			return 0, 0, false
		}
		lo, hi = min(lo, f), max(hi, f)
	}
	if hi-lo+1 > float64(4*nonNull)+1024 {
		return 0, 0, false // sparse ids: a dense table would be mostly holes
	}
	return int(lo), int(hi-lo) + 1, true
}

// extendFrom makes the index from base table b's index of the same column
// ci, when b is non-nil and that index is ready: it copies the base's value
// map, or the base's page table — sharing the pages, the chunks and the
// posting lists — and fills only the rows appended since b. A page or chunk
// is copied before the first write into it, and before a dictionary grown
// since b widens it (widen), so an epoch boundary costs O(distinct keys)
// for a value map and, for a slot table, O(width/4096 + pageChunks·
// pages touched + slotChunk·chunks touched + delta); a posting list is
// copied only when an append finds it full. It reports false, leaving the
// index empty, when there is no ready base index or a delta value falls
// outside the base's slot table; the caller then builds from scratch.
//
// Appending into the base's spare capacity is safe because of four
// invariants:
//
//  1. One successor per base. publishLocked links a frozen table as the base
//     of exactly one successor view (the next publication that captures the
//     table), and each of the successor's indexes extends the base's once,
//     inside its own once, so no two indexes ever append into the same
//     spare capacity.
//  2. Readers stop at their own length. The base index's page table, pages,
//     chunks and map are never rewritten — the successor writes only into
//     pages and chunks it has copied; the base's readers see rows [0, len)
//     of each list, and the successor writes only past that, into memory no
//     base reader can reach.
//  3. Nobody else appends. Num, Text, TextString and Postings return lists
//     capped at their length (capped), so a caller appending to a posting
//     list reallocates instead of writing into shared capacity.
//  4. A failed extension is invisible. It wrote only into pages and chunks
//     it had copied and into spare capacity (2), which no one else will
//     write (1), and the index restarts empty before its build, which
//     allocates a table and lists of its own.
func (ix *CodeIndex) extendFrom(b *Table, ci int) bool {
	if b == nil {
		return false
	}
	b.hashMu.Lock()
	base := b.codeIdx[ci]
	b.hashMu.Unlock()
	if base == nil || !base.ready.Load() {
		return false
	}
	if base.num != nil {
		ix.num = maps.Clone(base.num)
	} else {
		ix.off, ix.width = base.off, max(base.width, ix.vec.dict.Size())
		ix.slots, _ = widen(base.slots, base.width, ix.width)
	}
	if !ix.fill(b.NumRows(), base, nil) {
		ix.slots, ix.off, ix.width = nil, 0, 0
		return false
	}
	return true
}

// Vector returns the named column's typed vector, or nil if the column does
// not exist. The vector is live: Insert extends it in place, so it is only
// stable while no concurrent Insert runs.
func (t *Table) Vector(col string) *ColumnVec {
	ci := t.ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	return &t.vecs[ci]
}

// VectorAt returns the i-th column's typed vector.
func (t *Table) VectorAt(ci int) *ColumnVec { return &t.vecs[ci] }

// CodeIndex returns the typed posting-list index of the column at ordinal ci —
// what the streaming pipeline's seeds and join probes read — made on first
// read and memoized until the next Insert. A table whose base (epoch.go)
// has a ready index ci extends it with just the appended rows; otherwise,
// or when those rows leave the base's slot array, the index is built from
// scratch.
func (t *Table) CodeIndex(ci int) *CodeIndex {
	t.hashMu.Lock()
	if t.codeIdx == nil {
		t.codeIdx = map[int]*CodeIndex{}
	}
	ix, ok := t.codeIdx[ci]
	if !ok {
		ix = &CodeIndex{vec: &t.vecs[ci]}
		t.codeIdx[ci] = ix
	}
	t.hashMu.Unlock()
	ix.once.Do(func() {
		if !ix.extendFrom(t.base.Load(), ci) {
			ix.build()
		}
		ix.ready.Store(true)
	})
	return ix
}

// ColumnFootprint reports one column's storage cost for the operator stats:
// how large the typed vector is and, for text columns, how much the
// dictionary holds.
type ColumnFootprint struct {
	Column      string
	Type        sqlir.Type
	Rows        int
	Nulls       int
	DictEntries int   // distinct interned strings; 0 for numeric columns
	DictBytes   int64 // dictionary payload + headers; 0 for numeric columns
	VectorBytes int64 // codes/nums vector + null bitmap
}

// Footprint reports per-column storage statistics for the table.
func (t *Table) Footprint() []ColumnFootprint {
	out := make([]ColumnFootprint, len(t.Columns))
	for i, c := range t.Columns {
		vec := &t.vecs[i]
		fp := ColumnFootprint{
			Column:      c.Name,
			Type:        c.Type,
			Rows:        vec.n,
			Nulls:       vec.nullCount,
			VectorBytes: vec.vectorBytes(),
		}
		if vec.dict != nil {
			fp.DictEntries = vec.dict.Size()
			fp.DictBytes = vec.dict.Bytes()
		}
		out[i] = fp
	}
	return out
}

// TableFootprint aggregates one table's columnar storage cost.
type TableFootprint struct {
	Table       string
	Rows        int
	VectorBytes int64
	DictBytes   int64
	Columns     []ColumnFootprint
}

// Footprint reports per-table columnar storage statistics for the whole
// database, in schema order.
func (d *Database) Footprint() []TableFootprint {
	out := make([]TableFootprint, 0, len(d.Schema.Tables))
	for _, t := range d.Schema.Tables {
		tf := TableFootprint{Table: t.Name, Rows: t.NumRows(), Columns: t.Footprint()}
		for _, cf := range tf.Columns {
			tf.VectorBytes += cf.VectorBytes
			tf.DictBytes += cf.DictBytes
		}
		out = append(out, tf)
	}
	return out
}

// sortFloats sorts and deduplicates distinct numeric values.
func sortFloats(set map[float64]struct{}) []float64 {
	out := make([]float64, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Float64s(out)
	return out
}

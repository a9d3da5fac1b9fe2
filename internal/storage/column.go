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
	// blob, when non-empty, is the concatenation of strs in code order — the
	// segment loader slices a bulk-adopted dictionary out of one backing
	// string and records it here, letting columnFingerprint fold the whole
	// dictionary as a word stream instead of string by string. Cleared the
	// moment strs diverges from it (intern appending a new entry).
	blob string
	// mapOnce gates the lazy build of codes: a bulk dictionary adoption
	// (appendBulk) leaves the map nil so loading never pays for hashing,
	// and the first intern or Lookup builds it from strs exactly once.
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
// distinct non-null value count, since entries are never removed.
func (d *Dict) Size() int { return len(d.strs) }

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

	// sealedWords is the null-bitmap length at the last epoch publication
	// (epoch.go): snapshot readers share nulls[:sealedWords], so setting a
	// null bit inside that prefix — only ever possible in the partially
	// filled boundary word — must copy the bitmap first (cowNulls). Zero
	// means no published snapshot shares the bitmap.
	sealedWords int
}

// cowNulls makes the null bitmap safe to mutate in place at row ri. Value
// and code appends only ever write past the published lengths, but a null
// bit for a new row can land in a published epoch's partially filled last
// word. The first such write after a publication copies the bitmap once
// (O(rows/64), amortised over all subsequent appends); vectors never
// captured in a snapshot pay nothing.
func (v *ColumnVec) cowNulls(ri int) {
	if v.sealedWords > 0 && ri>>6 < v.sealedWords {
		v.nulls = append(make([]uint64, 0, cap(v.nulls)), v.nulls...)
		v.sealedWords = 0
	}
}

// Type returns the column's declared type.
func (v *ColumnVec) Type() sqlir.Type { return v.typ }

// Len returns the row count.
func (v *ColumnVec) Len() int { return v.n }

// NullCount returns the number of NULL rows.
func (v *ColumnVec) NullCount() int { return v.nullCount }

// IsNull reports whether row i is NULL.
func (v *ColumnVec) IsNull(i int) bool {
	return v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
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
// checked against the column type by Insert.
func (v *ColumnVec) appendValue(val sqlir.Value) {
	i := v.n
	v.n++
	if i>>6 >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	if val.IsNull() {
		v.cowNulls(i)
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
		if v.dict == nil {
			v.dict = &Dict{}
		}
		v.codes = append(v.codes, v.dict.intern(val.Text))
	}
}

// RawNums returns the numeric value slice (nil for text columns). NULL rows
// hold a zero placeholder; consult the null bitmap. The slice is the
// vector's live backing storage — callers must treat it as read-only. The
// segment store serializes columns from this without per-row calls.
func (v *ColumnVec) RawNums() []float64 { return v.nums }

// RawCodes returns the dictionary-code slice (nil for numeric columns).
// NULL rows hold a zero placeholder. Read-only, like RawNums.
func (v *ColumnVec) RawCodes() []uint32 { return v.codes }

// RawNullWords returns the null bitmap as 64-bit words (bit i of word i/64
// set = row i is NULL; trailing bits of the last word are zero). Read-only,
// like RawNums.
func (v *ColumnVec) RawNullWords() []uint64 { return v.nulls }

// vectorBytes estimates the vector's memory footprint excluding the
// dictionary (reported separately).
func (v *ColumnVec) vectorBytes() int64 {
	return int64(len(v.nums))*8 + int64(len(v.codes))*4 + int64(len(v.nulls))*8
}

// CodeIndex is a typed posting-list index over one column — the only index
// the storage engine has: numeric columns key postings by float value, text
// columns by dictionary code (a dense slice, not a map). Columns whose
// non-null values are all integers in a compact range — the FK/PK id
// columns every join probes — get a dense array index instead of a hash
// map, so a join probe is an array load rather than a float hash. Posting
// lists preserve row order. Built lazily; a live table drops its indexes on
// Insert, a frozen epoch table keeps them for its lifetime, and a new
// epoch's table extends its predecessor's (extendFrom). Every accessor
// returns a list capped at its length, so no caller can append into
// capacity a successor epoch's index may be using.
type CodeIndex struct {
	once sync.Once
	vec  *ColumnVec
	num  map[float64][]int32 // numeric columns; ±0 collapse like Value.Equal
	text [][]int32           // text columns: postings[code]

	// dense array index for compact integer columns: postings for value v
	// live at dense[int(v)-off]. nil when the column is not dense.
	dense [][]int32
	off   int

	// ready flips after the build completes; Table.adoptBase only extends
	// ready indexes so it never races an in-flight build on the
	// still-serving base table.
	ready atomic.Bool
}

// capped returns list with no spare capacity: appending to it reallocates.
func capped(list []int32) []int32 { return list[:len(list):len(list)] }

// Num returns the posting list for a float value (nil when absent).
func (ix *CodeIndex) Num(f float64) []int32 {
	if ix.dense != nil {
		if f != math.Trunc(f) || f < float64(ix.off) || f >= float64(ix.off+len(ix.dense)) {
			return nil
		}
		return capped(ix.dense[int(f)-ix.off])
	}
	return capped(ix.num[f])
}

// Text returns the posting list for a dictionary code (nil when out of
// range: a code interned after the index was built has no rows in the
// index's table — a live table drops the index on Insert, and a frozen
// table's dictionary never grows).
func (ix *CodeIndex) Text(code uint32) []int32 {
	if int(code) >= len(ix.text) {
		return nil
	}
	return capped(ix.text[code])
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

func (ix *CodeIndex) build() {
	vec := ix.vec
	switch vec.typ {
	case sqlir.TypeNumber:
		if ix.buildDense() {
			return
		}
		ix.num = make(map[float64][]int32, vec.n-vec.nullCount)
		for i := 0; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			ix.num[vec.nums[i]] = append(ix.num[vec.nums[i]], int32(i))
		}
	case sqlir.TypeText:
		size := 0
		if vec.dict != nil {
			size = vec.dict.Size()
		}
		ix.text = make([][]int32, size)
		for i := 0; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			c := vec.codes[i]
			ix.text[c] = append(ix.text[c], int32(i))
		}
	}
}

// extendFrom populates the index from the previous epoch's ready index over
// the same column: the outer table (dense slots, value map or code slice) is
// copied, the posting lists are shared, and only rows [baseN, vec.n) are
// scanned and appended. An epoch boundary therefore costs O(distinct keys +
// delta) per index, and a posting list is copied only when an append finds
// it full. Reports false when the delta cannot keep the base's dense layout —
// a non-integer or out-of-range value would shift every slot — in which case
// the caller falls back to a full lazy build.
//
// Appending into the base's spare capacity is safe because of three
// invariants:
//
//  1. One successor per base. publishLocked links a frozen table as the base
//     of exactly one successor view (the next publication that captures the
//     table), and the successor's adoptOnce runs extendFrom once, so no two
//     indexes ever append into the same spare capacity.
//  2. Readers stop at their own length. The base index's slice headers are
//     never rewritten; its readers see rows [0, len) and the successor
//     writes only past that, into memory no base reader can reach.
//  3. Nobody else appends. Num, Text, TextString and Postings return lists
//     capped at their length (capped), so a caller appending to a posting
//     list reallocates instead of writing into shared capacity.
func (ix *CodeIndex) extendFrom(base *CodeIndex, baseN int) bool {
	vec := ix.vec
	switch {
	case base.dense != nil:
		for i := baseN; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			f := vec.nums[i]
			if f != math.Trunc(f) || f < float64(base.off) || f >= float64(base.off+len(base.dense)) {
				return false
			}
		}
		ix.off = base.off
		ix.dense = slices.Clone(base.dense)
		for i := baseN; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			slot := int(vec.nums[i]) - ix.off
			ix.dense[slot] = append(ix.dense[slot], int32(i))
		}
	case base.num != nil:
		ix.num = maps.Clone(base.num)
		for i := baseN; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			ix.num[vec.nums[i]] = append(ix.num[vec.nums[i]], int32(i))
		}
	case vec.typ == sqlir.TypeText:
		size := 0
		if vec.dict != nil {
			size = vec.dict.Size()
		}
		ix.text = make([][]int32, size)
		copy(ix.text, base.text)
		for i := baseN; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			c := vec.codes[i]
			ix.text[c] = append(ix.text[c], int32(i))
		}
	default:
		return false
	}
	return true
}

// buildDense tries the array-backed layout: every non-null value must be an
// integer and the value range must stay within a small multiple of the row
// count (so id-like columns qualify and sparse ones fall back to the map).
// Reports whether the dense index was built.
func (ix *CodeIndex) buildDense() bool {
	vec := ix.vec
	nonNull := vec.n - vec.nullCount
	if nonNull == 0 {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < vec.n; i++ {
		if vec.IsNull(i) {
			continue
		}
		f := vec.nums[i]
		if f != math.Trunc(f) || math.Abs(f) > 1<<31 {
			return false
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	width := hi - lo + 1
	if width > float64(4*nonNull)+1024 {
		return false // sparse ids: a dense array would be mostly holes
	}
	ix.off = int(lo)
	ix.dense = make([][]int32, int(width))
	for i := 0; i < vec.n; i++ {
		if vec.IsNull(i) {
			continue
		}
		slot := int(vec.nums[i]) - ix.off
		ix.dense[slot] = append(ix.dense[slot], int32(i))
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

// CodeIndex returns the typed posting-list index of the named column —
// what the streaming pipeline's seeds and join probes read — extended from
// the previous epoch's when the table adopted one (adoptBase), else built
// lazily, and memoized until the next Insert.
func (t *Table) CodeIndex(col string) (*CodeIndex, error) {
	ci := t.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	t.adoptBase()
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
	ix.once.Do(ix.build)
	ix.ready.Store(true)
	return ix, nil
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

// Bulk ingestion: append many rows as typed column vectors in one call.
// The per-row Insert path pays, for every row, an arity/type check loop, one
// mutex round-trip to invalidate the lazy indexes, and one atomic generation
// bump. At load-generation scales (10k–1M rows, internal/loadgen) that
// overhead dominates; BulkAppend amortises all of it to one validation pass,
// one index invalidation, and one generation bump per batch.
package storage

import (
	"fmt"
	"math"
	"slices"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// ColumnData is one column's bulk payload for BulkAppend. Numeric columns
// set Nums. Text columns set either Texts (plain strings, interned value by
// value) or the dictionary-encoded pair Codes+Dict (each row is an index
// into Dict) — the natural output of columnar generators and by far the
// fastest ingest form: a fresh column adopts the referenced dictionary
// entries without any hashing. Dict entries never referenced by a non-NULL
// row are not interned, and codes are assigned in first-appearance row
// order, so a bulk-loaded column is byte-identical to the same data
// inserted row by row.
//
// Dict entries must be pairwise distinct — a dictionary is a code table,
// and a duplicate entry would make code-keyed equality unsound. BulkAppend
// rejects duplicates during validation (a fingerprint-set scan of Dict,
// far cheaper than interning every row), and the lazily built lookup map
// re-checks the invariant as a backstop.
//
// Nulls (if non-nil) marks NULL rows — the value slot of a NULL row is
// ignored and stored as the zero placeholder, exactly as Insert stores
// NULLs; a NaN in Nums is stored as NULL too.
type ColumnData struct {
	Nums  []float64
	Texts []string
	Codes []uint32
	Dict  []string
	Nulls []bool
}

// IsNull reports whether payload row i is NULL.
func (c ColumnData) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// rows returns the payload length and whether the payload matches the
// declared column type.
func (c ColumnData) rows(typ sqlir.Type) (int, bool) {
	switch typ {
	case sqlir.TypeNumber:
		return len(c.Nums), c.Texts == nil && c.Codes == nil
	case sqlir.TypeText:
		if c.Codes != nil {
			return len(c.Codes), c.Nums == nil && c.Texts == nil
		}
		return len(c.Texts), c.Nums == nil
	default:
		return 0, false
	}
}

// BulkAppend appends one batch of rows given column-wise. All columns must
// be present, typed correctly, and equally long. The lazy indexes are
// invalidated once and the table generation moves once — so downstream
// caches see one change, not n.
//
// On validation error nothing is appended. Like Insert, BulkAppend must not
// run concurrently with queries on the same table.
func (t *Table) BulkAppend(cols []ColumnData) error {
	if t.frozen {
		return fmt.Errorf("storage: table %s: cannot append to a frozen snapshot", t.Name)
	}
	if len(cols) != len(t.Columns) {
		return fmt.Errorf("storage: table %s: bulk append has %d columns, want %d", t.Name, len(cols), len(t.Columns))
	}
	n := -1
	for i, c := range cols {
		cn, ok := c.rows(t.Columns[i].Type)
		if !ok {
			return fmt.Errorf("storage: table %s column %s: bulk payload does not match type %s",
				t.Name, t.Columns[i].Name, t.Columns[i].Type)
		}
		if c.Nulls != nil && len(c.Nulls) != cn {
			return fmt.Errorf("storage: table %s column %s: %d null flags for %d values",
				t.Name, t.Columns[i].Name, len(c.Nulls), cn)
		}
		if n < 0 {
			n = cn
		} else if cn != n {
			return fmt.Errorf("storage: table %s column %s: %d values, other columns have %d",
				t.Name, t.Columns[i].Name, cn, n)
		}
		if c.Codes != nil {
			for ri, code := range c.Codes {
				if !c.IsNull(ri) && int(code) >= len(c.Dict) {
					return fmt.Errorf("storage: table %s column %s: row %d code %d out of dictionary range %d",
						t.Name, t.Columns[i].Name, ri, code, len(c.Dict))
				}
			}
			// Adoption (fresh column) cannot dedupe, so reject duplicate
			// dictionary entries here, at ingest, instead of letting the
			// lazily built lookup map discover them mid-query.
			if t.vecs[i].dict == nil {
				if s, dup := duplicateDictEntry(c.Dict); dup {
					return fmt.Errorf("storage: table %s column %s: duplicate dictionary entry %q",
						t.Name, t.Columns[i].Name, s)
				}
			}
		}
	}
	if n <= 0 {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("storage: table %s: bulk append with no columns", t.Name)
	}

	for ci := range cols {
		t.vecs[ci].appendBulk(cols[ci], n)
	}
	t.rowsChanged()
	return nil
}

// duplicateDictEntry reports whether a bulk dictionary holds the same
// string twice, returning the offending entry. The scan keys a set by
// 64-bit FNV-1a fingerprints — an integer-keyed map, several times cheaper
// than hashing the strings into a string-keyed set — and only on a
// fingerprint collision between *distinct* strings (probability ~n²/2⁶⁴)
// falls back to an exact string-set pass.
func duplicateDictEntry(dict []string) (string, bool) {
	seen := make(map[uint64]uint32, len(dict))
	for j, s := range dict {
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for k := 0; k < len(s); k++ {
			h = (h ^ uint64(s[k])) * 1099511628211
		}
		if prev, ok := seen[h]; ok {
			if dict[prev] == s {
				return s, true
			}
			// Distinct strings sharing a 64-bit fingerprint: resolve
			// exactly, once, for the whole dictionary.
			set := make(map[string]struct{}, len(dict))
			for _, s2 := range dict {
				if _, dup := set[s2]; dup {
					return s2, true
				}
				set[s2] = struct{}{}
			}
			return "", false
		}
		seen[h] = uint32(j)
	}
	return "", false
}

// appendBulk extends the vector by n rows from one bulk payload. The
// payload has already been validated against the column type.
func (v *ColumnVec) appendBulk(c ColumnData, n int) {
	base := v.n
	v.n += n
	for (v.n+63)>>6 > len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	switch v.typ {
	case sqlir.TypeNumber:
		v.nums = append(v.nums, c.Nums...)
		// A NaN is stored as NULL, as Insert stores it.
		for i := 0; i < n; i++ {
			if ri := base + i; c.IsNull(i) || math.IsNaN(v.nums[ri]) {
				v.nulls[ri>>6] |= 1 << (uint(ri) & 63)
				v.nullCount++
				v.nums[ri] = 0
			}
		}
	case sqlir.TypeText:
		v.codes = slices.Grow(v.codes, n)
		if c.Codes != nil {
			v.appendCodes(c, base)
			return
		}
		if v.dict == nil {
			v.dict = &Dict{}
		}
		for i, s := range c.Texts {
			if c.IsNull(i) {
				ri := base + i
				v.nulls[ri>>6] |= 1 << (uint(ri) & 63)
				v.nullCount++
				v.codes = append(v.codes, 0)
				continue
			}
			v.codes = append(v.codes, v.dict.intern(s))
		}
	}
}

// appendCodes ingests a dictionary-encoded text payload. Codes are
// translated through a dense array (payload code → column code + 1), so
// repeated values cost an array load. On a fresh column the referenced
// dictionary entries are adopted in first-appearance order without any
// hashing — the column's lookup map is built lazily on first use — which is
// what makes dictionary-encoded bulk ingest so much cheaper than per-row
// interning. On a column that already holds a dictionary, each distinct
// payload entry is interned once.
func (v *ColumnVec) appendCodes(c ColumnData, base int) {
	adopt := v.dict == nil
	if adopt {
		v.dict = &Dict{strs: make([]string, 0, len(c.Dict))}
	}
	d := v.dict
	mapping := make([]uint32, len(c.Dict))
	for i, code := range c.Codes {
		if c.IsNull(i) {
			ri := base + i
			v.nulls[ri>>6] |= 1 << (uint(ri) & 63)
			v.nullCount++
			v.codes = append(v.codes, 0)
			continue
		}
		m := mapping[code]
		if m == 0 {
			if adopt {
				d.strs = append(d.strs, c.Dict[code])
				m = uint32(len(d.strs))
			} else {
				m = d.intern(c.Dict[code]) + 1
			}
			mapping[code] = m
		}
		v.codes = append(v.codes, m-1)
	}
}

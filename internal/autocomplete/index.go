// Package autocomplete implements the paper's autocomplete server (§4): a
// master inverted column index [16] over every text column in the database.
// Typing a double-quote in the front-end searches this index so users can
// tag literal values in the NLQ and fill TSQ cells without schema knowledge.
package autocomplete

import (
	"sort"
	"strings"

	"github.com/duoquest/duoquest/internal/storage"
)

// Hit is one autocomplete suggestion: a stored text value and the column it
// occurs in.
type Hit struct {
	Value  string
	Table  string
	Column string
}

// entry is an indexed value with its pre-computed fold.
type entry struct {
	folded string
	hit    Hit
}

// Index is an in-memory inverted column index supporting case-insensitive
// prefix and token-prefix lookups over all text columns.
type Index struct {
	// byPrefix is sorted by folded value for whole-value prefix scans.
	byPrefix []entry
	// byToken maps each word token to the entries containing it.
	byToken map[string][]int
	size    int
}

// Build indexes every distinct value of every text column in the database.
// The entries come straight from the storage engine's per-column string
// dictionaries: an interned dictionary holds exactly the column's distinct
// non-null values, so the build reads each value once instead of scanning
// and de-duplicating rows.
func Build(db *storage.Database) *Index {
	idx := &Index{byToken: map[string][]int{}}
	for _, col := range db.Schema.TextColumns() {
		t := db.Schema.TableAt(col.Table())
		vec := t.VectorAt(col.Column())
		if vec.Dict() == nil {
			continue
		}
		for _, s := range vec.Dict().Strings() {
			if s == "" {
				continue
			}
			idx.byPrefix = append(idx.byPrefix, entry{
				folded: strings.ToLower(s),
				hit:    Hit{Value: s, Table: t.Name, Column: t.Columns[col.Column()].Name},
			})
		}
	}
	sort.Slice(idx.byPrefix, func(i, j int) bool {
		if idx.byPrefix[i].folded != idx.byPrefix[j].folded {
			return idx.byPrefix[i].folded < idx.byPrefix[j].folded
		}
		if idx.byPrefix[i].hit.Table != idx.byPrefix[j].hit.Table {
			return idx.byPrefix[i].hit.Table < idx.byPrefix[j].hit.Table
		}
		if idx.byPrefix[i].hit.Column != idx.byPrefix[j].hit.Column {
			return idx.byPrefix[i].hit.Column < idx.byPrefix[j].hit.Column
		}
		// Case-variant values share a fold within one column; break the tie
		// on the stored value so the order is fully deterministic.
		return idx.byPrefix[i].hit.Value < idx.byPrefix[j].hit.Value
	})
	for i, e := range idx.byPrefix {
		for _, tok := range strings.Fields(e.folded) {
			idx.byToken[tok] = append(idx.byToken[tok], i)
		}
	}
	idx.size = len(idx.byPrefix)
	return idx
}

// Size returns the number of indexed (value, column) pairs.
func (idx *Index) Size() int { return idx.size }

// Complete returns up to max suggestions for a query prefix, preferring
// whole-value prefix matches, then token-prefix matches ("gump" finds
// "Forrest Gump"). Results are deterministic.
func (idx *Index) Complete(q string, max int) []Hit {
	if max <= 0 {
		max = 10
	}
	q = strings.ToLower(strings.TrimSpace(q))
	if q == "" {
		return nil
	}
	var out []Hit
	seen := map[Hit]bool{}
	add := func(h Hit) bool {
		if seen[h] {
			return len(out) < max
		}
		seen[h] = true
		out = append(out, h)
		return len(out) < max
	}
	// Whole-value prefix scan via binary search.
	lo := sort.Search(len(idx.byPrefix), func(i int) bool {
		return idx.byPrefix[i].folded >= q
	})
	for i := lo; i < len(idx.byPrefix) && strings.HasPrefix(idx.byPrefix[i].folded, q); i++ {
		if !add(idx.byPrefix[i].hit) {
			return out
		}
	}
	// Token prefix matches, in token order for determinism.
	var toks []string
	for tok := range idx.byToken {
		if strings.HasPrefix(tok, q) {
			toks = append(toks, tok)
		}
	}
	sort.Strings(toks)
	for _, tok := range toks {
		for _, i := range idx.byToken[tok] {
			if !add(idx.byPrefix[i].hit) {
				return out
			}
		}
	}
	return out
}

// Lookup reports whether the exact value (case-insensitive) is stored in any
// text column, returning the matching columns. The front-end uses this to
// validate tagged literals.
func (idx *Index) Lookup(value string) []Hit {
	q := strings.ToLower(value)
	lo := sort.Search(len(idx.byPrefix), func(i int) bool {
		return idx.byPrefix[i].folded >= q
	})
	var out []Hit
	for i := lo; i < len(idx.byPrefix) && idx.byPrefix[i].folded == q; i++ {
		out = append(out, idx.byPrefix[i].hit)
	}
	return out
}

// Fixed-size hashed memo keys. The column-wise and row-wise verification
// memos key on 128-bit digests of an injective serialization of the
// memoized question, mixed a 64-bit word at a time: identifiers and text
// literals go in eight bytes per step behind a length prefix, everything
// else as one tagged word. (Looking a precomputed per-identifier digest up
// in a map would hash the identifier's bytes too, so the bytes are mixed
// directly.) A lookup allocates nothing. keys_test.go checks that the keys
// partition questions exactly as their canonical strings do.
package verify

import (
	"math"
	"math/bits"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// memoKey is a fixed-size memo key. The 128-bit width makes accidental
// collisions astronomically unlikely even across the billions of probes of
// a long-lived service.
type memoKey [2]uint64

// hash128 is two independent 64-bit multiplicative lanes fed the same
// words. Each step is a bijection of a lane's state for a fixed word and of
// the word for a fixed state, so two serializations that differ in one word
// always differ in both lanes.
type hash128 struct {
	a, b uint64
}

func newHash128() hash128 {
	return hash128{a: 0x6c62272e07bb0142, b: 0x62b821756295c58d}
}

func (h *hash128) word(w uint64) {
	h.a = (bits.RotateLeft64(h.a, 5) ^ w) * 0x9e3779b97f4a7c15
	h.b = (h.b ^ bits.RotateLeft64(w, 32)) * 0xc2b2ae3d27d4eb4f
	h.b ^= h.b >> 29
}

// str mixes a length-prefixed string, eight bytes per word, the tail
// zero-padded (the length disambiguates the padding).
func (h *hash128) str(s string) {
	h.word(uint64(len(s)))
	for len(s) >= 8 {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
	}
}

// value mixes a value behind a kind tag; numbers mix their bits (-0
// normalized, matching Value.Equal).
func (h *hash128) value(v sqlir.Value) {
	switch v.Kind {
	case sqlir.KindText:
		h.word('t')
		h.str(v.Text)
	case sqlir.KindNumber:
		f := v.Num
		if f == 0 {
			f = 0
		}
		h.word('n')
		h.word(math.Float64bits(f))
	default:
		h.word('z')
	}
}

func (h *hash128) columnRef(c sqlir.ColumnRef) {
	h.str(c.Table)
	h.str(c.Column)
}

func (h *hash128) predicates(ps []sqlir.Predicate) {
	h.word(uint64(len(ps)))
	for _, p := range ps {
		h.columnRef(p.Col)
		h.word(uint64(p.Op))
		h.value(p.Val)
	}
}

// fmix64 is the MurmurHash3 finalizer: full avalanche over one lane.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (h *hash128) sum() memoKey {
	return memoKey{fmix64(h.a), fmix64(h.b ^ bits.RotateLeft64(h.a, 32))}
}

// existsKey hashes an exists query into a memo key, covering every field:
// join path, connective, predicates, and-preds, group-by columns, and having
// conditions — every field length-prefixed or tagged so the serialization is
// injective.
func existsKey(eq sqlexec.ExistsQuery) memoKey {
	h := newHash128()
	if eq.From != nil {
		h.word(uint64(len(eq.From.Tables)))
		for _, t := range eq.From.Tables {
			h.str(t)
		}
		h.word(uint64(len(eq.From.Edges)))
		for _, e := range eq.From.Edges {
			h.str(e.FromTable)
			h.str(e.FromColumn)
			h.str(e.ToTable)
			h.str(e.ToColumn)
		}
	}
	h.word('|')
	h.word(uint64(eq.Conj))
	h.predicates(eq.Preds)
	h.predicates(eq.AndPreds)
	h.word(uint64(len(eq.GroupBy)))
	for _, g := range eq.GroupBy {
		h.columnRef(g)
	}
	h.word(uint64(len(eq.Havings)))
	for _, hv := range eq.Havings {
		h.word(uint64(hv.Agg))
		h.columnRef(hv.Col)
		h.word(uint64(hv.Op))
		h.value(hv.Val)
	}
	return h.sum()
}

// columnCellKey hashes one column-wise check question: (is this the AVG
// range check, column, cell).
func columnCellKey(avg bool, col sqlir.ColumnRef, cell tsq.Cell) memoKey {
	h := newHash128()
	if avg {
		h.word(1)
	} else {
		h.word(0)
	}
	h.columnRef(col)
	h.word(uint64(cell.Kind))
	h.value(cell.Val)
	h.value(cell.Lo)
	h.value(cell.Hi)
	return h.sum()
}

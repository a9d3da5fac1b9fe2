// Fixed-size hashed memo keys. The column-wise and row-wise verification
// memos key on 128-bit digests of an injective serialization of the
// memoized question, mixed a 64-bit word at a time: tables and columns as
// their catalog ordinals (a Cache serves one catalog), text literals eight
// bytes per step behind a length prefix, everything else as one tagged
// word. A lookup allocates nothing. keys_test.go checks that the keys
// partition questions exactly as their canonical strings do.
package verify

import (
	"math"
	"math/bits"

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

// columnRef mixes a column's ordinals (* is column -1).
func (h *hash128) columnRef(c sqlir.ColumnRef) {
	h.word(uint64(c.Table()))
	h.word(uint64(c.Column()))
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

// key is the memo key of the question rq.build(tp), hashed from q and tp in
// place without building the question. It covers every field of the
// question, each length-prefixed or tagged so the serialization is
// injective: the join path (its root and its oriented edges by catalog
// ordinals; the direction an edge was written in does not change the
// question), connective, predicates, and-preds, group-by columns and
// having conditions. rq holds tp's shape, and q has a join path
// (canCheckRows).
func (rq *rowQuestion) key(tp tsq.Tuple) memoKey {
	q := rq.q
	h := newHash128()
	h.word(uint64(q.From.Tables()[0]))
	h.word(uint64(len(q.From.Edges())))
	for _, e := range q.From.Edges() {
		h.word(uint64(e.Joined.Table()))
		h.word(uint64(e.Joined.Column()))
		h.word(uint64(e.New.Table()))
		h.word(uint64(e.New.Column()))
	}
	h.word('|')
	h.word(uint64(rq.conj))
	// Preds: the decided WHERE predicates, when sound.
	decided := 0
	if rq.sound {
		for _, p := range q.Where.Preds {
			if p.Complete() {
				decided++
			}
		}
	}
	h.word(uint64(decided))
	for _, p := range q.Where.Preds {
		if decided > 0 && p.Complete() {
			h.columnRef(p.Col)
			h.word(uint64(p.Op))
			h.value(p.Val)
		}
	}
	// AndPreds: the plain projections' cell bounds.
	h.word(uint64(rq.and))
	for i := range q.Select {
		if s, cell, ok := rq.constraint(i, tp); ok && s.Agg == sqlir.AggNone {
			ops, vals, n := cellBounds(cell)
			for j := range n {
				h.columnRef(s.Col)
				h.word(uint64(ops[j]))
				h.value(vals[j])
			}
		}
	}
	if q.GroupByState == sqlir.ClausePresent {
		h.word(uint64(len(q.GroupBy)))
		for _, g := range q.GroupBy {
			h.columnRef(g)
		}
	} else {
		h.word(0)
	}
	// Havings: q's own, then the aggregates' cell bounds.
	h.word(uint64(rq.havings))
	if rq.having {
		hv := q.Having
		h.word(uint64(hv.Agg))
		h.columnRef(hv.Col)
		h.word(uint64(hv.Op))
		h.value(hv.Val)
	}
	for i := range q.Select {
		if s, cell, ok := rq.constraint(i, tp); ok && s.Agg != sqlir.AggNone {
			ops, vals, n := cellBounds(cell)
			for j := range n {
				h.word(uint64(s.Agg))
				h.columnRef(s.Col)
				h.word(uint64(ops[j]))
				h.value(vals[j])
			}
		}
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

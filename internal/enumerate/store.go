package enumerate

import (
	"sync"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// store holds the query of every state a search expanded, the base its
// queued children are rebuilt from: a child is its base plus its own
// decision (§3.3), so popping it costs one Scratch.Apply whatever its depth.
// A kept query is a header and the one slice or clause its decision wrote;
// everything else it shares with its own base, which the store holds too.
// Nothing writes a kept query after keep returns.
//
// Each piece lives in a slab of fixed-size chunks, so a keep allocates only
// when a slab needs a chunk its store never had. A search takes its store
// from storePool and puts it back when it is done (release), every element
// it used zeroed first: a store keeps its chunks from search to search, and
// what the pool retains is bounded by the peak of the stores live at once.
type store struct {
	headers slab[sqlir.Query]
	sel     slab[sqlir.SelectItem]
	preds   slab[sqlir.Predicate]
	groupBy slab[sqlir.ColumnRef]
	having  slab[sqlir.HavingExpr]
	orderBy slab[sqlir.OrderBy]
}

var storePool = sync.Pool{New: func() any { return new(store) }}

// keep copies q, the query of a state about to be expanded, into the store
// and returns the copy. base is the kept query q was built from by one
// decision, nil for the root's zero query, which holds no slice or clause:
// what q shares with base the copy shares too, and only what q's decision
// wrote, in the scratch q was built in, is copied.
func (k *store) keep(q, base *sqlir.Query) *sqlir.Query {
	h := &k.headers.take(1)[0]
	*h = *q
	if base == nil {
		return h
	}
	h.Select = keepSlice(&k.sel, q.Select, base.Select)
	h.Where.Preds = keepSlice(&k.preds, q.Where.Preds, base.Where.Preds)
	h.GroupBy = keepSlice(&k.groupBy, q.GroupBy, base.GroupBy)
	h.Having = keepClause(&k.having, q.Having, base.Having)
	h.OrderBy = keepClause(&k.orderBy, q.OrderBy, base.OrderBy)
	return h
}

// keepSlice returns x as a kept query holds it: nil when empty, as a
// derivation builds it; base's own when x is base's; else a copy in s.
func keepSlice[T any](s *slab[T], x, base []T) []T {
	switch {
	case len(x) == 0:
		return nil
	case len(x) == len(base) && &x[0] == &base[0]:
		return x
	}
	c := s.take(len(x))
	copy(c, x)
	return c
}

// keepClause returns x as a kept query holds it: base's own when x is
// base's, else a copy in s.
func keepClause[T any](s *slab[T], x, base *T) *T {
	if x == nil || x == base {
		return x
	}
	c := &s.take(1)[0]
	*c = *x
	return c
}

// release zeroes what the store handed out and returns it to storePool.
func (k *store) release() {
	k.headers.reset()
	k.sel.reset()
	k.preds.reset()
	k.groupBy.reset()
	k.having.reset()
	k.orderBy.reset()
	storePool.Put(k)
}

// slabLen elements make one chunk of a slab.
const slabLen = 128

// slab hands out runs of elements from fixed-size chunks, never moving one.
type slab[T any] struct {
	chunks []*[slabLen]T
	n, off int // the chunks in use, and the elements handed out of the last
}

// take returns n zero elements that nothing else holds, capped at n.
func (s *slab[T]) take(n int) []T {
	if n > slabLen {
		return make([]T, n) // more slots than a chunk holds: a model may ask for them
	}
	if s.n == 0 || s.off+n > slabLen {
		if s.n == len(s.chunks) {
			s.chunks = append(s.chunks, new([slabLen]T))
		}
		s.n, s.off = s.n+1, 0
	}
	c := s.chunks[s.n-1][s.off : s.off+n : s.off+n]
	s.off += n
	return c
}

// reset zeroes every element handed out and keeps the chunks for reuse.
func (s *slab[T]) reset() {
	for i, c := range s.chunks[:s.n] {
		if i == s.n-1 {
			clear(c[:s.off])
		} else {
			clear(c[:])
		}
	}
	s.n, s.off = 0, 0
}

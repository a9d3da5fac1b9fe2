package enumerate

import "sync"

// frontier is the priority collection P of Algorithm 1: a binary heap of
// entries held by value. Its storage is a list of fixed-size chunks rather
// than one slice, so growing it never copies what is already queued — and
// the chunks come from chunkPool and go back to it when the search is done
// (release), so a search reuses the storage of searches before it instead of
// allocating its peak frontier afresh.
type frontier struct {
	chunks  []*[chunkLen]entry
	n       int
	noGuide bool // breadth-first: depth, then arrival
	geoMean bool // order by the geometric mean of the module scores
	// dropped records that bound discarded entries: the search can then no
	// longer claim to have exhausted the space.
	dropped bool
}

// chunkLen entries make one chunk (about 10 KB).
const chunkLen = 128

// chunkPool holds the chunks of finished searches, every slot zero. What it
// retains is bounded by the peak of the frontiers live at once, and is freed
// by the second garbage collection that finds it unused.
var chunkPool = sync.Pool{New: func() any { return new([chunkLen]entry) }}

func (f *frontier) len() int { return f.n }

func (f *frontier) at(i int) *entry { return &f.chunks[i/chunkLen][i%chunkLen] }

// priority returns the best-first key for an entry.
func (f *frontier) priority(e *entry) float64 {
	if f.geoMean && e.depth > 0 {
		return e.logConf / float64(e.depth)
	}
	return e.logConf
}

// less is the search's total order: seq is unique, so no two entries tie.
func (f *frontier) less(a, b *entry) bool {
	if f.noGuide {
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.seq < b.seq
	}
	pa, pb := f.priority(a), f.priority(b)
	if pa != pb {
		return pa > pb
	}
	if a.joinLen != b.joinLen {
		return a.joinLen < b.joinLen
	}
	return a.seq < b.seq
}

func (f *frontier) push(e entry) {
	if f.n == len(f.chunks)*chunkLen {
		f.chunks = append(f.chunks, chunkPool.Get().(*[chunkLen]entry))
	}
	f.n++
	f.up(f.n-1, e)
}

// release empties the frontier and returns its chunks to chunkPool. The
// queued entries are zeroed first, so no query outlives its search in the
// pool; every other slot is zero already (pop and bound clear what they
// vacate).
func (f *frontier) release() {
	for i := range f.n {
		*f.at(i) = entry{}
	}
	for _, c := range f.chunks {
		chunkPool.Put(c)
	}
	f.chunks, f.n = nil, 0
}

// pop removes and returns the best entry.
func (f *frontier) pop() entry {
	top := *f.at(0)
	f.n--
	last := f.at(f.n)
	e := *last
	*last = entry{} // the vacated slot must not keep a query alive
	if f.n > 0 {
		f.down(0, e)
	}
	return top
}

// up places e at i or above, moving worse ancestors down into the hole.
func (f *frontier) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(&e, f.at(parent)) {
			break
		}
		*f.at(i) = *f.at(parent)
		i = parent
	}
	*f.at(i) = e
}

// down places e at i or below, moving better descendants up into the hole.
func (f *frontier) down(i int, e entry) {
	for {
		kid := 2*i + 1
		if kid >= f.n {
			break
		}
		if kid+1 < f.n && f.less(f.at(kid+1), f.at(kid)) {
			kid++
		}
		if !f.less(f.at(kid), &e) {
			break
		}
		*f.at(i) = *f.at(kid)
		i = kid
	}
	*f.at(i) = e
}

// bound tells the frontier that at most k more entries will ever be popped.
// Only the k best queued now can be among them — whatever is pushed later
// pushes the rest further back — so once the frontier holds more than twice
// that, the rest is dropped: what a capped search retains is bounded by its
// cap, not by its branching factor, and the pops are exactly those of an
// unbounded frontier.
func (f *frontier) bound(k int) {
	if f.n <= 2*k {
		return
	}
	if k > 0 {
		f.selectBest(k)
	}
	for i := k; i < f.n; i++ {
		*f.at(i) = entry{}
	}
	f.n = k
	f.dropped = true
	for i := k/2 - 1; i >= 0; i-- {
		f.down(i, *f.at(i))
	}
}

// selectBest reorders the entries so that the k best, 0 < k < n, come
// first: a quickselect, linear in the frontier on average.
func (f *frontier) selectBest(k int) {
	swap := func(i, j int) {
		a, b := f.at(i), f.at(j)
		*a, *b = *b, *a
	}
	lo, hi := 0, f.n-1
	for lo < hi {
		// Median of three as the pivot, parked at hi: a heap's array is
		// close to sorted, the worst case for a fixed choice.
		mid := lo + (hi-lo)/2
		if f.less(f.at(mid), f.at(lo)) {
			swap(mid, lo)
		}
		if f.less(f.at(hi), f.at(lo)) {
			swap(hi, lo)
		}
		if f.less(f.at(mid), f.at(hi)) {
			swap(mid, hi)
		}
		pivot := f.at(hi)
		p := lo
		for i := lo; i < hi; i++ {
			if f.less(f.at(i), pivot) {
				swap(i, p)
				p++
			}
		}
		swap(p, hi)
		// Entries before p are better than the one at p, those after worse.
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

package enumerate

import (
	"slices"
	"sync"
)

// frontier is the priority collection P of Algorithm 1, and the store of
// every state the search has seen. A queued state is written once, into a
// slot of fixed-size chunks, and never moves: popped, it stays in its slot
// as the node its children point at. The heap orders and moves only keys.
// The chunks come from chunkPool and the key slice from keyPool, and both go
// back when the search is done (release), so a search reuses the storage of
// searches before it instead of allocating its peak afresh.
type frontier struct {
	chunks []*[chunkLen]state
	used   int    // slots handed out, popped and dropped ones included
	free   *state // slots bound dropped, threaded through parent
	keys   []key  // the heap
	box    *[]key // keys' holder in keyPool
	// dropped records that bound discarded a state that passes: the search
	// can then no longer claim to have exhausted the space.
	dropped bool
	failed  int // owing states bound settled and found to fail

	noGuide bool // breadth-first: depth, then arrival
	geoMean bool // order by the geometric mean of the module scores
}

// key is what the heap moves for a queued state: the state is popped before
// every state whose prio is lower, or equal with a larger tie.
type key struct {
	prio float64
	tie  uint64
	st   *state
}

func (a key) before(b key) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.tie < b.tie
}

// chunkLen states make one chunk (about 9 KB).
const chunkLen = 128

// chunkPool holds the chunks of finished searches, and keyPool their key
// slices, every slot zero. What they retain is bounded by the peak of the
// frontiers live at once, and is freed by the second garbage collection that
// finds it unused.
var (
	chunkPool = sync.Pool{New: func() any { return new([chunkLen]state) }}
	keyPool   = sync.Pool{New: func() any { return new([]key) }}
)

func (f *frontier) len() int { return len(f.keys) }

// key orders st, the seq-th state to arrive, whose query joins joinLen
// tables: by confidence (its geometric mean under geoMean), then shorter
// join paths (§3.3.4), then arrival; under noGuide by depth, then arrival.
// seq is unique, so no two keys tie.
func (f *frontier) key(st *state, joinLen, seq int) key {
	k := key{st.logConf, uint64(joinLen)<<48 | uint64(seq), st}
	switch {
	case f.noGuide:
		k.prio, k.tie = -float64(st.depth), uint64(seq)
	case f.geoMean && st.depth > 0:
		k.prio /= float64(st.depth)
	}
	return k
}

// push queues st into a free slot; see key for joinLen and seq.
func (f *frontier) push(st state, joinLen, seq int) {
	slot := f.free
	if slot != nil {
		f.free = slot.parent
	} else {
		if f.used == len(f.chunks)*chunkLen {
			f.chunks = append(f.chunks, chunkPool.Get().(*[chunkLen]state))
		}
		slot = &f.chunks[f.used/chunkLen][f.used%chunkLen]
		f.used++
	}
	*slot = st
	if f.box == nil {
		f.box = keyPool.Get().(*[]key)
		f.keys = *f.box
	}
	f.keys = append(f.keys, key{})
	f.up(len(f.keys)-1, f.key(slot, joinLen, seq))
}

// release empties the frontier and returns its chunks and its key slice to
// their pools, every used slot and key zeroed first: no state of the search
// outlives it in the pool.
func (f *frontier) release() {
	for i, c := range f.chunks {
		clear(c[:min(chunkLen, f.used-i*chunkLen)])
		chunkPool.Put(c)
	}
	if f.box != nil {
		clear(f.keys[:cap(f.keys)])
		*f.box = f.keys[:0]
		keyPool.Put(f.box)
	}
	f.chunks, f.used, f.free, f.keys, f.box = nil, 0, nil, nil, nil
}

// pop removes the best state from the queue. Its slot stays its own.
func (f *frontier) pop() *state {
	top := f.keys[0].st
	n := len(f.keys) - 1
	last := f.keys[n]
	f.keys = f.keys[:n]
	if n > 0 {
		f.down(0, last)
	}
	return top
}

// up places k at i or above, moving worse ancestors down into the hole.
func (f *frontier) up(i int, k key) {
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(f.keys[parent]) {
			break
		}
		f.keys[i] = f.keys[parent]
		i = parent
	}
	f.keys[i] = k
}

// down places k at i or below, moving better descendants up into the hole.
func (f *frontier) down(i int, k key) {
	keys := f.keys
	for {
		kid := 2*i + 1
		if kid >= len(keys) {
			break
		}
		if kid+1 < len(keys) && keys[kid+1].before(keys[kid]) {
			kid++
		}
		if !keys[kid].before(k) {
			break
		}
		keys[i] = keys[kid]
		i = kid
	}
	keys[i] = k
}

// discard frees st's slot for the states pushed next.
func (f *frontier) discard(st *state) { st.parent, f.free = f.free, st }

// A settler runs the cascade a queued state owes (search.settle).
type settler interface {
	// settle runs n's cascade and reports whether n passed.
	settle(n *state) (bool, error)
}

// bound tells the frontier that at most k more states will ever be
// expanded, and only states that pass the cascade are. Only the k best
// queued now that pass can be among them — whatever is pushed later pushes
// the rest further back — so once the frontier holds more than twice k
// states, the rest is dropped and their slots freed for the states pushed
// next: what a capped search retains is bounded by its cap, not by its
// branching factor, and the expansions are exactly those of an unbounded
// frontier. To find those k, s settles the owing states among the k best,
// the ones that fail are removed, and the same is done over the shortfall
// until k pass or nothing is left. An error from s ends the bound with the
// frontier fit only for release.
func (f *frontier) bound(k int, s settler) error {
	if len(f.keys) <= 2*k {
		return nil
	}
	kept := 0 // f.keys[:kept] pass, and no other queued state that passes is better
	for kept < k && kept < len(f.keys) {
		n := min(k, len(f.keys))
		if n < len(f.keys) {
			selectBest(f.keys[kept:], n-kept)
		}
		var err error
		if kept, err = f.settle(kept, n, s); err != nil {
			return err
		}
	}
	rest := f.keys[kept:]
	if !f.dropped {
		passes, err := f.anyPasses(rest, s)
		if err != nil {
			return err
		}
		f.dropped = passes
	}
	for _, d := range rest {
		f.discard(d.st)
	}
	f.keys = f.keys[:kept]
	for i := kept/2 - 1; i >= 0; i-- {
		f.down(i, f.keys[i])
	}
	return nil
}

// settle has s settle the owing states among f.keys[lo:hi] and removes the
// ones that fail: the keys of the states that pass end at f.keys[lo:w], and
// keys from the end of the slice fill the hole behind them.
func (f *frontier) settle(lo, hi int, s settler) (w int, err error) {
	keys := f.keys
	w = lo
	for _, k := range keys[lo:hi] {
		if k.st.owes {
			ok, err := s.settle(k.st)
			if err != nil {
				return w, err
			}
			if !ok {
				f.discard(k.st)
				f.failed++
				continue
			}
		}
		keys[w] = k
		w++
	}
	hole, n := hi-w, len(keys)
	copy(keys[w:hi], keys[max(hi, n-hole):])
	f.keys = keys[:n-hole]
	return w, nil
}

// anyPasses reports whether any of the states of keys passes: a state that
// owes nothing did; the owing ones are settled only until one passes. A
// frontier that drops a state that passes can no longer claim the space was
// exhausted, and one that drops only failures still can.
func (f *frontier) anyPasses(keys []key, s settler) (bool, error) {
	if slices.ContainsFunc(keys, func(k key) bool { return !k.st.owes }) {
		return true, nil
	}
	for _, k := range keys {
		ok, err := s.settle(k.st)
		if err != nil || ok {
			return ok, err
		}
		f.failed++
	}
	return false, nil
}

// selectBest reorders keys so that the k best, 0 < k < len(keys), come
// first: a quickselect, linear in len(keys) on average.
func selectBest(keys []key, k int) {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		// Median of three as the pivot, parked at hi: a heap's array is
		// close to sorted, the worst case for a fixed choice.
		mid := lo + (hi-lo)/2
		if keys[mid].before(keys[lo]) {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi].before(keys[lo]) {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[mid].before(keys[hi]) {
			keys[mid], keys[hi] = keys[hi], keys[mid]
		}
		pivot := keys[hi]
		p := lo
		for i := lo; i < hi; i++ {
			if keys[i].before(pivot) {
				keys[i], keys[p] = keys[p], keys[i]
				p++
			}
		}
		keys[p], keys[hi] = keys[hi], keys[p]
		// Keys before p are better than the one at p, those after worse.
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

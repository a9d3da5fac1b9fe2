package enumerate

import "sync"

// frontier is the priority collection P of Algorithm 1, and the store of
// every state the search has seen. A queued state is written once, into a
// slot of fixed-size chunks, and never moves: popped, it stays in its slot
// as the node its children point at. The heap orders and moves only keys.
// The chunks come from chunkPool and the key slice from keyPool, and both go
// back when the search is done (release), so a search reuses the storage of
// searches before it instead of allocating its peak afresh.
//
// Like Algorithm 1's P it has no bound: a capped search keeps every child it
// queued. Each expansion queues at most its width of children, so a search
// of at most MaxStates expansions holds at most 1 + MaxStates × the widest
// expansion states, 96 bytes each (a 72-byte state and a 24-byte key).
// Under the default cap that allowance is large, so what bounds a served
// request's frontier is its deadline.
type frontier struct {
	chunks []*[chunkLen]state
	used   int    // slots handed out, popped ones included
	free   *state // slots of popped states that failed, threaded through parent
	keys   []key  // the heap
	box    *[]key // keys' holder in keyPool

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

// discard frees the slot of st, a popped state that failed its cascade, for
// the states pushed next.
func (f *frontier) discard(st *state) { st.parent, f.free = f.free, st }

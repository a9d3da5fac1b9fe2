package enumerate

import "sync"

// frontier is the priority collection P of Algorithm 1, and the store of
// the states it holds. A queued state is written once, into a slot of
// fixed-size chunks, and never moves; popped, it stays in its slot while the
// search expands it, and then the search hands the slot back (discard). No
// state points at another, so every popped slot is free again once its
// expansion is over, and the next pushes take freed slots first. The heap
// orders and moves only keys. The chunks come from chunkPool and the key
// slice and free list from listPool, and all go back when the search is done
// (release), so a search reuses the storage of searches before it instead of
// allocating its peak afresh.
//
// Like Algorithm 1's P it has no bound: a capped search keeps every child it
// queued. The slots in use are the queued states and the one being
// expanded, so a search holds at most 1 + the most states queued at once,
// 96 bytes each (a 72-byte state and a 24-byte key). Each expansion queues
// at most its width of children, so that is at most 1 + MaxStates × the
// widest expansion; under the default cap that allowance is large, so what
// bounds a served request's frontier is its deadline.
type frontier struct {
	chunks []*[chunkLen]state
	used   int // slots handed out, free ones included
	keys   []key
	// hole marks keys[0] as the place of the key popped last, not yet
	// filled: the next push sifts its own key down from there (replace-top)
	// and the next pop sifts the last key down, so a pop followed by a push
	// costs one sift, not two.
	hole  bool
	free  []*state // slots the search handed back, taken first
	lists *lists   // the holder of keys and free in listPool

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

// lists holds a finished frontier's key slice and free list, both empty.
type lists struct {
	keys []key
	free []*state
}

// chunkPool holds the chunks of finished searches, and listPool their key
// slices and free lists, every slot zero. What they retain is bounded by the
// peak of the frontiers live at once, and is freed by the second garbage
// collection that finds it unused.
var (
	chunkPool = sync.Pool{New: func() any { return new([chunkLen]state) }}
	listPool  = sync.Pool{New: func() any { return new(lists) }}
)

func (f *frontier) len() int {
	if f.hole {
		return len(f.keys) - 1
	}
	return len(f.keys)
}

// key orders st, the seq-th state to arrive, whose query joins joinLen
// tables: by confidence (its geometric mean under geoMean), then shorter
// join paths (§3.3.4), then arrival; under noGuide by depth, then arrival.
// seq is unique, so no two keys tie, and the order in which states are
// popped is the order of their keys, whatever the shape of the heap.
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
	var slot *state
	if n := len(f.free); n > 0 {
		slot, f.free = f.free[n-1], f.free[:n-1]
	} else {
		if f.used == len(f.chunks)*chunkLen {
			f.chunks = append(f.chunks, chunkPool.Get().(*[chunkLen]state))
		}
		slot = &f.chunks[f.used/chunkLen][f.used%chunkLen]
		f.used++
	}
	*slot = st
	k := f.key(slot, joinLen, seq)
	if f.hole {
		f.hole = false
		f.down(0, k)
		return
	}
	if f.lists == nil {
		f.lists = listPool.Get().(*lists)
		f.keys, f.free = f.lists.keys, f.lists.free
	}
	f.keys = append(f.keys, key{})
	f.up(len(f.keys)-1, k)
}

// release empties the frontier and returns its chunks, its key slice and its
// free list to their pools, every used slot, key and list entry zeroed
// first: no state of the search outlives it in the pool.
func (f *frontier) release() {
	for i, c := range f.chunks {
		clear(c[:min(chunkLen, f.used-i*chunkLen)])
		chunkPool.Put(c)
	}
	if f.lists != nil {
		clear(f.keys[:cap(f.keys)])
		clear(f.free[:cap(f.free)])
		f.lists.keys, f.lists.free = f.keys[:0], f.free[:0]
		listPool.Put(f.lists)
	}
	f.chunks, f.used, f.keys, f.hole, f.free, f.lists = nil, 0, nil, false, nil, nil
}

// pop removes the best state from the queue and leaves a hole where its key
// was. Its slot stays its own until the search discards it.
func (f *frontier) pop() *state {
	if f.hole { // a pop after a pop: the last key fills the hole
		n := len(f.keys) - 1
		last := f.keys[n]
		f.keys = f.keys[:n]
		f.down(0, last)
	}
	f.hole = true
	return f.keys[0].st
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

// discard hands back the slot of st, a popped state the search is done
// with — it failed its cascade, or its expansion is over — for the states
// pushed next.
func (f *frontier) discard(st *state) { f.free = append(f.free, st) }

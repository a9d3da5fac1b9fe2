// Content fingerprinting: one hash over the authoritative columnar state of
// a whole database. The fingerprint is the equality oracle shared by the
// loadgen determinism tests, the bulk-vs-row ingestion equivalence checks,
// and the segment store's persist→load self-check: two databases with
// byte-identical columnar state (same values, same dictionary code
// assignment, same null bitmaps) have equal fingerprints.
//
// The hash is built for that one job — detecting accidental divergence
// (ingest-path bugs, storage corruption) over millions of rows — so it
// favours throughput over cryptographic strength: values are folded a
// 64-bit word at a time through a splitmix64-style mixer, and the
// independent per-column sums are computed in parallel and then combined
// in schema order, which pins the catalog layout as well as the data.
package storage

import (
	"math"
	"runtime"
	"slices"
	"sync"
)

// mix64 is the splitmix64 finalizer: a cheap, well-dispersed 64-bit mixing
// permutation (two multiplies and three xor-shifts per word).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpSeed is the fingerprint chain's arbitrary non-zero starting state.
const fpSeed = 0x9e3779b97f4a7c15

// fpWord folds one word into a running fingerprint: one xor and one
// odd-multiplier multiply. The multiply is a bijection on uint64, so no two
// states collapse, and repeated folding diffuses every input bit upward;
// the weak low bits are repaired once by the mix64 finalizer instead of
// paying full mixing per word — the fold is on the cold-start critical
// path, where it runs once per 8 bytes of every column.
func fpWord(h, w uint64) uint64 { return (h ^ w) * 0xbf58476d1ce4e5b9 }

// fpString folds a length-prefixed string, eight bytes at a time.
func fpString(h uint64, s string) uint64 {
	return fpBytes(fpWord(h, uint64(len(s))), s)
}

// fpBytes folds raw bytes as little-endian words, the final partial word
// zero-padded.
func fpBytes(h uint64, s string) uint64 {
	for len(s) >= 8 {
		// The compiler recognises this byte assembly as a single
		// little-endian load.
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = fpWord(h, w)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * uint(i))
		}
		h = fpWord(h, w)
	}
	return h
}

// fpConcat folds the concatenation of strs exactly as fpBytes would fold
// the same bytes in one contiguous string: an 8-byte staging word is
// carried across string boundaries. It is the slow-path twin of the
// Dict.blob fast path — both must produce identical sums for the same
// concatenated content.
func fpConcat(h uint64, strs []string) uint64 {
	var w uint64
	var shift uint
	for _, s := range strs {
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << shift
			shift += 8
			if shift == 64 {
				h = fpWord(h, w)
				w, shift = 0, 0
			}
		}
	}
	if shift > 0 {
		h = fpWord(h, w)
	}
	return h
}

// lane2 is the arbitrary constant that splits a running fingerprint into a
// second independent accumulator lane.
const lane2 = 0x94d049bb133111eb

// columnFingerprint hashes one column vector: row count, dictionary
// contents in code order, the raw value words, and the null bitmap. NULL
// slots hold canonical zero placeholders in nums/codes (appendValue and
// appendBulk both enforce this), so hashing the raw arrays plus the bitmap
// distinguishes exactly the states the row-by-row definition would.
//
// Every array is folded in two interleaved accumulator lanes. fpWord's
// xor-multiply has a ~4-cycle dependency chain, so a single lane caps
// throughput at one word per 4 cycles regardless of superscalar width; two
// independent chains double it, and this function is the dominant cost of
// a segment cold start's integrity check.
func columnFingerprint(vec *ColumnVec) uint64 {
	h := uint64(fpSeed)
	h = fpWord(h, uint64(vec.typ))
	h = fpWord(h, uint64(vec.n))
	h = fpWord(h, uint64(vec.nullCount))
	if d := vec.dict; d != nil {
		// The dictionary folds as entry count, packed entry lengths, then
		// the concatenated bytes — NOT string by string, so a dictionary
		// adopted as one contiguous blob (segment loads) can take the
		// word-stream fast path while an incrementally interned one walks
		// fpConcat's staging loop to the identical sum. The lengths pin the
		// entry boundaries that concatenation alone would lose.
		strs := d.strs
		h = fpWord(h, uint64(len(strs)))
		a, b := h, h^lane2
		i := 0
		for ; i+3 < len(strs); i += 4 {
			a = fpWord(a, uint64(len(strs[i]))|uint64(len(strs[i+1]))<<32)
			b = fpWord(b, uint64(len(strs[i+2]))|uint64(len(strs[i+3]))<<32)
		}
		for ; i < len(strs); i++ {
			a = fpWord(a, uint64(len(strs[i])))
		}
		h = fpWord(a, b)
		if d.blob != "" {
			h = fpBytes(h, d.blob)
		} else {
			h = fpConcat(h, strs)
		}
	}
	if nums := vec.nums; len(nums) > 0 {
		a, b := h, h^lane2
		i := 0
		for ; i+1 < len(nums); i += 2 {
			a = fpWord(a, math.Float64bits(nums[i]))
			b = fpWord(b, math.Float64bits(nums[i+1]))
		}
		if i < len(nums) {
			a = fpWord(a, math.Float64bits(nums[i]))
		}
		h = fpWord(a, b)
	}
	if codes := vec.codes; len(codes) > 0 {
		// Codes are 32-bit: pack two per folded word, two words per lane
		// round — four codes per iteration.
		a, b := h, h^lane2
		i := 0
		for ; i+3 < len(codes); i += 4 {
			a = fpWord(a, uint64(codes[i])|uint64(codes[i+1])<<32)
			b = fpWord(b, uint64(codes[i+2])|uint64(codes[i+3])<<32)
		}
		for ; i < len(codes); i++ {
			a = fpWord(a, uint64(codes[i]))
		}
		h = fpWord(a, b)
	}
	nulls := vec.nulls
	if len(nulls) < (vec.n+63)>>6 {
		nulls = append(slices.Clip(nulls), vec.tail) // a frozen vector's last word
	}
	if len(nulls) > 0 {
		a, b := h, h^lane2
		i := 0
		for ; i+1 < len(nulls); i += 2 {
			a = fpWord(a, nulls[i])
			b = fpWord(b, nulls[i+1])
		}
		if i < len(nulls) {
			a = fpWord(a, nulls[i])
		}
		h = fpWord(a, b)
	}
	return mix64(h)
}

// Fingerprint hashes every column vector of the database — values, NULL
// bits, and dictionary contents in code order — into one 64-bit sum.
// Per-column hashes are independent and computed in parallel; tables and
// columns are folded in schema order, so the fingerprint also pins the
// catalog layout. It must not run concurrently with Insert/BulkAppend on
// the same database.
func Fingerprint(db *Database) uint64 {
	type colRef struct {
		vec *ColumnVec
		sum uint64
	}
	var cols []*colRef
	for _, t := range db.Schema.Tables {
		for ci := range t.Columns {
			cols = append(cols, &colRef{vec: &t.vecs[ci]})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cols) {
		workers = len(cols)
	}
	if workers > 1 {
		var next int
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(cols) {
						return
					}
					cols[i].sum = columnFingerprint(cols[i].vec)
				}
			}()
		}
		wg.Wait()
	} else {
		for _, c := range cols {
			c.sum = columnFingerprint(c.vec)
		}
	}

	h := uint64(fpSeed)
	i := 0
	for _, t := range db.Schema.Tables {
		h = fpString(h, t.Name)
		for _, c := range t.Columns {
			h = fpString(h, c.Name)
			h = fpWord(h, cols[i].sum)
			i++
		}
	}
	return mix64(h)
}

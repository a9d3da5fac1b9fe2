// Chunk codec: one column vector as bytes, the unit the segment store
// (internal/storage/segment) writes to disk and maps back. A chunk holds
// the vector as it lies in memory: float64 values for numeric columns,
// dictionary codes plus the interned dictionary for text columns, and a
// packed null bitmap. Decoding a chunk yields the vector itself, so this
// package alone decides what a vector looks like: zero placeholders in
// NULL slots, dictionary entries in first-appearance order, a null bitmap
// of ceil(rows/64) words, and a dictionary on every text vector with rows.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// chunk layout (all integers little-endian):
//
//	[0:4]   magic "DQS1"
//	[4]     kind: 0 = numeric, 1 = text (dictionary-coded)
//	[5]     flags: bit 0 = null bitmap present
//	[6:8]   reserved (zero)
//	[8:16]  row count (uint64)
//	numeric: rows × 8 bytes of float64 bits
//	text:    dict length (uint32), dictLen × uint32 entry byte lengths, the
//	         concatenated entry bytes, zero padding to the next 4-byte file
//	         offset, then rows × 4 bytes of dictionary codes
//	nulls:   ceil(rows/8) bytes, bit (i&7) of byte i>>3 set = row i NULL
//
// The value arrays sit at naturally aligned offsets (the header is 16 bytes
// and the code array is padded to 4), so on a little-endian host the
// decoder reinterprets them in place instead of decoding element by element
// — the zero-copy that keeps a mapped chunk's values outside the Go heap.
// The dictionary stores all entry lengths before all entry bytes for the
// same reason: the decoder views one backing string for the whole
// dictionary and slices entries out of it, one allocation instead of one
// per entry.
const (
	chunkMagic  = "DQS1"
	chunkHeader = 16
	kindNum     = byte(0)
	kindText    = byte(1)
	flagNulls   = byte(1)
)

// pad4 returns the zero bytes needed to advance off to a 4-byte boundary.
func pad4(off int) int { return (4 - off&3) & 3 }

// hostLittleEndian gates the zero-copy reinterpretation of chunk payloads:
// the chunk format is little-endian, so a big-endian host falls back to
// the element-wise decode.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// EncodeVector serializes a column vector as a chunk, sized exactly so one
// allocation holds it: the vector's values, or its dictionary and codes,
// as they lie in memory, and a null bitmap when the vector holds NULLs.
func EncodeVector(v *ColumnVec) []byte {
	rows := v.n
	hasNulls := v.nullCount > 0
	var dict []string
	n := chunkHeader
	if v.typ == sqlir.TypeNumber {
		n += rows * 8
	} else {
		if v.dict != nil {
			dict = v.dict.strs
		}
		n += 4 + 4*len(dict)
		for _, s := range dict {
			n += len(s)
		}
		n += pad4(n) + rows*4
	}
	if hasNulls {
		n += (rows + 7) / 8
	}
	out := make([]byte, n)
	copy(out, chunkMagic)
	binary.LittleEndian.PutUint64(out[8:], uint64(rows))
	off := chunkHeader
	if v.typ == sqlir.TypeNumber {
		out[4] = kindNum
		for _, f := range v.nums {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(f))
			off += 8
		}
	} else {
		out[4] = kindText
		binary.LittleEndian.PutUint32(out[off:], uint32(len(dict)))
		off += 4
		for _, s := range dict {
			binary.LittleEndian.PutUint32(out[off:], uint32(len(s)))
			off += 4
		}
		for _, s := range dict {
			off += copy(out[off:], s)
		}
		off += pad4(off)
		for _, code := range v.codes {
			binary.LittleEndian.PutUint32(out[off:], code)
			off += 4
		}
	}
	if hasNulls {
		out[5] = flagNulls
		bitmap := out[off:]
		for i := range rows {
			if v.IsNull(i) {
				bitmap[i>>3] |= 1 << (uint(i) & 7)
			}
		}
	}
	return out
}

// DecodeVector parses a chunk back into the column vector it was encoded
// from. The declared column type cross-checks the chunk kind, and every
// length is validated, so a truncated or padded chunk fails instead of
// becoming a vector. So do a NaN (no column holds one), a code outside the
// dictionary and a NULL bit past the last row. What the checks leave open
// (a NULL slot's placeholder, a repeated or out-of-order dictionary entry)
// the segment loader's fingerprint comparison refuses.
//
// The values, codes and dictionary strings view data in place where the
// host allows, so data must stay unmodified for the vector's life: the
// segment store maps chunk files read-only.
func DecodeVector(data []byte, typ sqlir.Type) (ColumnVec, error) {
	v := ColumnVec{typ: typ}
	if len(data) < chunkHeader || string(data[:4]) != chunkMagic {
		return v, fmt.Errorf("bad chunk header")
	}
	kind, flags := data[4], data[5]
	rows64 := binary.LittleEndian.Uint64(data[8:])
	if rows64 > uint64(math.MaxInt32) {
		return v, fmt.Errorf("implausible row count %d", rows64)
	}
	rows := int(rows64)
	switch {
	case kind == kindNum && typ != sqlir.TypeNumber,
		kind == kindText && typ != sqlir.TypeText:
		return v, fmt.Errorf("chunk kind %d does not match column type %s", kind, typ)
	}
	rest := data[chunkHeader:]
	switch kind {
	case kindNum:
		if len(rest) < rows*8 {
			return v, fmt.Errorf("truncated numeric payload: %d bytes for %d rows", len(rest), rows)
		}
		v.nums = asFloat64s(rest[:rows*8], rows)
		rest = rest[rows*8:]
		for i, f := range v.nums {
			if math.IsNaN(f) {
				return v, fmt.Errorf("row %d holds NaN", i)
			}
		}
	case kindText:
		if len(rest) < 4 {
			return v, fmt.Errorf("truncated dictionary length")
		}
		dictLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if dictLen > rows {
			return v, fmt.Errorf("dictionary of %d entries for %d rows", dictLen, rows)
		}
		if dictLen > len(rest)/4 {
			return v, fmt.Errorf("truncated dictionary: %d bytes for %d entry lengths", len(rest), dictLen)
		}
		lens := rest[:4*dictLen]
		rest = rest[4*dictLen:]
		total := 0
		for i := 0; i < dictLen; i++ {
			n := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if n > len(rest)-total {
				return v, fmt.Errorf("truncated dictionary entry %d: %d bytes past payload end", i, n)
			}
			total += n
		}
		// One backing string for the whole dictionary, viewing the chunk
		// in place; entries are substrings of it.
		var blob string
		if total > 0 {
			blob = unsafe.String(&rest[0], total)
		}
		rest = rest[total:]
		strs := make([]string, dictLen)
		off := 0
		for i := range strs {
			n := int(binary.LittleEndian.Uint32(lens[i*4:]))
			strs[i] = blob[off : off+n]
			off += n
		}
		if p := pad4(len(data) - len(rest)); p > 0 {
			if len(rest) < p {
				return v, fmt.Errorf("truncated code padding")
			}
			rest = rest[p:]
		}
		if len(rest) < rows*4 {
			return v, fmt.Errorf("truncated code payload: %d bytes for %d rows", len(rest), rows)
		}
		v.codes = asUint32s(rest[:rows*4], rows)
		rest = rest[rows*4:]
		if rows > 0 {
			v.dict = &Dict{strs: strs, blob: blob}
		}
	default:
		return v, fmt.Errorf("unknown chunk kind %d", kind)
	}
	v.n = rows
	// The chunk's byte-packed bitmap and the vector's word-packed one share
	// the same little-endian bit order, so the bytes assemble into words
	// directly.
	v.nulls = make([]uint64, (rows+63)/64)
	if flags&flagNulls != 0 {
		want := (rows + 7) / 8
		if len(rest) < want {
			return v, fmt.Errorf("truncated null bitmap: %d bytes, want %d", len(rest), want)
		}
		for i := 0; i < want; i++ {
			v.nulls[i>>3] |= uint64(rest[i]) << (8 * uint(i&7))
		}
		rest = rest[want:]
		if r := uint(rows) & 63; r != 0 && v.nulls[len(v.nulls)-1]>>r != 0 {
			return v, fmt.Errorf("null bitmap marks rows past row %d", rows)
		}
		for _, w := range v.nulls {
			v.nullCount += bits.OnesCount64(w)
		}
	}
	if len(rest) != 0 {
		return v, fmt.Errorf("%d trailing bytes after payload", len(rest))
	}
	size := v.dict.Size()
	for i, code := range v.codes {
		if int(code) >= size && !v.IsNull(i) {
			return v, fmt.Errorf("row %d code %d out of dictionary range %d", i, code, size)
		}
	}
	return v, nil
}

// asFloat64s views a little-endian float64 array in place when the host's
// byte order and the buffer's alignment allow, avoiding both the element
// loop and a second rows×8-byte allocation; otherwise it decodes a copy.
// The caller must keep the backing buffer immutable (chunk buffers are).
func asFloat64s(b []byte, rows int) []float64 {
	if rows == 0 {
		return []float64{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))&7 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), rows)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// asUint32s is asFloat64s for dictionary code arrays.
func asUint32s(b []byte, rows int) []uint32 {
	if rows == 0 {
		return []uint32{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))&3 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), rows)
	}
	out := make([]uint32, rows)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

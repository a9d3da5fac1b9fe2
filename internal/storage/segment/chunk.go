// Chunk codec: one immutable, content-addressed file per column per
// segment. A chunk serializes one column vector as it lies in memory:
// float64 values for numeric columns, dictionary codes plus the interned
// dictionary for text columns, and a packed null bitmap; it decodes into
// the bulk-ingest form (storage.ColumnData) the loader replays. The
// chunk's address is the SHA-256 of its encoded bytes, so the filename
// doubles as the checksum: a loader that rehashes the file and compares
// against the manifest's expected address detects every flipped bit
// without a separate checksum field.
package segment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"unsafe"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
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
// The value arrays sit at naturally aligned file offsets (the header is 16
// bytes and the code array is padded to 4), so on a little-endian host the
// loader reinterprets them in place instead of decoding element by element
// — the mmap-style zero-copy that keeps cold start in the memory-bandwidth
// regime. The dictionary stores all entry lengths before all entry bytes
// for the same reason: the loader materialises one backing string for the
// whole dictionary and slices entries out of it, one allocation instead of
// one per entry.
const (
	chunkMagic   = "DQS1"
	chunkHeader  = 16
	kindNum      = byte(0)
	kindText     = byte(1)
	flagNulls    = byte(1)
	addressBytes = sha256.Size
)

// pad4 returns the zero bytes needed to advance off to a 4-byte boundary.
func pad4(off int) int { return (4 - off&3) & 3 }

// hostLittleEndian gates the zero-copy reinterpretation of chunk payloads:
// the on-disk format is little-endian, so a big-endian host falls back to
// the element-wise decode.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// address is a chunk's content hash, rendered as lower-case hex in the
// manifest and as the chunk's filename.
func address(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:])
}

// encodeVector serializes one column vector as a chunk, sized exactly so
// one allocation holds it: the vector's values, or its dictionary and
// codes, as they lie in memory (a NULL row's slot holds the zero
// placeholder), and a null bitmap when the vector holds NULLs.
func encodeVector(vec *storage.ColumnVec) []byte {
	rows := vec.Len()
	hasNulls := vec.NullCount() > 0
	var dict []string
	n := chunkHeader
	if vec.Type() == sqlir.TypeNumber {
		n += rows * 8
	} else {
		if d := vec.Dict(); d != nil {
			dict = d.Strings()
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
	if vec.Type() == sqlir.TypeNumber {
		out[4] = kindNum
		for _, f := range vec.RawNums() {
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
		for _, code := range vec.RawCodes() {
			binary.LittleEndian.PutUint32(out[off:], code)
			off += 4
		}
	}
	if hasNulls {
		out[5] = flagNulls
		bits := out[off:]
		for i := range rows {
			if vec.IsNull(i) {
				bits[i>>3] |= 1 << (uint(i) & 7)
			}
		}
	}
	return out
}

// decodeColumn parses a chunk back into the bulk-ingest payload. The
// declared column type cross-checks the chunk kind, and every length is
// validated so a truncated or padded file fails loudly instead of feeding
// garbage to BulkAppend.
func decodeColumn(data []byte, typ sqlir.Type) (storage.ColumnData, int, error) {
	var c storage.ColumnData
	if len(data) < chunkHeader || string(data[:4]) != chunkMagic {
		return c, 0, fmt.Errorf("bad chunk header")
	}
	kind, flags := data[4], data[5]
	rows64 := binary.LittleEndian.Uint64(data[8:])
	if rows64 > uint64(math.MaxInt32) {
		return c, 0, fmt.Errorf("implausible row count %d", rows64)
	}
	rows := int(rows64)
	switch {
	case kind == kindNum && typ != sqlir.TypeNumber,
		kind == kindText && typ != sqlir.TypeText:
		return c, 0, fmt.Errorf("chunk kind %d does not match column type %s", kind, typ)
	}
	rest := data[chunkHeader:]
	switch kind {
	case kindNum:
		if len(rest) < rows*8 {
			return c, 0, fmt.Errorf("truncated numeric payload: %d bytes for %d rows", len(rest), rows)
		}
		c.Nums = asFloat64s(rest[:rows*8], rows)
		rest = rest[rows*8:]
		// No column holds a NaN (storage stores one as NULL), and the
		// trusted replay adopts the payload as it is.
		for i, f := range c.Nums {
			if math.IsNaN(f) {
				return c, 0, fmt.Errorf("row %d holds NaN", i)
			}
		}
	case kindText:
		if len(rest) < 4 {
			return c, 0, fmt.Errorf("truncated dictionary length")
		}
		dictLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if dictLen > len(rest)/4 {
			return c, 0, fmt.Errorf("truncated dictionary: %d bytes for %d entry lengths", len(rest), dictLen)
		}
		lens := rest[:4*dictLen]
		rest = rest[4*dictLen:]
		total := 0
		for i := 0; i < dictLen; i++ {
			n := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if n > len(rest)-total {
				return c, 0, fmt.Errorf("truncated dictionary entry %d: %d bytes past payload end", i, n)
			}
			total += n
		}
		// One backing string for the whole dictionary; entries are
		// zero-copy substrings of it. The string itself views the chunk
		// buffer in place — the buffer is owned by this load and never
		// mutated (same contract as asFloat64s/asUint32s).
		var blob string
		if total > 0 {
			blob = unsafe.String(&rest[0], total)
		}
		rest = rest[total:]
		dict := make([]string, dictLen)
		off := 0
		for i := range dict {
			n := int(binary.LittleEndian.Uint32(lens[i*4:]))
			dict[i] = blob[off : off+n]
			off += n
		}
		if p := pad4(len(data) - len(rest)); p > 0 {
			if len(rest) < p {
				return c, 0, fmt.Errorf("truncated code padding")
			}
			rest = rest[p:]
		}
		if len(rest) < rows*4 {
			return c, 0, fmt.Errorf("truncated code payload: %d bytes for %d rows", len(rest), rows)
		}
		c.Codes = asUint32s(rest[:rows*4], rows)
		c.Dict = dict
		c.DictBlob = blob
		rest = rest[rows*4:]
	default:
		return c, 0, fmt.Errorf("unknown chunk kind %d", kind)
	}
	if flags&flagNulls != 0 {
		want := (rows + 7) / 8
		if len(rest) < want {
			return c, 0, fmt.Errorf("truncated null bitmap: %d bytes, want %d", len(rest), want)
		}
		// The chunk's byte-packed bitmap and the column vectors'
		// word-packed one share the same little-endian bit order, so the
		// bytes assemble into ColumnData's packed form directly and the
		// trusted replay ORs them into the vector without ever expanding
		// a []bool.
		words := make([]uint64, (rows+63)/64)
		for i := 0; i < want; i++ {
			words[i>>3] |= uint64(rest[i]) << (8 * uint(i&7))
		}
		c.NullWords = words
		rest = rest[want:]
	}
	if len(rest) != 0 {
		return c, 0, fmt.Errorf("%d trailing bytes after payload", len(rest))
	}
	// Range-check the codes here so the replay can use the trusted bulk
	// path: every non-NULL code must index the dictionary.
	for i, code := range c.Codes {
		if int(code) >= len(c.Dict) && !nullBit(c.NullWords, i) {
			return c, 0, fmt.Errorf("row %d code %d out of dictionary range %d", i, code, len(c.Dict))
		}
	}
	return c, rows, nil
}

// nullBit reports bit i of a packed null bitmap (false when absent).
func nullBit(words []uint64, i int) bool {
	return words != nil && words[i>>6]>>(uint(i)&63)&1 == 1
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

//go:build unix

package segment

import (
	"os"
	"sync/atomic"
	"syscall"
)

// maxMappedChunks bounds the chunk mappings a process makes; past it,
// chunks are read onto the heap. Each mapping is a memory map area of its
// own, never unmapped, and a process has at most vm.max_map_count of them
// (65 530 by default), which the Go runtime also needs to grow the heap:
// without the bound, a process that loads a database over and over — a
// fuzz worker loading a six-chunk database about 11 000 times — runs out
// of map areas, and the runtime dies the next time it asks for memory.
const maxMappedChunks = 1 << 14

// mappedChunks counts the chunk mappings made so far.
var mappedChunks atomic.Int64

// readChunkBytes maps a chunk file read-only instead of copying it onto the
// heap. The decoded vectors alias the mapping (see asFloat64s/asUint32s and
// the dictionary blob), so a loaded database's chunk bytes stay backed by
// the page cache — clean, evictable pages the kernel can reclaim under
// pressure — and the cold start never pays the read(2) copy. The mapping is
// intentionally never munmapped: it must outlive the database that aliases
// it, and chunk files are immutable, so holding it is safe. PROT_READ means
// any accidental write through an aliasing slice faults loudly instead of
// corrupting the store. Past maxMappedChunks mappings it reads the file.
func readChunkBytes(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) || mappedChunks.Load() >= maxMappedChunks {
		// Empty (invalid anyway — chunks start with a 16-byte header),
		// absurdly large (let the copying path produce the decode error),
		// or past the mapping budget.
		return os.ReadFile(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return os.ReadFile(path)
	}
	mappedChunks.Add(1)
	return data, nil
}

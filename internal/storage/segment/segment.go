// Package segment is the durable, content-addressed columnar store behind
// Duoquest's fast cold start. Everything above it rebuilds databases in
// memory on every boot; this package turns that rebuild into a load:
// Persist writes each column vector of each table once as an immutable
// chunk file (storage.EncodeVector), a per-database manifest maps table →
// segment → chunk addresses, and a loader maps the chunks back, decodes
// each into its column vector (storage.DecodeVector) and sets each table's
// vectors at once (Table.SetVectors), reconstructing a database that is
// byte-identical (storage.Fingerprint-verified) to the in-memory build —
// in tens of milliseconds where regeneration takes seconds.
//
// Layout under a store directory:
//
//	<dir>/<name>/manifest.json      checksummed bookkeeping (manifest.go)
//	<dir>/<name>/chunks/<sha256>    immutable column chunks
//
// A chunk's address is the SHA-256 of its bytes, so the filename doubles
// as the checksum: rehashing the file and comparing against the address
// the manifest names detects every flipped bit without a separate field.
//
// Chunks never change once written and a persist replaces only the
// manifest, so a load that read the old manifest still finds its chunks.
// Corruption is never silent: a loaded database must reproduce the
// manifest's recorded whole-database fingerprint before it is handed to
// the caller, and when that (or a structural decode check) fails, the
// chunks are re-hashed against their addresses so the error names the
// offending file. The expensive per-chunk hash pass is thus paid only on
// the failure path — on the happy path the fingerprint comparison carries
// the integrity guarantee, which is what keeps cold start in the
// tens-of-milliseconds range.
package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/duoquest/duoquest/internal/storage"
)

// ErrChecksumMismatch marks a chunk whose bytes no longer hash to its
// address. It is always wrapped in a *ChunkError naming the chunk.
var ErrChecksumMismatch = errors.New("checksum mismatch")

// ChunkError is a load failure attributed to one concrete chunk, so an
// operator can name the corrupt file instead of guessing. A partial load is
// never returned alongside one.
type ChunkError struct {
	DB     string
	Table  string
	Column string
	Chunk  string // content address (also the filename)
	Err    error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("segment: database %s table %s column %s chunk %s: %v",
		e.DB, e.Table, e.Column, e.Chunk, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// LoadInfo summarises one completed load for provenance reporting (/stats):
// what was read, the manifest checksum that vouched for it, and how long
// the cold start took.
type LoadInfo struct {
	Database     string
	Tables       int
	Segments     int
	Chunks       int
	Bytes        int64 // chunk bytes read
	ManifestHash string
	Fingerprint  uint64
	Elapsed      time.Duration
}

// Store is a directory of persisted databases. The zero value is unusable;
// build one with NewStore. A Store is safe for concurrent loads.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a segment store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("segment: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkName guards directory traversal through database names.
func checkName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("segment: invalid database name %q", name)
	}
	return nil
}

func (s *Store) chunkDir(name string) string { return filepath.Join(s.dir, name, "chunks") }
func (s *Store) manifestAt(name string) string {
	return filepath.Join(s.dir, name, manifestName)
}

// Has reports whether a database is persisted under name (its manifest
// exists; corruption is only detected by Load).
func (s *Store) Has(name string) bool {
	if checkName(name) != nil {
		return false
	}
	_, err := os.Stat(s.manifestAt(name))
	return err == nil
}

// List returns the names of every persisted database, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("segment: list store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && s.Has(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Manifest reads and checksum-verifies the manifest of a persisted
// database without loading any chunks.
func (s *Store) Manifest(name string) (*Manifest, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.manifestAt(name))
	if err != nil {
		return nil, fmt.Errorf("segment: database %s: manifest: %w", name, err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("segment: database %s: manifest: %w", name, err)
	}
	return m, nil
}

// Persist writes a full snapshot of the database under its own name: one
// segment per table covering every current row, chunks shared by content
// address with whatever is already in the store. See PersistAs.
func (s *Store) Persist(db *storage.Database) (*Manifest, error) {
	return s.PersistAs(db.Name, db)
}

// PersistAs writes a full snapshot of the database under an explicit store
// name (the load harness keys cache entries by generation-spec content
// address rather than display name). Chunk files are immutable and written
// first; the manifest is written atomically (temp file + rename) last, so
// a crash mid-persist leaves either the previous manifest or none — never
// a manifest naming missing chunks. Must not run concurrently with writes
// to the same database.
func (s *Store) PersistAs(name string, db *storage.Database) (*Manifest, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, errors.New("segment: nil database")
	}
	if err := os.MkdirAll(s.chunkDir(name), 0o755); err != nil {
		return nil, fmt.Errorf("segment: persist %s: %w", name, err)
	}
	m := &Manifest{
		Version:     manifestVersion,
		Database:    db.Name,
		Fingerprint: fmt.Sprintf("%016x", storage.Fingerprint(db)),
	}
	// Chunks are independent of one another, so encode+hash+write them in
	// parallel and assemble the manifest from the finished addresses.
	type chunkJob struct {
		ti, ci int
		addr   string
		err    error
	}
	var jobs []*chunkJob
	for ti, t := range db.Schema.Tables {
		if t.NumRows() > 0 {
			for ci := range t.Columns {
				jobs = append(jobs, &chunkJob{ti: ti, ci: ci})
			}
		}
	}
	runJobs(len(jobs), func(i int) {
		j := jobs[i]
		t := db.Schema.Tables[j.ti]
		j.addr, j.err = s.writeChunk(name, storage.EncodeVector(t.VectorAt(j.ci)))
	})
	addrByCol := map[[2]int]string{}
	for _, j := range jobs {
		if j.err != nil {
			t := db.Schema.Tables[j.ti]
			return nil, fmt.Errorf("segment: persist %s table %s column %s: %w",
				name, t.Name, t.Columns[j.ci].Name, j.err)
		}
		addrByCol[[2]int{j.ti, j.ci}] = j.addr
	}
	for ti, t := range db.Schema.Tables {
		mt := ManifestTable{Name: t.Name, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			mt.Columns = append(mt.Columns, ManifestColumn{Name: c.Name, Type: c.Type.String()})
		}
		if rows := t.NumRows(); rows > 0 {
			seg := ManifestSegment{Rows: rows}
			for ci := range t.Columns {
				seg.Chunks = append(seg.Chunks, addrByCol[[2]int{ti, ci}])
			}
			mt.Segments = append(mt.Segments, seg)
		}
		m.Tables = append(m.Tables, mt)
	}
	for _, fk := range db.Schema.ForeignKeys {
		m.ForeignKeys = append(m.ForeignKeys, ManifestFK{
			Table: fk.Table, Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn,
		})
	}
	if err := s.writeManifest(name, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reconstructs a persisted database: manifest checksum first, then
// every chunk read and decoded into its column vector, each table given
// its vectors, and finally the whole database's fingerprint compared
// against the manifest's record. Integrity is optimistic: the fingerprint
// comparison (plus decode's structural checks) is the fast-path gate, and
// only when it fails are the chunks re-hashed to name the corrupt one. Any
// failure returns a nil database — never a silent partial load.
func (s *Store) Load(name string) (*storage.Database, *LoadInfo, error) {
	start := time.Now()
	m, err := s.Manifest(name)
	if err != nil {
		return nil, nil, err
	}

	tables := make([]*storage.Table, 0, len(m.Tables))
	for _, mt := range m.Tables {
		cols := make([]storage.Column, 0, len(mt.Columns))
		for _, mc := range mt.Columns {
			typ, err := parseType(mc.Type)
			if err != nil {
				return nil, nil, fmt.Errorf("segment: database %s table %s column %s: %w", name, mt.Name, mc.Name, err)
			}
			cols = append(cols, storage.Column{Name: mc.Name, Type: typ})
		}
		tables = append(tables, storage.NewTable(mt.Name, mt.PrimaryKey, cols...))
	}
	schema := storage.NewSchema(tables...)
	for _, fk := range m.ForeignKeys {
		schema.AddForeignKey(fk.Table, fk.Column, fk.RefTable, fk.RefColumn)
	}
	if err := schema.Validate(); err != nil {
		return nil, nil, fmt.Errorf("segment: database %s: persisted schema invalid: %w", name, err)
	}

	info := &LoadInfo{Database: m.Database, Tables: len(m.Tables), ManifestHash: m.Checksum}
	for _, mt := range m.Tables {
		if len(mt.Segments) > 1 {
			return nil, nil, fmt.Errorf("segment: database %s table %s: manifest lists %d segments, a table has at most one",
				name, mt.Name, len(mt.Segments))
		}
		for _, seg := range mt.Segments {
			if len(seg.Chunks) != len(mt.Columns) {
				return nil, nil, fmt.Errorf("segment: database %s table %s: segment has %d chunks for %d columns",
					name, mt.Name, len(seg.Chunks), len(mt.Columns))
			}
			info.Segments++
			info.Chunks += len(seg.Chunks)
		}
	}

	// Tables load independently, and within a table every chunk reads and
	// decodes independently. Parallelizing across tables AND chunks is what
	// gets a many-megabyte database into memory in tens of milliseconds
	// instead of hundreds.
	tableErrs := make([]error, len(m.Tables))
	tableBytes := make([]int64, len(m.Tables))
	runJobs(len(m.Tables), func(ti int) {
		tableBytes[ti], tableErrs[ti] = s.loadTable(name, m.Tables[ti], tables[ti])
	})
	for _, err := range tableErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, b := range tableBytes {
		info.Bytes += b
	}

	db := storage.NewDatabase(m.Database, schema)
	info.Fingerprint = storage.Fingerprint(db)
	if got := fmt.Sprintf("%016x", info.Fingerprint); got != m.Fingerprint {
		// Corruption, or a codec bug. Pay for the per-chunk hashes now to
		// name the corrupt chunk if there is one.
		if err := s.auditChunks(name, m); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("segment: database %s: loaded fingerprint %s does not match manifest %s",
			name, got, m.Fingerprint)
	}
	info.Elapsed = time.Since(start)
	return db, info, nil
}

// loadTable reads and decodes every chunk of a table's segment in
// parallel and sets the table's vectors from them. DecodeVector checks
// each chunk's structure and Load compares the whole-database fingerprint
// afterwards, so a chunk that decodes but differs from what was persisted
// still fails the load. Returns the chunk bytes read.
func (s *Store) loadTable(name string, mt ManifestTable, t *storage.Table) (int64, error) {
	if len(mt.Segments) == 0 {
		return 0, nil
	}
	seg := mt.Segments[0]
	vecs := make([]storage.ColumnVec, len(seg.Chunks))
	sizes := make([]int, len(seg.Chunks))
	errs := make([]error, len(seg.Chunks))
	runJobs(len(seg.Chunks), func(ci int) {
		vecs[ci], sizes[ci], errs[ci] = s.readChunk(name, mt.Name, t.Columns[ci], seg.Chunks[ci])
	})
	var bytes int64
	for ci, err := range errs {
		if err != nil {
			return 0, err
		}
		if rows := vecs[ci].Len(); rows != seg.Rows {
			return 0, &ChunkError{DB: name, Table: mt.Name, Column: mt.Columns[ci].Name, Chunk: seg.Chunks[ci],
				Err: fmt.Errorf("holds %d rows, manifest says %d", rows, seg.Rows)}
		}
		bytes += int64(sizes[ci])
	}
	if err := t.SetVectors(vecs); err != nil {
		return 0, fmt.Errorf("segment: database %s table %s: %w", name, mt.Name, err)
	}
	return bytes, nil
}

// runJobs calls fn(0..n-1) across up to GOMAXPROCS goroutines and waits for
// all of them. fn must be safe to run concurrently for distinct indices.
func runJobs(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// readChunk reads and decodes one chunk. Verification is optimistic: the
// happy path does NOT re-hash the content (at tens of MB per database the
// SHA-256 pass alone would dominate the cold start) — decode's structural
// checks plus Load's whole-database fingerprint comparison catch every
// corruption, and only a failure pays for hashing, to attribute the error
// to checksum mismatch versus a format bug. It returns the decoded vector
// and the bytes read.
func (s *Store) readChunk(name, table string, col storage.Column, addr string) (storage.ColumnVec, int, error) {
	var zero storage.ColumnVec
	if len(addr) != 2*sha256.Size || strings.ContainsAny(addr, "/\\") {
		return zero, 0, &ChunkError{DB: name, Table: table, Column: col.Name, Chunk: addr,
			Err: errors.New("malformed chunk address")}
	}
	data, err := readChunkBytes(filepath.Join(s.chunkDir(name), addr))
	if err != nil {
		return zero, 0, &ChunkError{DB: name, Table: table, Column: col.Name, Chunk: addr, Err: err}
	}
	vec, err := storage.DecodeVector(data, col.Type)
	if err != nil {
		if got := address(data); got != addr {
			err = fmt.Errorf("%w: content hashes to %s", ErrChecksumMismatch, got)
		}
		return zero, 0, &ChunkError{DB: name, Table: table, Column: col.Name, Chunk: addr, Err: err}
	}
	return vec, len(data), nil
}

// auditChunks re-reads and re-hashes every chunk of a manifest, returning a
// *ChunkError naming the first whose bytes no longer match their address.
// It is the slow attribution pass behind optimistic verification, run only
// after the loaded database failed the fingerprint comparison.
func (s *Store) auditChunks(name string, m *Manifest) error {
	for _, mt := range m.Tables {
		for _, seg := range mt.Segments {
			for ci, addr := range seg.Chunks {
				data, err := os.ReadFile(filepath.Join(s.chunkDir(name), addr))
				if err != nil {
					return &ChunkError{DB: name, Table: mt.Name, Column: mt.Columns[ci].Name, Chunk: addr, Err: err}
				}
				if got := address(data); got != addr {
					return &ChunkError{DB: name, Table: mt.Name, Column: mt.Columns[ci].Name, Chunk: addr,
						Err: fmt.Errorf("%w: content hashes to %s", ErrChecksumMismatch, got)}
				}
			}
		}
	}
	return nil
}

// address is a chunk's content hash, rendered as lower-case hex in the
// manifest and as the chunk's filename.
func address(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:])
}

// writeChunk stores encoded bytes under their content address, returning
// the address. An existing file with that address already holds identical
// content (that is the point of content addressing), so it is reused —
// repeated persists and shared columns across databases cost nothing new.
// Writes go through a temp file + rename so a crash never leaves a partial
// chunk under a valid address.
func (s *Store) writeChunk(name string, encoded []byte) (string, error) {
	addr := address(encoded)
	path := filepath.Join(s.chunkDir(name), addr)
	if st, err := os.Stat(path); err == nil && st.Size() == int64(len(encoded)) {
		return addr, nil
	}
	if err := atomicWrite(path, encoded); err != nil {
		return "", err
	}
	return addr, nil
}

// writeManifest atomically replaces the database's manifest.
func (s *Store) writeManifest(name string, m *Manifest) error {
	data, _, err := m.encode()
	if err != nil {
		return fmt.Errorf("segment: encode manifest for %s: %w", name, err)
	}
	if err := atomicWrite(s.manifestAt(name), data); err != nil {
		return fmt.Errorf("segment: write manifest for %s: %w", name, err)
	}
	return nil
}

// atomicWrite writes data to path via a temp file in the same directory
// and a rename, so readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

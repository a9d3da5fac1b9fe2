// Manifest: the one mutable file per persisted database. It names every
// table's segments and their per-column chunk addresses, records the
// database's storage fingerprint, and carries its own checksum, so a
// truncated or hand-edited manifest is rejected before any chunk is read.
// Chunks are immutable and content-addressed; all bookkeeping lives here,
// in the spirit of dolt's nbs manifest over its block store.
package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// manifestVersion is bumped on any incompatible format change; a loader
// refuses versions it does not understand instead of misreading them.
const manifestVersion = 1

// manifestName is the manifest's filename inside a database directory.
const manifestName = "manifest.json"

// ManifestColumn is one column of a persisted table.
type ManifestColumn struct {
	Name string `json:"name"`
	Type string `json:"type"` // sqlir.Type.String(): "number" or "text"
}

// ManifestSegment is one immutable batch of rows: exactly one chunk per
// column, in schema order. Persist writes one segment per non-empty table,
// holding all its rows, and Load refuses a table listing more than one.
type ManifestSegment struct {
	Rows   int      `json:"rows"`
	Chunks []string `json:"chunks"`
}

// ManifestTable is one persisted table: schema plus its segment list.
type ManifestTable struct {
	Name       string            `json:"name"`
	PrimaryKey string            `json:"primary_key,omitempty"`
	Columns    []ManifestColumn  `json:"columns"`
	Segments   []ManifestSegment `json:"segments,omitempty"`
}

// ManifestFK is one persisted FK-PK constraint.
type ManifestFK struct {
	Table     string `json:"table"`
	Column    string `json:"column"`
	RefTable  string `json:"ref_table"`
	RefColumn string `json:"ref_column"`
}

// Manifest describes one persisted database. Fingerprint is the
// storage.Fingerprint of the database the chunks reconstruct, re-verified
// after every load; Checksum is the SHA-256 of the manifest's own JSON with
// the checksum field empty, verified before anything else is trusted.
type Manifest struct {
	Version     int             `json:"version"`
	Database    string          `json:"database"`
	Fingerprint string          `json:"fingerprint"` // %016x of storage.Fingerprint
	Tables      []ManifestTable `json:"tables"`
	ForeignKeys []ManifestFK    `json:"foreign_keys,omitempty"`
	Checksum    string          `json:"checksum"`
}

// encode marshals the manifest with its checksum filled in, returning the
// bytes to write and the checksum.
func (m *Manifest) encode() ([]byte, string, error) {
	m.Checksum = ""
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(body)
	m.Checksum = hex.EncodeToString(sum[:])
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(out, '\n'), m.Checksum, nil
}

// decodeManifest parses and checksum-verifies a manifest. The checksum is
// recomputed over the canonical re-marshaling with the checksum field
// empty — the exact bytes encode hashed — so any corruption of the stored
// file (truncation, bit flips, edits) surfaces here, before chunks load.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("manifest version %d not supported (want %d)", m.Version, manifestVersion)
	}
	want := m.Checksum
	if want == "" {
		return nil, fmt.Errorf("corrupt manifest: missing checksum")
	}
	m.Checksum = ""
	// encode hashed the indented marshaling with the checksum field empty;
	// reproduce those exact bytes for the comparison.
	canon, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("corrupt manifest: checksum %s, recorded %s", got, want)
	}
	m.Checksum = want
	return &m, nil
}

// parseType resolves a manifest type name.
func parseType(s string) (sqlir.Type, error) {
	switch s {
	case "number":
		return sqlir.TypeNumber, nil
	case "text":
		return sqlir.TypeText, nil
	default:
		return sqlir.TypeUnknown, fmt.Errorf("unknown column type %q", s)
	}
}

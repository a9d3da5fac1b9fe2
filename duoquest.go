// Package duoquest is a Go implementation of Duoquest, the
// dual-specification SQL query synthesis system of Baik, Jin, Cafarella and
// Jagadish (SIGMOD 2020). Duoquest consumes a natural language query (NLQ)
// together with an optional PBE-like table sketch query (TSQ) and returns a
// ranked list of candidate SQL queries, every one of which is guaranteed to
// satisfy the sketch — the paper's soundness property.
//
// The synthesis engine is guided partial query enumeration (GPQE): a
// best-first search over partial queries ordered by guidance-model
// confidence, pruned by ascending-cost cascading verification against the
// TSQ. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
//
// Quick start:
//
//	db := duoquest.NewDatabase("movies", schema)
//	syn := duoquest.New(db, duoquest.DefaultConfig())
//	res, _ := syn.Synthesize(ctx, duoquest.Input{
//	    NLQ:      "movies before 1995",
//	    Literals: []duoquest.Value{duoquest.Number(1995)},
//	    Sketch:   &duoquest.TSQ{Tuples: []duoquest.Tuple{{duoquest.Exact(duoquest.Text("Forrest Gump"))}}},
//	})
//	for _, c := range res.Candidates {
//	    fmt.Println(c.Rank, c.Query)
//	}
package duoquest

import (
	"context"
	"time"

	"github.com/duoquest/duoquest/internal/autocomplete"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/storage/segment"
	"github.com/duoquest/duoquest/internal/tsq"
)

// Re-exported core types. These aliases form the public vocabulary of the
// library; the implementations live in internal packages.
type (
	// Database is an in-memory relational database.
	Database = storage.Database
	// Schema is a catalog of tables and FK-PK constraints.
	Schema = storage.Schema
	// Table is one relational table.
	Table = storage.Table
	// Column is a typed table column.
	Column = storage.Column
	// Value is a SQL cell value (text, number, or NULL).
	Value = sqlir.Value
	// Type is a column data type.
	Type = sqlir.Type
	// Query is a (possibly partial) SPJA query.
	Query = sqlir.Query
	// TSQ is a table sketch query (Definition 2.3).
	TSQ = tsq.TSQ
	// Tuple is one TSQ example tuple.
	Tuple = tsq.Tuple
	// Cell is one TSQ example cell (exact, empty, or range).
	Cell = tsq.Cell
	// Candidate is one ranked synthesis result.
	Candidate = enumerate.Candidate
	// Result summarises a synthesis run.
	Result = enumerate.Result
	// ResultSet is a materialized query result.
	ResultSet = sqlexec.Result
	// GuidanceModel is the enumeration guidance interface (§3.3.5): any
	// model producing per-module confidence distributions can be plugged in.
	GuidanceModel = guidance.Model
	// Hit is one autocomplete suggestion.
	Hit = autocomplete.Hit
	// RuleSet is a semantic pruning rule set (Table 4).
	RuleSet = semrules.RuleSet
	// Engine is the process-wide multi-database synthesis service: a
	// registry of databases with shared cross-request caches, bounded
	// admission control, and aggregated serving statistics. Build one
	// with NewEngine, Register databases, and open per-request
	// EngineSessions against it.
	Engine = service.Engine
	// EngineSession is a per-request handle on one of an Engine's
	// databases, borrowing its shared caches. (Session, without the
	// prefix, is the iterative NLQ/TSQ refinement loop of Figure 1.)
	EngineSession = service.Session
	// EngineSnapshot is a session pinned to one published database epoch:
	// every call on it observes exactly that epoch's rows and shares that
	// epoch's caches, no matter how much ingest happens meanwhile. Open one
	// with Engine.Snapshot or Engine.SnapshotAt.
	EngineSnapshot = service.Snapshot
	// ColumnData is one column's bulk-ingest payload, columnar form
	// (Engine.Append and Table.BulkAppend take a slice of these in schema
	// order).
	ColumnData = storage.ColumnData
	// EngineStats is an Engine's serving snapshot: admission gauges plus
	// per-database request counts, cache hit rates, and latency
	// quantiles.
	EngineStats = service.Stats
	// SegmentStore is a durable, content-addressed columnar store: persist
	// a Database as checksummed chunk files plus a manifest, and load it
	// back byte-identically in tens of milliseconds. Open one with
	// OpenSegmentStore.
	SegmentStore = segment.Store
	// SegmentLoadInfo summarises one completed segment-store load.
	SegmentLoadInfo = segment.LoadInfo
	// SegmentManifest is the checksummed bookkeeping of one persisted
	// database.
	SegmentManifest = segment.Manifest
	// DBProvenance records where a registered database's bytes came from
	// (memory build vs segment-store load).
	DBProvenance = service.Provenance
)

// Column types.
const (
	TypeText   = sqlir.TypeText
	TypeNumber = sqlir.TypeNumber
)

// Mode selects the enumeration variant (ablations of §5.4.3).
type Mode = enumerate.Mode

// Enumeration modes.
const (
	ModeGPQE    = enumerate.ModeGPQE
	ModeNoPQ    = enumerate.ModeNoPQ
	ModeNoGuide = enumerate.ModeNoGuide
)

// NewDatabase wraps a schema as a database.
func NewDatabase(name string, schema *Schema) *Database {
	return storage.NewDatabase(name, schema)
}

// NewSchema builds a schema over tables.
func NewSchema(tables ...*Table) *Schema { return storage.NewSchema(tables...) }

// NewTable creates an empty table with the given primary key and columns.
func NewTable(name, pk string, cols ...Column) *Table {
	return storage.NewTable(name, pk, cols...)
}

// OpenSegmentStore opens (creating if needed) a durable segment store
// rooted at dir.
func OpenSegmentStore(dir string) (*SegmentStore, error) {
	return segment.NewStore(dir)
}

// PersistDatabase writes a full snapshot of the database into the store
// under its own name: immutable content-addressed chunk files plus a
// checksummed manifest recording the database's storage fingerprint.
func PersistDatabase(store *SegmentStore, db *Database) (*SegmentManifest, error) {
	return store.Persist(db)
}

// OpenDatabase reconstructs a persisted database from the store,
// verifying every chunk's checksum and the whole-database fingerprint —
// the loaded database is byte-identical to the one persisted or the load
// fails with an error naming the corrupt chunk.
func OpenDatabase(store *SegmentStore, name string) (*Database, *SegmentLoadInfo, error) {
	return store.Load(name)
}

// Text returns a text value.
func Text(s string) Value { return sqlir.NewText(s) }

// Number returns a numeric value.
func Number(f float64) Value { return sqlir.NewNumber(f) }

// Null returns the NULL value.
func Null() Value { return sqlir.Null() }

// Exact returns a TSQ cell matching exactly v.
func Exact(v Value) Cell { return tsq.Exact(v) }

// Empty returns a TSQ cell matching any value.
func Empty() Cell { return tsq.Empty() }

// Range returns a TSQ cell matching numbers in [lo, hi].
func Range(lo, hi float64) Cell { return tsq.Range(lo, hi) }

// ParseSQL parses a SQL statement in the supported subset against a schema.
func ParseSQL(schema *Schema, sql string) (*Query, error) {
	return sqlparse.Parse(schema, sql)
}

// Execute runs a complete query. A query that does not bind against the
// database — a malformed join path, a column that is unknown or outside the
// path, an aggregate the engine lacks — fails before any row is read,
// whatever the data: over an empty table as over a full one.
func Execute(db *Database, q *Query) (*ResultSet, error) {
	return sqlexec.Execute(db, q)
}

// DefaultRules returns the Table 4 semantic pruning rules.
func DefaultRules() *RuleSet { return semrules.Default() }

// Input is one dual-specification synthesis request: the NLQ with its
// tagged literal values (the paper's L), plus an optional table sketch
// query; nil Sketch synthesizes from the NLQ alone.
type Input = service.Input

// ErrOverloaded reports that the engine's synthesis wait queue is full (see
// Config.MaxInFlight/Config.MaxQueue); callers should shed the request.
var ErrOverloaded = service.ErrOverloaded

// Config is the engine's whole configuration surface — guidance model,
// pruning rules, enumeration mode, search bounds, deadlines and admission
// control: eleven fields, two of them ignored, documented one by one on
// service.Config. The zero value is usable; DefaultConfig returns the
// library defaults (lexical guidance, Table 4 rules, a 2s default deadline,
// 50 candidates), and callers start from it and set fields.
type Config = service.Config

// DefaultConfig returns the documented library defaults: the lexical
// guidance model, the Table 4 semantic pruning rules, GPQE mode, a 2-second
// deadline for a request that carries none, and at most 50 candidates per
// request. The other six fields — MaxStates, MaxDeadline, MaxInFlight,
// MaxQueue and the ignored Workers and QueryParallelism — stay at their
// zero values (the enumerator's 500 000-state cap, no clamp, unbounded
// admission).
func DefaultConfig() Config {
	return Config{
		Model:           guidance.NewLexicalModel(),
		Rules:           semrules.Default(),
		Mode:            enumerate.ModeGPQE,
		DefaultDeadline: 2 * time.Second,
		MaxCandidates:   50,
	}
}

// NewEngine builds a standalone multi-database Engine. Register databases
// on it and open per-request sessions with Engine.Session (or pinned read
// handles with Engine.Snapshot); cmd/duoquest-server is built on this entry
// point.
func NewEngine(cfg Config) *Engine {
	return service.NewEngine(cfg)
}

// Synthesizer is the Duoquest engine bound to one database. It is safe for
// concurrent use: all requests run through an internal service Engine and
// share the per-database caches — the column- and row-wise verification
// memos, whose answers every epoch reuses where a question's tables hold
// the same rows, so a concurrent Append leaves in-flight readers' answers
// warm — plus the autocomplete index, built once on first use.
type Synthesizer struct {
	db  *Database
	eng *Engine
	ses *EngineSession
}

// New builds a Synthesizer for a database.
func New(db *Database, cfg Config) *Synthesizer {
	eng := NewEngine(cfg)
	if err := eng.Register(db); err != nil {
		// A single registration on a fresh engine can only fail on a nil
		// database; surface that as the programming error it is.
		panic(err)
	}
	ses, err := eng.Session(db.Name)
	if err != nil {
		panic(err)
	}
	return &Synthesizer{db: db, eng: eng, ses: ses}
}

// Engine exposes the Synthesizer's underlying service engine, e.g. to read
// Stats or register further databases.
func (s *Synthesizer) Engine() *Engine { return s.eng }

// Stats returns the serving snapshot: request counts, shared-cache hit
// rates, and latency quantiles.
func (s *Synthesizer) Stats() EngineStats { return s.eng.Stats() }

// Synthesize runs dual-specification synthesis and returns the ranked
// candidates.
func (s *Synthesizer) Synthesize(ctx context.Context, in Input) (*Result, error) {
	return s.ses.Synthesize(ctx, in)
}

// SynthesizeStream runs synthesis, invoking emit for every candidate as it
// is found (the front-end's progressive display, §4). emit returning false
// stops the search.
func (s *Synthesizer) SynthesizeStream(ctx context.Context, in Input, emit func(Candidate) bool) (*Result, error) {
	return s.ses.SynthesizeStream(ctx, in, emit)
}

// Autocomplete suggests literal values for a prefix, backed by the master
// inverted column index over all text columns (§4). The index is built
// lazily, once, on first use; concurrent callers share the build.
func (s *Synthesizer) Autocomplete(prefix string, max int) []Hit {
	return s.ses.Autocomplete(prefix, max)
}

// Preview executes a candidate query with a row cap under ctx, powering the
// front-end's "Query Preview" button (§4): a cancelled ctx stops the scan.
// Every call builds its own result; a plain projection stops scanning once
// it has maxRows rows.
func (s *Synthesizer) Preview(ctx context.Context, q *Query, maxRows int) (*ResultSet, error) {
	return s.ses.PreviewCtx(ctx, q, maxRows)
}

// Snapshot opens a read handle pinned to the database's latest published
// epoch: every call on it observes exactly that epoch's rows, no matter how
// much ingest happens meanwhile.
func (s *Synthesizer) Snapshot() (*EngineSnapshot, error) {
	return s.eng.Snapshot(s.db.Name)
}

// Append bulk-appends one batch (columnar form, schema order) to a table and
// publishes it as a new epoch, returning the epoch number. This is the only
// mutation safe under concurrent synthesis: in-flight and pinned requests
// keep their epochs and warm caches; the next request sees the new rows.
func (s *Synthesizer) Append(table string, cols []ColumnData) (int64, error) {
	return s.eng.Append(s.db.Name, table, cols)
}

// Package loadgen generates synthetic Duoquest databases at scales the
// hand-curated Movies/MAS sets cannot reach (10k–1M rows), so the columnar
// engine and the service layer can be measured — and CI-gated — under
// realistic load. Generation is fully deterministic from (Spec, seed): no
// clocks, no global randomness, only a seeded PRNG, so two runs with the
// same seed produce byte-identical column vectors (the determinism test
// compares Fingerprints) and the bulk- and row-built ingestion paths can be
// proven equivalent cell for cell.
//
// The generated data follows the shapes the paper's workloads care about:
// FK graphs of 3–8 tables with compact integer id columns (the dense
// posting-list fast path in storage), zipfian-skewed categorical text
// columns over interned dictionaries, skewed numeric measure ranges, and
// configurable NULL rates.
package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Spec configures one synthetic database family. The zero value of any
// field falls back to the documented default.
type Spec struct {
	// Name is the database name ("gen" when empty); the row count and seed
	// are appended so registries can hold several generated databases.
	Name string
	// Tables is the table count, clamped to [3, 8]. Table 0 is the root
	// dimension; every later table holds at least one FK to an earlier one,
	// so the schema is a connected DAG like MAS.
	Tables int
	// Rows is the total row count across all tables (default 10_000).
	// Row counts grow geometrically toward the later fact tables.
	Rows int
	// ZipfS is the zipf skew exponent for categorical values and FK fan-in
	// (must be > 1; default 1.3). Higher = heavier heads.
	ZipfS float64
	// NullRate is the NULL probability on nullable (categorical and
	// measure) columns, in (0, 1). Zero falls back to the default 0.04; a
	// negative rate generates NULL-free data. Keys and FK columns are
	// never NULL.
	NullRate float64
	// DictCap caps the distinct-value count of each categorical column
	// (default 4096; each column targets rows/20 within [8, DictCap]).
	DictCap int
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "gen"
	}
	if s.Tables < 3 {
		s.Tables = 3
	}
	if s.Tables > 8 {
		s.Tables = 8
	}
	if s.Rows <= 0 {
		s.Rows = 10_000
	}
	if s.Rows < 4*s.Tables {
		s.Rows = 4 * s.Tables
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.3
	}
	switch {
	case s.NullRate < 0:
		s.NullRate = 0
	case s.NullRate == 0 || s.NullRate >= 1:
		s.NullRate = 0.04
	}
	if s.DictCap <= 0 {
		s.DictCap = 4096
	}
	return s
}

// Preset returns the named scale preset: "small" (10k rows, 4 tables),
// "medium" (100k rows, 6 tables), or "large" (1M rows, 8 tables).
func Preset(scale string) (Spec, bool) {
	switch scale {
	case "small":
		return Spec{Name: "gen-small", Tables: 4, Rows: 10_000}, true
	case "medium":
		return Spec{Name: "gen-medium", Tables: 6, Rows: 100_000}, true
	case "large":
		return Spec{Name: "gen-large", Tables: 8, Rows: 1_000_000}, true
	default:
		return Spec{}, false
	}
}

// colKind discriminates the generator behind a column.
type colKind uint8

const (
	colPK   colKind = iota // dense ids 1..n
	colFK                  // zipf-skewed parent ids
	colName                // unique entity labels ("order-000042")
	colCat                 // zipf-sampled categorical dictionary
	colNum                 // skewed numeric measures
)

// colPlan is one column's generation recipe.
type colPlan struct {
	name     string
	typ      sqlir.Type
	kind     colKind
	parent   int      // colFK: parent table index
	dict     []string // colCat: the value dictionary, code order
	lo, span int      // colNum: value range [lo, lo+span]
	nullable bool
}

// tablePlan is one table's recipe: name, entity noun for NLQ phrasing, row
// count, and columns in schema order.
type tablePlan struct {
	name    string
	entity  string
	rows    int
	cols    []colPlan
	parents []int
}

// plan is a fully resolved generation recipe; schema and data both derive
// from it deterministically.
type plan struct {
	spec   Spec
	seed   int64
	tables []tablePlan
}

// tableVocab supplies up to 8 realistic table names with entity nouns,
// ordered dimension-first so FK targets read naturally.
var tableVocab = [8][2]string{
	{"regions", "region"}, {"users", "user"}, {"products", "product"},
	{"orders", "order"}, {"reviews", "review"}, {"sessions", "session"},
	{"payments", "payment"}, {"events", "event"},
}

// catVocab supplies categorical column names with seed words; dictionaries
// beyond the seed words extend with numbered variants.
var catVocab = []struct {
	name  string
	words []string
}{
	{"status", []string{"active", "inactive", "pending", "archived", "deleted", "draft"}},
	{"category", []string{"standard", "premium", "trial", "internal", "partner"}},
	{"channel", []string{"web", "mobile", "api", "store", "phone"}},
	{"tier", []string{"bronze", "silver", "gold", "platinum"}},
}

// numVocab supplies measure column names with value ranges.
var numVocab = []struct {
	name     string
	lo, span int
}{
	{"score", 0, 100},
	{"amount", 1, 9999},
	{"year", 1980, 45},
	{"quantity", 1, 49},
}

// buildPlan resolves a Spec into a concrete recipe using its own PRNG
// stream, so schema shape and data content are both functions of (spec,
// seed) alone.
func buildPlan(spec Spec, seed int64) *plan {
	spec = spec.withDefaults()
	r := rand.New(rand.NewSource(seed))
	p := &plan{spec: spec, seed: seed}

	// Row counts grow geometrically toward the later (fact) tables; the
	// remainder after rounding lands on the last table.
	nt := spec.Tables
	weights := make([]float64, nt)
	total := 0.0
	for i := range weights {
		w := 1.0
		for j := 0; j < i; j++ {
			w *= 2.3
		}
		weights[i] = w
		total += w
	}
	assigned := 0
	rows := make([]int, nt)
	for i := range rows {
		rows[i] = int(float64(spec.Rows) * weights[i] / total)
		if rows[i] < 4 {
			rows[i] = 4
		}
		assigned += rows[i]
	}
	rows[nt-1] += spec.Rows - assigned
	if rows[nt-1] < 4 {
		rows[nt-1] = 4
	}

	for ti := 0; ti < nt; ti++ {
		tp := tablePlan{name: tableVocab[ti][0], entity: tableVocab[ti][1], rows: rows[ti]}

		// FK edges: every non-root table references one earlier table;
		// deeper tables sometimes pick up a second edge, giving the 3–8
		// table DAGs multi-parent fact tables like MAS's link tables.
		if ti > 0 {
			tp.parents = append(tp.parents, r.Intn(ti))
			if ti >= 2 && r.Float64() < 0.45 {
				second := r.Intn(ti)
				if second != tp.parents[0] {
					tp.parents = append(tp.parents, second)
				}
			}
		}

		tp.cols = append(tp.cols,
			colPlan{name: "id", typ: sqlir.TypeNumber, kind: colPK},
			colPlan{name: "name", typ: sqlir.TypeText, kind: colName},
		)
		for _, parent := range tp.parents {
			tp.cols = append(tp.cols, colPlan{
				name: tableVocab[parent][0] + "_id", typ: sqlir.TypeNumber,
				kind: colFK, parent: parent,
			})
		}
		cat := catVocab[(ti+r.Intn(2))%len(catVocab)]
		dictSize := tp.rows / 20
		if dictSize < 8 {
			dictSize = 8
		}
		if dictSize > spec.DictCap {
			dictSize = spec.DictCap
		}
		tp.cols = append(tp.cols, colPlan{
			name: cat.name, typ: sqlir.TypeText, kind: colCat,
			dict: catDict(cat.name, cat.words, dictSize), nullable: true,
		})
		nm := numVocab[(ti+r.Intn(2))%len(numVocab)]
		tp.cols = append(tp.cols, colPlan{
			name: nm.name, typ: sqlir.TypeNumber, kind: colNum,
			lo: nm.lo, span: nm.span, nullable: true,
		})
		p.tables = append(p.tables, tp)
	}
	return p
}

// catDict builds a categorical dictionary: the seed words first, then
// numbered variants up to size.
func catDict(name string, words []string, size int) []string {
	out := make([]string, 0, size)
	for i := 0; i < size; i++ {
		if i < len(words) {
			out = append(out, words[i])
			continue
		}
		out = append(out, fmt.Sprintf("%s_%s_%d", words[i%len(words)], name, i))
	}
	return out
}

// payload generates one table's column payloads from the shared PRNG
// stream. Both ingestion paths consume exactly these payloads, which is
// what makes them provably equivalent.
func (p *plan) payload(ti int, r *rand.Rand) []storage.ColumnData {
	tp := &p.tables[ti]
	n := tp.rows
	out := make([]storage.ColumnData, len(tp.cols))
	for ci, cp := range tp.cols {
		switch cp.kind {
		case colPK:
			nums := make([]float64, n)
			for i := range nums {
				nums[i] = float64(i + 1)
			}
			out[ci] = storage.ColumnData{Nums: nums}
		case colFK:
			// Zipf-skewed fan-in over the parent's compact id range: a few
			// hot parents take most references, as real FK graphs do.
			parentRows := p.tables[cp.parent].rows
			z := rand.NewZipf(r, p.spec.ZipfS, 1, uint64(parentRows-1))
			nums := make([]float64, n)
			for i := range nums {
				nums[i] = float64(1 + z.Uint64())
			}
			out[ci] = storage.ColumnData{Nums: nums}
		case colName:
			// Unique labels, shipped dictionary-encoded with identity codes
			// so bulk ingest adopts the dictionary without hashing.
			dict := make([]string, n)
			codes := make([]uint32, n)
			for i := range dict {
				dict[i] = fmt.Sprintf("%s-%06d", tp.entity, i+1)
				codes[i] = uint32(i)
			}
			out[ci] = storage.ColumnData{Codes: codes, Dict: dict}
		case colCat:
			z := rand.NewZipf(r, p.spec.ZipfS, 1, uint64(len(cp.dict)-1))
			codes := make([]uint32, n)
			nulls := make([]bool, n)
			for i := range codes {
				if p.spec.NullRate > 0 && r.Float64() < p.spec.NullRate {
					nulls[i] = true
					continue
				}
				codes[i] = uint32(z.Uint64())
			}
			out[ci] = storage.ColumnData{Codes: codes, Dict: cp.dict, Nulls: nulls}
		case colNum:
			z := rand.NewZipf(r, p.spec.ZipfS, 1, uint64(cp.span))
			nums := make([]float64, n)
			nulls := make([]bool, n)
			for i := range nums {
				if p.spec.NullRate > 0 && r.Float64() < p.spec.NullRate {
					nulls[i] = true
					continue
				}
				nums[i] = float64(cp.lo + int(z.Uint64()))
			}
			out[ci] = storage.ColumnData{Nums: nums, Nulls: nulls}
		}
	}
	return out
}

// schema instantiates the plan's catalog.
func (p *plan) schema() *storage.Schema {
	tables := make([]*storage.Table, len(p.tables))
	for ti, tp := range p.tables {
		cols := make([]storage.Column, len(tp.cols))
		for ci, cp := range tp.cols {
			cols[ci] = storage.Column{Name: cp.name, Type: cp.typ}
		}
		tables[ti] = storage.NewTable(tp.name, "id", cols...)
	}
	s := storage.NewSchema(tables...)
	for _, tp := range p.tables {
		for _, parent := range tp.parents {
			s.AddForeignKey(tp.name, p.tables[parent].name+"_id", p.tables[parent].name, "id")
		}
	}
	return s
}

// Generated couples a generated database with the recipe that produced it;
// task and probe synthesis read the recipe instead of re-discovering the
// schema.
type Generated struct {
	DB   *storage.Database
	Spec Spec
	Seed int64

	plan *plan
}

// Generate builds a database through the bulk ingestion path: one
// BulkAppend per table, so each table sees one generation bump and one
// index invalidation regardless of row count.
func Generate(spec Spec, seed int64) (*Generated, error) {
	return generate(spec, seed, true)
}

// GenerateByRows builds the identical database through the historical
// per-row Insert path. It exists as the ingestion oracle: the paired
// benchmark and the equivalence tests prove bulk-built and row-built
// databases agree cell for cell and answer for answer.
func GenerateByRows(spec Spec, seed int64) (*Generated, error) {
	return generate(spec, seed, false)
}

// newPayloadRand returns the data-stream PRNG for a seed, kept distinct
// from the plan stream so schema shape and data content draw independently.
func newPayloadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 1))
}

func generate(spec Spec, seed int64, bulk bool) (*Generated, error) {
	p := buildPlan(spec, seed)
	s := p.schema()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: generated schema invalid: %w", err)
	}
	r := newPayloadRand(seed)
	for ti := range p.tables {
		t := s.Table(p.tables[ti].name)
		cols := p.payload(ti, r)
		if bulk {
			if err := t.BulkAppend(cols); err != nil {
				return nil, fmt.Errorf("loadgen: %s: %w", t.Name, err)
			}
			continue
		}
		insertRows(t, cols, p.tables[ti].rows)
	}
	name := fmt.Sprintf("%s-%d-s%d", p.spec.Name, p.spec.Rows, seed)
	return &Generated{DB: storage.NewDatabase(name, s), Spec: p.spec, Seed: seed, plan: p}, nil
}

// insertRows replays a bulk payload through the per-row Insert path.
func insertRows(t *storage.Table, cols []storage.ColumnData, n int) {
	vals := make([]sqlir.Value, len(cols))
	for ri := 0; ri < n; ri++ {
		for ci, c := range cols {
			switch {
			case c.Nulls != nil && c.Nulls[ri]:
				vals[ci] = sqlir.Null()
			case c.Codes != nil:
				vals[ci] = sqlir.NewText(c.Dict[c.Codes[ri]])
			case c.Texts != nil:
				vals[ci] = sqlir.NewText(c.Texts[ri])
			default:
				vals[ci] = sqlir.NewNumber(c.Nums[ri])
			}
		}
		t.MustInsert(vals...)
	}
}

// Fingerprint hashes every column vector of the database — values, NULL
// bits, and dictionary contents in code order — into one FNV-1a sum. Two
// databases with byte-identical columnar state (same values, same dict
// code assignment, same null bitmaps) have equal fingerprints; the
// determinism test requires exactly this across two same-seed runs, the
// ingestion equivalence test requires it across the bulk and row paths,
// and the segment store requires it across a persist→load round trip. The
// implementation lives with the vectors (storage.Fingerprint); this
// wrapper keeps the historical loadgen call sites working.
func Fingerprint(db *storage.Database) uint64 {
	return storage.Fingerprint(db)
}

// SpecKey returns the content address of the database Generate(spec, seed)
// produces: the database name plus a short hash over every generation knob,
// so two specs that would generate different bytes can never share a
// segment-store cache entry. The load harness persists generated databases
// under this key and reloads them on later runs instead of regenerating.
func SpecKey(spec Spec, seed int64) string {
	spec = spec.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%g|%g|%d|%d", spec.Name, spec.Tables, spec.Rows, spec.ZipfS, spec.NullRate, spec.DictCap, seed)
	return fmt.Sprintf("%s-%d-s%d-%08x", spec.Name, spec.Rows, seed, uint32(h.Sum64()))
}

// FromPersisted couples a database loaded from a segment store with the
// deterministic recipe for (spec, seed), so task and probe synthesis work
// identically on loaded and freshly generated databases. Only the plan is
// rebuilt — the expensive payload generation is exactly what the caller
// avoided by loading. The loaded schema is validated against the plan; a
// mismatch means the cache entry was persisted under the wrong key.
func FromPersisted(db *storage.Database, spec Spec, seed int64) (*Generated, error) {
	p := buildPlan(spec, seed)
	for _, tp := range p.tables {
		t := db.Table(tp.name)
		if t == nil {
			return nil, fmt.Errorf("loadgen: persisted database %s lacks table %s for spec %+v seed %d", db.Name, tp.name, spec, seed)
		}
		if t.NumRows() != tp.rows {
			return nil, fmt.Errorf("loadgen: persisted table %s.%s has %d rows, spec wants %d", db.Name, tp.name, t.NumRows(), tp.rows)
		}
		if len(t.Columns) != len(tp.cols) {
			return nil, fmt.Errorf("loadgen: persisted table %s.%s has %d columns, spec wants %d", db.Name, tp.name, len(t.Columns), len(tp.cols))
		}
	}
	return &Generated{DB: db, Spec: p.spec, Seed: seed, plan: p}, nil
}

// IngestBatch builds one Append payload of n rows by cycling the rows of a
// frozen table from row offset base — deterministic, schema-exact, and
// dictionary-friendly (existing strings re-intern to existing codes). The
// load harness and the retention tests feed Engine.Append with it.
func IngestBatch(tb *storage.Table, base, n int) []storage.ColumnData {
	rows := tb.NumRows()
	cols := make([]storage.ColumnData, len(tb.Columns))
	for ci, c := range tb.Columns {
		vec := tb.Vector(c.Name)
		nulls := make([]bool, n)
		hasNull := false
		cd := storage.ColumnData{}
		if c.Type == sqlir.TypeNumber {
			cd.Nums = make([]float64, n)
		} else {
			cd.Texts = make([]string, n)
		}
		for j := 0; j < n; j++ {
			ri := (base + j) % rows
			if vec.IsNull(ri) {
				nulls[j] = true
				hasNull = true
				continue
			}
			if c.Type == sqlir.TypeNumber {
				cd.Nums[j] = vec.Num(ri)
			} else {
				cd.Texts[j] = vec.Dict().String(vec.Code(ri))
			}
		}
		if hasNull {
			cd.Nulls = nulls
		}
		cols[ci] = cd
	}
	return cols
}

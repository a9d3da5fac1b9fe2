package loadgen

import (
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

func testSpec(rows int) Spec {
	return Spec{Name: "t", Tables: 5, Rows: rows}
}

// TestGenerateDeterminism: two runs with the same seed produce
// byte-identical columns — same values, same dictionary code assignment,
// same null bitmaps — checked vector by vector and by storage.Fingerprint. A
// different seed produces different data.
func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(testSpec(5000), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec(5000), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range a.DB.Schema.Tables {
		tb := b.DB.Table(ta.Name)
		if tb == nil {
			t.Fatalf("run 2 lacks table %s", ta.Name)
		}
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("table %s: %d vs %d rows", ta.Name, ta.NumRows(), tb.NumRows())
		}
		for _, c := range ta.Columns {
			va, vb := ta.Vector(c.Name), tb.Vector(c.Name)
			da, db := va.Dict(), vb.Dict()
			if (da == nil) != (db == nil) {
				t.Fatalf("%s.%s: dict present in one run only", ta.Name, c.Name)
			}
			if da != nil {
				sa, sb := da.Strings(), db.Strings()
				if len(sa) != len(sb) {
					t.Fatalf("%s.%s: dict sizes %d vs %d", ta.Name, c.Name, len(sa), len(sb))
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("%s.%s: dict[%d] %q vs %q", ta.Name, c.Name, i, sa[i], sb[i])
					}
				}
			}
			for i := 0; i < va.Len(); i++ {
				if va.IsNull(i) != vb.IsNull(i) {
					t.Fatalf("%s.%s row %d: null bit differs", ta.Name, c.Name, i)
				}
				if va.IsNull(i) {
					continue
				}
				switch c.Type {
				case sqlir.TypeText:
					if va.Code(i) != vb.Code(i) {
						t.Fatalf("%s.%s row %d: code %d vs %d", ta.Name, c.Name, i, va.Code(i), vb.Code(i))
					}
				default:
					if va.Num(i) != vb.Num(i) {
						t.Fatalf("%s.%s row %d: %v vs %v", ta.Name, c.Name, i, va.Num(i), vb.Num(i))
					}
				}
			}
		}
	}
	if fa, fb := storage.Fingerprint(a.DB), storage.Fingerprint(b.DB); fa != fb {
		t.Fatalf("fingerprints differ for identical seeds: %x vs %x", fa, fb)
	}
	c, err := Generate(testSpec(5000), 43)
	if err != nil {
		t.Fatal(err)
	}
	if storage.Fingerprint(a.DB) == storage.Fingerprint(c.DB) {
		t.Fatal("different seeds produced identical data")
	}
}

// TestGenerateShape: the recipe honors the spec — table count clamped to
// [3,8], total rows hit exactly, keys never NULL, nullable columns NULL at
// roughly the configured rate, dictionaries capped.
func TestGenerateShape(t *testing.T) {
	spec := Spec{Tables: 12, Rows: 20_000, NullRate: 0.2, DictCap: 64}
	g, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.DB.Schema.Tables); got != 8 {
		t.Fatalf("tables = %d, want clamp to 8", got)
	}
	if got := g.DB.TotalRows(); got != 20_000 {
		t.Fatalf("total rows = %d, want 20000", got)
	}
	if err := g.DB.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	nullable, nulls := 0, 0
	for ti, tp := range g.plan.tables {
		tab := g.DB.Table(tp.name)
		if ti > 0 && len(tp.parents) == 0 {
			t.Fatalf("table %s has no FK parent", tp.name)
		}
		for _, cp := range tp.cols {
			vec := tab.Vector(cp.name)
			if !cp.nullable && vec.NullCount() != 0 {
				t.Fatalf("%s.%s: %d NULLs in a key column", tp.name, cp.name, vec.NullCount())
			}
			if cp.nullable {
				nullable += vec.Len()
				nulls += vec.NullCount()
			}
			if cp.kind == colCat && vec.Dict() != nil && vec.Dict().Size() > 64 {
				t.Fatalf("%s.%s: dict size %d over cap 64", tp.name, cp.name, vec.Dict().Size())
			}
		}
	}
	rate := float64(nulls) / float64(nullable)
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("observed null rate %.3f, want ~0.2", rate)
	}
}

// TestBulkRowEquivalence: the bulk ingestion path and the per-row Insert
// path build byte-identical databases that answer identical verification
// queries.
func TestBulkRowEquivalence(t *testing.T) {
	bulk, err := Generate(testSpec(3000), 11)
	if err != nil {
		t.Fatal(err)
	}
	byRow, err := GenerateByRows(testSpec(3000), 11)
	if err != nil {
		t.Fatal(err)
	}
	if fb, fr := storage.Fingerprint(bulk.DB), storage.Fingerprint(byRow.DB); fb != fr {
		t.Fatalf("bulk fingerprint %x != row fingerprint %x", fb, fr)
	}
	probes := bulk.Probes(120, 5)
	for i, eq := range probes {
		gb, err := sqlexec.Exists(bulk.DB, eq)
		if err != nil {
			t.Fatalf("probe %d on bulk DB: %v", i, err)
		}
		gr, err := sqlexec.Exists(byRow.DB, eq)
		if err != nil {
			t.Fatalf("probe %d on row DB: %v", i, err)
		}
		if gb != gr {
			t.Fatalf("probe %d: bulk=%v row=%v", i, gb, gr)
		}
	}
}

// TestTasks: synthesized tasks parse against the generated schema, have
// non-empty gold results, and feed TSQ synthesis — the gold result always
// satisfies its own synthesized sketch.
func TestTasks(t *testing.T) {
	g, err := Generate(testSpec(4000), 3)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := g.Tasks(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 4 {
		t.Fatalf("only %d tasks synthesized", len(tasks))
	}
	hard := 0
	for _, task := range tasks {
		res, err := task.GoldResult()
		if err != nil {
			t.Fatalf("task %s: %v", task.ID, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("task %s: empty gold result", task.ID)
		}
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1)
		if err != nil {
			t.Fatalf("task %s: synthesize TSQ: %v", task.ID, err)
		}
		if err := sk.Validate(); err != nil {
			t.Fatalf("task %s: TSQ invalid: %v", task.ID, err)
		}
		if !sk.Satisfies(res) {
			t.Fatalf("task %s: gold result does not satisfy its own TSQ", task.ID)
		}
		if task.Difficulty == dataset.Hard {
			hard++
		}
	}
	if hard == 0 {
		t.Fatal("no Hard (grouped) task synthesized")
	}
	// Tasks are seeded: the same seed reproduces the same SQL.
	again, err := g.Tasks(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if tasks[i].SQL != again[i].SQL {
			t.Fatalf("task %d not reproducible: %q vs %q", i, tasks[i].SQL, again[i].SQL)
		}
	}
}

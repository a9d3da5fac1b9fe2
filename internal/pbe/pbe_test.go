package pbe

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

func text(s string) sqlir.Value { return sqlir.NewText(s) }
func num(f float64) sqlir.Value { return sqlir.NewNumber(f) }

// academicDB: a small MAS-like database for PBE tests.
func academicDB() *storage.Database {
	author := storage.NewTable("author", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "oid", Type: sqlir.TypeNumber},
	)
	org := storage.NewTable("organization", "oid",
		storage.Column{Name: "oid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "continent", Type: sqlir.TypeText},
	)
	pub := storage.NewTable("publication", "pid",
		storage.Column{Name: "pid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "year", Type: sqlir.TypeNumber},
		storage.Column{Name: "cid", Type: sqlir.TypeNumber},
	)
	conf := storage.NewTable("conference", "cid",
		storage.Column{Name: "cid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
	)
	writes := storage.NewTable("writes", "wid",
		storage.Column{Name: "wid", Type: sqlir.TypeNumber},
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "pid", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(author, org, pub, conf, writes)
	s.AddForeignKey("author", "oid", "organization", "oid")
	s.AddForeignKey("publication", "cid", "conference", "cid")
	s.AddForeignKey("writes", "aid", "author", "aid")
	s.AddForeignKey("writes", "pid", "publication", "pid")

	org.MustInsert(num(1), text("Michigan"), text("North America"))
	org.MustInsert(num(2), text("Oxford"), text("Europe"))
	author.MustInsert(num(1), text("Alice"), num(1))
	author.MustInsert(num(2), text("Bob"), num(1))
	author.MustInsert(num(3), text("Carol"), num(2))
	conf.MustInsert(num(1), text("SIGMOD"))
	conf.MustInsert(num(2), text("VLDB"))
	pub.MustInsert(num(1), text("Paper One"), num(2018), num(1))
	pub.MustInsert(num(2), text("Paper Two"), num(2019), num(1))
	pub.MustInsert(num(3), text("Paper Three"), num(2019), num(2))
	pub.MustInsert(num(4), text("Paper Four"), num(2020), num(1))
	// Alice wrote 1,2,4 (3 SIGMOD papers); Bob wrote 3 (VLDB); Carol wrote 2.
	writes.MustInsert(num(1), num(1), num(1))
	writes.MustInsert(num(2), num(1), num(2))
	writes.MustInsert(num(3), num(1), num(4))
	writes.MustInsert(num(4), num(2), num(3))
	writes.MustInsert(num(5), num(3), num(2))

	return storage.NewDatabase("academic", s)
}

func ex(vals ...string) tsq.Tuple {
	var tp tsq.Tuple
	for _, v := range vals {
		tp = append(tp, tsq.Exact(text(v)))
	}
	return tp
}

func TestSynthesizeSimpleProjection(t *testing.T) {
	db := academicDB()
	sys := New(db)
	out, err := sys.Synthesize([]tsq.Tuple{ex("Alice"), ex("Bob")})
	if err != nil {
		t.Fatal(err)
	}
	if out.Unsupported {
		t.Fatalf("unsupported: %s", out.Reason)
	}
	if len(out.Projections) != 1 || out.Projections[0] != db.Schema.Catalog().MustCol("author", "name") {
		t.Errorf("projections = %v", out.Projections)
	}
	// Alice and Bob share organization Michigan: expect that filter.
	found := false
	for _, f := range out.Filters {
		if f.Kind == FilterValue && f.Col.String() == "organization.name" && f.Val.Equal(text("Michigan")) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected Michigan filter, got %v", out.Filters)
	}
}

// TestSynthesizeJoinDiscovery: examples pairing titles with conference names
// force a join path through publication-conference.
func TestSynthesizeJoinDiscovery(t *testing.T) {
	db := academicDB()
	sys := New(db)
	out, err := sys.Synthesize([]tsq.Tuple{ex("Paper One", "SIGMOD"), ex("Paper Two", "SIGMOD")})
	if err != nil {
		t.Fatal(err)
	}
	if out.Unsupported {
		t.Fatalf("unsupported: %s", out.Reason)
	}
	pub, _ := db.Schema.Catalog().Ordinal("publication")
	conf, _ := db.Schema.Catalog().Ordinal("conference")
	if !out.JoinPath.Set().Has(pub) || !out.JoinPath.Set().Has(conf) {
		t.Errorf("join path = %v", out.JoinPath)
	}
}

// TestSynthesizeCountFilter: Alice has 3 papers — the derived count filter
// must be proposed (SQuID's semantic property abduction).
func TestSynthesizeCountFilter(t *testing.T) {
	db := academicDB()
	sys := New(db)
	out, err := sys.Synthesize([]tsq.Tuple{ex("Alice")})
	if err != nil {
		t.Fatal(err)
	}
	if out.Unsupported {
		t.Fatalf("unsupported: %s", out.Reason)
	}
	// With the bare author table the count is 1; the abduction still
	// proposes a count filter candidate.
	foundCount := false
	for _, f := range out.Filters {
		if f.Kind == FilterCount {
			foundCount = true
		}
	}
	if !foundCount {
		t.Errorf("expected count filter, got %v", out.Filters)
	}
}

func TestSynthesizeUnsupportedInputs(t *testing.T) {
	db := academicDB()
	sys := New(db)
	cases := []struct {
		name     string
		examples []tsq.Tuple
		want     string
	}{
		{"numeric cell", []tsq.Tuple{{tsq.Exact(num(2019))}}, "numeric"},
		{"range cell", []tsq.Tuple{{tsq.Range(2010, 2019)}}, "range"},
		{"empty cell", []tsq.Tuple{{tsq.Empty()}}, "partial"},
		{"no examples", nil, "no examples"},
		{"unknown value", []tsq.Tuple{ex("Nobody Anywhere")}, "covers"},
	}
	for _, c := range cases {
		out, err := sys.Synthesize(c.examples)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !out.Unsupported || !strings.Contains(out.Reason, c.want) {
			t.Errorf("%s: out = %+v", c.name, out)
		}
	}
}

func TestSynthesizeRaggedExamplesError(t *testing.T) {
	sys := New(academicDB())
	if _, err := sys.Synthesize([]tsq.Tuple{ex("Alice"), ex("Alice", "Bob")}); err == nil {
		t.Error("ragged examples should error")
	}
}

func TestSupports(t *testing.T) {
	db := academicDB()
	cases := []struct {
		sql    string
		ok     bool
		reason string
	}{
		{"SELECT name FROM author", true, ""},
		{"SELECT a.name, COUNT(*) FROM author a JOIN writes w ON a.aid = w.aid GROUP BY a.name", false, "aggregate"},
		{"SELECT year FROM publication", false, "numeric"},
		{"SELECT name FROM author WHERE name != 'Alice'", false, "negation"},
		{"SELECT title FROM publication WHERE title LIKE '%one%'", false, "LIKE"},
		{"SELECT name FROM author ORDER BY name ASC", false, "ordered"},
		{"SELECT title FROM publication ORDER BY year DESC LIMIT 3", false, "ordered"},
	}
	for _, c := range cases {
		gold := sqlparse.MustParse(db.Schema, c.sql)
		ok, reason := Supports(gold)
		if ok != c.ok || (!ok && !strings.Contains(reason, c.reason)) {
			t.Errorf("%q: ok=%v reason=%q", c.sql, ok, reason)
		}
	}
}

// TestCorrectLabeling follows §5.4.2: correct iff gold predicates ⊆ filters
// (ignoring literals) and projections match.
func TestCorrectLabeling(t *testing.T) {
	db := academicDB()
	sys := New(db)
	out, err := sys.Synthesize([]tsq.Tuple{ex("Alice"), ex("Bob")})
	if err != nil || out.Unsupported {
		t.Fatalf("synth: %v %+v", err, out)
	}
	gold := sqlparse.MustParse(db.Schema,
		"SELECT a.name FROM author a JOIN organization o ON a.oid = o.oid WHERE o.name = 'Michigan'")
	if !out.Correct(gold) {
		t.Errorf("gold should be covered: filters=%v", out.Filters)
	}
	// A predicate on an uncovered column is not correct.
	gold2 := sqlparse.MustParse(db.Schema,
		"SELECT a.name FROM author a JOIN writes w ON a.aid = w.aid JOIN publication p ON w.pid = p.pid WHERE p.title = 'Paper One'")
	if out.Correct(gold2) {
		t.Error("title filter was never proposed")
	}
	// Projection mismatch.
	gold3 := sqlparse.MustParse(db.Schema, "SELECT name FROM organization")
	if out.Correct(gold3) {
		t.Error("projection mismatch should fail")
	}
}

// TestCorrectWithCountFilter: a HAVING COUNT gold query is correct when the
// count filter is proposed with matching projections.
func TestCorrectWithCountFilter(t *testing.T) {
	db := academicDB()
	sys := New(db)
	// Alice (3 papers via writes): mapping through author alone proposes a
	// count filter from matching rows.
	out, err := sys.Synthesize([]tsq.Tuple{ex("Alice")})
	if err != nil || out.Unsupported {
		t.Fatalf("synth: %v %+v", err, out)
	}
	gold := sqlparse.MustParse(db.Schema,
		"SELECT a.name FROM author a JOIN writes w ON a.aid = w.aid GROUP BY a.name HAVING COUNT(*) > 2")
	// Projections match (author.name); count filter proposed.
	if !out.Correct(gold) {
		t.Errorf("count-filter gold should be correct: %v", out.Filters)
	}
}

func TestUnsupportedOutputNeverCorrect(t *testing.T) {
	out := &Output{Unsupported: true}
	gold := sqlparse.MustParse(academicDB().Schema, "SELECT name FROM author")
	if out.Correct(gold) {
		t.Error("unsupported output cannot be correct")
	}
}

func TestFilterString(t *testing.T) {
	cat := sqlir.InternCatalog([]sqlir.CatalogTable{{Name: "t", Columns: []string{"c", "n"}}}, nil)
	f := Filter{Kind: FilterValue, Col: cat.MustCol("t", "c"), Val: text("x")}
	if f.String() != "t.c = 'x'" {
		t.Errorf("filter string = %q", f.String())
	}
	f = Filter{Kind: FilterRange, Col: cat.MustCol("t", "n"), Lo: num(1), Hi: num(2)}
	if f.String() != "t.n in [1,2]" {
		t.Errorf("range string = %q", f.String())
	}
	f = Filter{Kind: FilterCount, Lo: num(3)}
	if f.String() != "COUNT(rows) >= 3" {
		t.Errorf("count string = %q", f.String())
	}
}

// columnCovers folds case as a TSQ cell does, Unicode included: the column
// of a stored string that an example's cell matches covers the example.
func TestColumnCoversFoldsUnicode(t *testing.T) {
	live := academicDB()
	if _, err := live.Append("organization", []storage.ColumnData{
		{Nums: []float64{9}}, {Texts: []string{"école normale"}}, {Texts: []string{"Europe"}},
	}); err != nil {
		t.Fatal(err)
	}
	example := ex("ÉCOLE NORMALE")
	if !example[0].Matches(text("école normale")) {
		t.Fatal("the TSQ cell must match the stored string")
	}
	col := live.Schema.Catalog().MustCol("organization", "name")
	if !New(live.Snapshot()).columnCovers(col, []tsq.Tuple{example}, 0) {
		t.Errorf("%s does not cover %v", col, example)
	}
}

// columnCovers asks the column's dictionary instead of scanning rows: it
// still matches case-insensitively, and on a snapshot it must not see a
// string the live database interned afterwards.
func TestColumnCoversReadsTheSnapshotsDictionary(t *testing.T) {
	live := academicDB()
	snap := live.Snapshot()
	if _, err := live.Append("conference", []storage.ColumnData{
		{Nums: []float64{3}}, {Texts: []string{"ICDE"}},
	}); err != nil {
		t.Fatal(err)
	}
	col := live.Schema.Catalog().MustCol("conference", "name")
	covers := func(db *storage.Database, vals ...string) bool {
		return New(db).columnCovers(col, []tsq.Tuple{ex(vals...)}, 0)
	}
	if !covers(snap, "sigmod") || !covers(snap, "VLDB") {
		t.Error("a stored string must be covered whatever its case")
	}
	if covers(snap, "ICDE") {
		t.Error("the snapshot sees a string appended after it was taken")
	}
	if !covers(live.Snapshot(), "icde") {
		t.Error("the next snapshot must see the appended string")
	}
	if covers(snap, "SIG") {
		t.Error("a prefix is not a stored string")
	}
}

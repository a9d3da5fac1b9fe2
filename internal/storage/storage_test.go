package storage

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

func text(s string) sqlir.Value { return sqlir.NewText(s) }
func num(f float64) sqlir.Value { return sqlir.NewNumber(f) }

// movieSchema builds the paper's §2 movie schema.
func movieSchema() *Schema {
	actor := NewTable("actor", "aid",
		Column{"aid", sqlir.TypeNumber},
		Column{"name", sqlir.TypeText},
		Column{"gender", sqlir.TypeText},
		Column{"birth_yr", sqlir.TypeNumber},
	)
	movie := NewTable("movie", "mid",
		Column{"mid", sqlir.TypeNumber},
		Column{"name", sqlir.TypeText},
		Column{"year", sqlir.TypeNumber},
		Column{"revenue", sqlir.TypeNumber},
	)
	starring := NewTable("starring", "sid",
		Column{"sid", sqlir.TypeNumber},
		Column{"aid", sqlir.TypeNumber},
		Column{"mid", sqlir.TypeNumber},
	)
	s := NewSchema(actor, movie, starring)
	s.AddForeignKey("starring", "aid", "actor", "aid")
	s.AddForeignKey("starring", "mid", "movie", "mid")
	return s
}

func TestSchemaValidateOK(t *testing.T) {
	if err := movieSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Schema
		want  string
	}{
		{"duplicate table", func() *Schema {
			return NewSchema(NewTable("a", ""), NewTable("a", ""))
		}, "duplicate table"},
		{"duplicate column", func() *Schema {
			return NewSchema(NewTable("a", "", Column{"x", sqlir.TypeText}, Column{"x", sqlir.TypeText}))
		}, "duplicate column"},
		{"unknown type", func() *Schema {
			return NewSchema(NewTable("a", "", Column{"x", sqlir.TypeUnknown}))
		}, "unknown type"},
		{"bad pk", func() *Schema {
			return NewSchema(NewTable("a", "nope", Column{"x", sqlir.TypeText}))
		}, "primary key"},
		{"fk unknown table", func() *Schema {
			s := NewSchema(NewTable("a", "", Column{"x", sqlir.TypeNumber}))
			s.AddForeignKey("a", "x", "missing", "y")
			return s
		}, "unknown table"},
		{"fk unknown column", func() *Schema {
			s := movieSchema()
			s.AddForeignKey("starring", "nope", "actor", "aid")
			return s
		}, "unknown column"},
		{"fk not pk", func() *Schema {
			s := movieSchema()
			s.AddForeignKey("starring", "aid", "actor", "name")
			return s
		}, "primary key"},
		{"fk type mismatch", func() *Schema {
			a := NewTable("a", "id", Column{"id", sqlir.TypeText})
			b := NewTable("b", "", Column{"aid", sqlir.TypeNumber})
			s := NewSchema(a, b)
			s.AddForeignKey("b", "aid", "a", "id")
			return s
		}, "type mismatch"},
	}
	for _, c := range cases {
		err := c.build().Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestInsertAndRead(t *testing.T) {
	s := movieSchema()
	m := s.Table("movie")
	if err := m.Insert(num(1), text("Forrest Gump"), num(1994), num(678)); err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 1 {
		t.Fatalf("rows = %d", m.NumRows())
	}
	if got := m.VectorAt(1).Value(0); !got.Equal(text("Forrest Gump")) {
		t.Errorf("name = %v", got)
	}
}

func TestInsertArityError(t *testing.T) {
	m := movieSchema().Table("movie")
	if err := m.Insert(num(1)); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("err = %v", err)
	}
}

func TestInsertTypeError(t *testing.T) {
	m := movieSchema().Table("movie")
	if err := m.Insert(text("x"), text("y"), num(1), num(2)); err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("err = %v", err)
	}
}

func TestInsertNullAllowed(t *testing.T) {
	m := movieSchema().Table("movie")
	if err := m.Insert(num(1), sqlir.Null(), sqlir.Null(), sqlir.Null()); err != nil {
		t.Errorf("nulls should be allowed: %v", err)
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInsert should panic on bad row")
		}
	}()
	movieSchema().Table("movie").MustInsert(num(1))
}

func TestInsertCopiesRow(t *testing.T) {
	m := movieSchema().Table("movie")
	vals := []sqlir.Value{num(1), text("A"), num(2000), num(10)}
	if err := m.Insert(vals...); err != nil {
		t.Fatal(err)
	}
	vals[1] = text("B")
	if !m.VectorAt(1).Value(0).Equal(text("A")) {
		t.Error("Insert must copy the row")
	}
}

func TestColumnLookup(t *testing.T) {
	m := movieSchema().Table("movie")
	if m.ColumnIndex("year") != 2 {
		t.Errorf("ColumnIndex(year) = %d", m.ColumnIndex("year"))
	}
	if m.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	c, ok := m.Column("name")
	if !ok || c.Type != sqlir.TypeText {
		t.Errorf("Column(name) = %v, %v", c, ok)
	}
	if _, ok := m.Column("nope"); ok {
		t.Error("missing column should not resolve")
	}
}

func TestStats(t *testing.T) {
	m := movieSchema().Table("movie")
	m.MustInsert(num(1), text("A"), num(1990), num(5))
	m.MustInsert(num(2), text("B"), num(2000), num(7))
	m.MustInsert(num(3), text("B"), sqlir.Null(), num(7))
	st := m.Stats(m.ColumnIndex("year"))
	if !st.Min.Equal(num(1990)) || !st.Max.Equal(num(2000)) {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if vals, _ := m.DistinctValues("year", 0); st.NonNull != 2 || len(vals) != 2 {
		t.Errorf("nonnull=%d distinct=%d", st.NonNull, len(vals))
	}
	st = m.Stats(m.ColumnIndex("name"))
	if m.Vector("name").Dict().Size() != 2 || st.NonNull != 3 {
		t.Errorf("name stats: %+v, %d distinct", st, m.Vector("name").Dict().Size())
	}
}

// TestStatsOverNaN: a NaN is stored as NULL, so a column (NaN, 5, NaN)
// reads back as (NULL, 5, NULL) and its statistics are those of one 5; a
// column of NaNs and NULLs alone has no minimum or maximum.
func TestStatsOverNaN(t *testing.T) {
	tb := NewTable("gross", "gid",
		Column{Name: "gid", Type: sqlir.TypeNumber},
		Column{Name: "amount", Type: sqlir.TypeNumber},
		Column{Name: "lost", Type: sqlir.TypeNumber},
	)
	nan := num(math.NaN())
	tb.MustInsert(num(1), nan, nan)
	tb.MustInsert(num(2), num(5), sqlir.Null())
	tb.MustInsert(num(3), nan, nan)
	amount := tb.Vector("amount")
	for i, want := range []sqlir.Value{sqlir.Null(), num(5), sqlir.Null()} {
		if got := amount.Value(i); got.Kind != want.Kind || got.Num != want.Num {
			t.Errorf("amount row %d reads %s, want %s", i, got, want)
		}
	}
	st := tb.Stats(tb.ColumnIndex("amount"))
	vals, _ := tb.DistinctValues("amount", 0)
	if !st.Min.Equal(num(5)) || !st.Max.Equal(num(5)) || len(vals) != 1 || st.NonNull != 1 {
		t.Errorf("(NaN, 5, NaN): %+v, %d distinct; want min = max = 5, 1 distinct, 1 non-null", st, len(vals))
	}
	st = tb.Stats(tb.ColumnIndex("lost"))
	vals, _ = tb.DistinctValues("lost", 0)
	if !st.Min.IsNull() || !st.Max.IsNull() || len(vals) != 0 || st.NonNull != 0 {
		t.Errorf("(NaN, NULL, NaN): %+v, %d distinct; want no min or max, 0 distinct, 0 non-null", st, len(vals))
	}
}

func TestStatsEmptyTable(t *testing.T) {
	m := movieSchema().Table("movie")
	st := m.Stats(m.ColumnIndex("year"))
	if !st.Min.IsNull() || !st.Max.IsNull() || st.NonNull != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestDistinctValues(t *testing.T) {
	m := movieSchema().Table("movie")
	m.MustInsert(num(1), text("B"), num(1990), num(5))
	m.MustInsert(num(2), text("A"), num(2000), num(7))
	m.MustInsert(num(3), text("A"), sqlir.Null(), num(7))
	vals, err := m.DistinctValues("name", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || !vals[0].Equal(text("A")) || !vals[1].Equal(text("B")) {
		t.Errorf("distinct = %v", vals)
	}
	vals, _ = m.DistinctValues("name", 1)
	if len(vals) != 1 {
		t.Errorf("capped distinct = %v", vals)
	}
	if _, err := m.DistinctValues("nope", 0); err == nil {
		t.Error("missing column should error")
	}
}

// The schema's catalog resolves names to columns, which carry their types.
func TestSchemaResolve(t *testing.T) {
	s := movieSchema()
	ref, err := s.Catalog().Col("movie", "year")
	if err != nil || ref.Type() != sqlir.TypeNumber || ref.String() != "movie.year" {
		t.Errorf("resolve = %v %v %v", ref, ref.Type(), err)
	}
	if ref, err := s.Catalog().Col("movie", "nope"); err == nil {
		t.Errorf("missing column resolved: %v", ref)
	}
	if ref, err := s.Catalog().Col("nope", "x"); err == nil {
		t.Errorf("missing table resolved: %v", ref)
	}
	if sqlir.Star.Type() != sqlir.TypeNumber {
		t.Error("star should resolve as number")
	}
}

// A schema hands out one catalog even when its first interning races a
// clear of the intern: the second intern call gets a catalog of the same
// shape under another pointer, and returns the one the schema holds.
func TestSchemaCatalogIsOnePointer(t *testing.T) {
	s := movieSchema()
	first := s.intern()
	for i := range 70 {
		sqlir.InternCatalog([]sqlir.CatalogTable{{Name: fmt.Sprintf("clear%d", i), Columns: []string{"id"}}}, nil)
	}
	if second := s.intern(); second != first || s.Catalog() != first {
		t.Errorf("intern returned %p then %p; the schema holds %p", first, second, s.Catalog())
	}

	// Concurrent first calls, while distinct catalogs stream through the
	// intern, all get the pointer the schema keeps.
	for round := range 20 {
		s := movieSchema()
		got := make([]*sqlir.Catalog, 4)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sqlir.InternCatalog([]sqlir.CatalogTable{{Name: fmt.Sprintf("race%d_%d", round, w), Columns: []string{"id"}}}, nil)
				got[w] = s.Catalog()
			}()
		}
		wg.Wait()
		for w, c := range got {
			if c != s.Catalog() {
				t.Fatalf("round %d: caller %d got %p, the schema holds %p", round, w, c, s.Catalog())
			}
		}
	}
}

func TestNumColumnsAndTextColumns(t *testing.T) {
	s := movieSchema()
	if s.NumColumns() != 11 {
		t.Errorf("NumColumns = %d, want 11", s.NumColumns())
	}
	tc := s.TextColumns()
	if len(tc) != 3 { // actor.name, actor.gender, movie.name
		t.Errorf("TextColumns = %v", tc)
	}
}

func TestDatabaseStatsMemoized(t *testing.T) {
	s := movieSchema()
	db := NewDatabase("movies", s)
	m := s.Table("movie")
	m.MustInsert(num(1), text("A"), num(1990), num(5))
	ref := s.Catalog().MustCol("movie", "year")
	st := db.Stats(ref)
	if !st.Min.Equal(num(1990)) {
		t.Errorf("stats min = %v", st.Min)
	}
	// Insert clears the table's stats memo directly, so the next Stats call
	// recomputes from current rows.
	m.MustInsert(num(2), text("B"), num(1800), num(5))
	st = db.Stats(ref)
	if !st.Min.Equal(num(1800)) {
		t.Error("expected refreshed stats after insert")
	}
	// A frozen snapshot keeps its own permanent memo at the pinned state.
	snap := db.Snapshot()
	sst := snap.Stats(ref)
	m.MustInsert(num(3), text("C"), num(1700), num(5))
	sst2 := snap.Stats(ref)
	if !sst2.Min.Equal(sst.Min) || !sst2.Min.Equal(num(1800)) {
		t.Errorf("snapshot stats moved after insert: %v -> %v", sst.Min, sst2.Min)
	}
	st = db.Stats(ref)
	if !st.Min.Equal(num(1700)) {
		t.Error("live stats should see the third insert")
	}
}

func TestEpochPublication(t *testing.T) {
	s := movieSchema()
	db := NewDatabase("movies", s)
	m := s.Table("movie")
	if db.Epoch() != 0 {
		t.Errorf("fresh database epoch = %d", db.Epoch())
	}
	m.MustInsert(num(1), text("A"), num(1990), num(5))
	m.MustInsert(num(2), text("B"), num(1991), num(6))
	snap := db.Snapshot()
	if db.Epoch() != 1 || snap.Epoch() != 1 {
		t.Errorf("first snapshot epoch = %d/%d, want 1", db.Epoch(), snap.Epoch())
	}
	if !snap.Frozen() || db.Frozen() {
		t.Error("snapshot should be frozen, live database should not")
	}
	// Snapshots of an unchanged database are the same frozen instance —
	// that identity is what caches key by.
	if db.Snapshot() != snap {
		t.Error("unchanged database should memoize one snapshot per epoch")
	}
	// Failed inserts do not publish a new epoch.
	if err := m.Insert(num(3)); err == nil {
		t.Fatal("bad arity should error")
	}
	if got := db.Snapshot().Epoch(); got != 1 {
		t.Errorf("epoch after failed insert = %d, want 1", got)
	}
	// A mutation makes the next snapshot a new epoch; the old one is intact.
	m.MustInsert(num(3), text("C"), num(1992), num(7))
	snap2 := db.Snapshot()
	if snap2.Epoch() != 2 {
		t.Errorf("second snapshot epoch = %d, want 2", snap2.Epoch())
	}
	if got := snap.Table("movie").NumRows(); got != 2 {
		t.Errorf("epoch 1 rows = %d, want 2", got)
	}
	if got := snap2.Table("movie").NumRows(); got != 3 {
		t.Errorf("epoch 2 rows = %d, want 3", got)
	}
	// Tables untouched between epochs share one frozen table (and with it
	// the lazily built indexes).
	if snap.Table("actor") != snap2.Table("actor") {
		t.Error("untouched table should be shared across epochs")
	}
	// Frozen tables and databases reject mutation.
	if err := snap.Table("movie").Insert(num(9), text("Z"), num(2000), num(1)); err == nil {
		t.Error("insert into frozen table should error")
	}
	if _, err := snap.Append("movie", nil); err == nil {
		t.Error("append to frozen database should error")
	}
}

func TestTotalRows(t *testing.T) {
	s := movieSchema()
	db := NewDatabase("movies", s)
	s.Table("movie").MustInsert(num(1), text("A"), num(1990), num(5))
	s.Table("actor").MustInsert(num(1), text("X"), text("male"), num(1950))
	if db.TotalRows() != 2 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
	if db.Table("movie") == nil || db.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
}

func TestForeignKeyString(t *testing.T) {
	fk := ForeignKey{Table: "starring", Column: "aid", RefTable: "actor", RefColumn: "aid"}
	if fk.String() != "starring.aid -> actor.aid" {
		t.Errorf("fk string = %q", fk.String())
	}
}

package guidance

import (
	"math"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

func moviesSchema() *storage.Schema {
	actor := storage.NewTable("actor", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "gender", Type: sqlir.TypeText},
		storage.Column{Name: "birth_yr", Type: sqlir.TypeNumber},
	)
	movie := storage.NewTable("movie", "mid",
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "year", Type: sqlir.TypeNumber},
		storage.Column{Name: "revenue", Type: sqlir.TypeNumber},
	)
	starring := storage.NewTable("starring", "sid",
		storage.Column{Name: "sid", Type: sqlir.TypeNumber},
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(actor, movie, starring)
	s.AddForeignKey("starring", "aid", "actor", "aid")
	s.AddForeignKey("starring", "mid", "movie", "mid")
	return s
}

// movieCol is moviesSchema's column table.column.
func movieCol(table, column string) sqlir.ColumnRef {
	return moviesSchema().Catalog().MustCol(table, column)
}

func ctxFor(nlq string, lits ...sqlir.Value) *Context {
	return NewContext(nlq, lits, moviesSchema(), sqlir.NewQuery())
}

func sumProbs[T any](s []Scored[T]) float64 {
	t := 0.0
	for _, x := range s {
		t += x.Prob
	}
	return t
}

func assertNormalized[T any](t *testing.T, name string, s []Scored[T]) {
	t.Helper()
	if len(s) == 0 {
		t.Fatalf("%s: empty distribution", name)
	}
	if d := math.Abs(sumProbs(s) - 1); d > 1e-9 {
		t.Errorf("%s: probabilities sum to %v", name, sumProbs(s))
	}
	for _, x := range s {
		if x.Prob <= 0 || x.Prob > 1 {
			t.Errorf("%s: probability %v out of (0,1]", name, x.Prob)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Show names of movies starring actors, from before 1995!")
	want := []string{"show", "names", "of", "movies", "starring", "actors", "from", "before", "1995"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	got = Tokenize("birth_yr")
	if len(got) != 2 || got[0] != "birth" || got[1] != "yr" {
		t.Errorf("underscore split: %v", got)
	}
}

func TestRelated(t *testing.T) {
	if related("movie", "movie") != 1.0 {
		t.Error("exact match")
	}
	if related("movie", "films") != 0.8 {
		t.Error("synonym via table")
	}
	if related("publication", "papers") != 0.8 {
		t.Error("synonym forward")
	}
	if related("papers", "publication") != 0.8 {
		t.Error("synonym reverse")
	}
	if related("directed", "director") != 0.6 {
		t.Error("prefix stem")
	}
	if related("cat", "dog") != 0 {
		t.Error("unrelated")
	}
}

func TestContainsPhrase(t *testing.T) {
	toks := []string{"how", "many", "movies", "are", "there"}
	if !phrases("how many").in(toks) {
		t.Error("bigram")
	}
	if phrases("many how").in(toks) {
		t.Error("order matters")
	}
	if phrases("").in(toks) {
		t.Error("empty phrase")
	}
	if !phrases("nope", "movies").in(toks) {
		t.Error("any of several phrases")
	}
}

// Property 1 plumbing: every module's distribution sums to 1.
func TestAllModulesNormalized(t *testing.T) {
	m := NewLexicalModel()
	ctx := ctxFor("show the names of movies starring actors before 1995 ordered by year",
		sqlir.NewInt(1995))
	assertNormalized(t, "Keywords", m.Keywords(ctx))
	assertNormalized(t, "SelectCount", m.SelectCount(ctx))
	assertNormalized(t, "SelectColumn", m.SelectColumn(ctx, 0))
	assertNormalized(t, "SelectAgg", m.SelectAgg(ctx, 0, movieCol("movie", "year")))
	assertNormalized(t, "WhereCount", m.WhereCount(ctx))
	assertNormalized(t, "WhereConj", m.WhereConj(ctx))
	assertNormalized(t, "WhereColumn", m.WhereColumn(ctx, 0))
	assertNormalized(t, "WhereOp", m.WhereOp(ctx, movieCol("movie", "year")))
	assertNormalized(t, "WhereValue", m.WhereValue(ctx, movieCol("movie", "year"), sqlir.OpLt))
	assertNormalized(t, "HavingPresent", m.HavingPresent(ctx))
	assertNormalized(t, "HavingAggCol", m.HavingAggCol(ctx))
	assertNormalized(t, "HavingOp", m.HavingOp(ctx))
	assertNormalized(t, "HavingValue", m.HavingValue(ctx))
	assertNormalized(t, "OrderKey", m.OrderKey(ctx))
	assertNormalized(t, "OrderDir", m.OrderDir(ctx))
}

func top[T any](s []Scored[T]) T {
	best := 0
	for i := range s {
		if s[i].Prob > s[best].Prob {
			best = i
		}
	}
	return s[best].Class
}

func TestKeywordCues(t *testing.T) {
	m := NewLexicalModel()
	// Plain projection: no clauses.
	ks := top(m.Keywords(ctxFor("show all movie titles")))
	if ks.Where || ks.GroupBy || ks.OrderBy {
		t.Errorf("plain NLQ keywords = %+v", ks)
	}
	// Literal implies WHERE.
	ks = top(m.Keywords(ctxFor("movies released before 1995", sqlir.NewInt(1995))))
	if !ks.Where {
		t.Errorf("literal should imply WHERE: %+v", ks)
	}
	// "for each" implies GROUP BY.
	ks = top(m.Keywords(ctxFor("number of movies for each actor")))
	if !ks.GroupBy {
		t.Errorf("'for each' should imply GROUP BY: %+v", ks)
	}
	// "ordered" implies ORDER BY.
	ks = top(m.Keywords(ctxFor("movies ordered from earliest to most recent")))
	if !ks.OrderBy {
		t.Errorf("'ordered' should imply ORDER BY: %+v", ks)
	}
}

func TestSelectColumnLexicalMatch(t *testing.T) {
	m := NewLexicalModel()
	best := top(m.SelectColumn(ctxFor("list the titles of all movies"), 0))
	if best != movieCol("movie", "title") {
		t.Errorf("best column = %v", best)
	}
	best = top(m.SelectColumn(ctxFor("names of actors"), 0))
	if best != movieCol("actor", "name") {
		t.Errorf("best column = %v", best)
	}
}

func TestSelectColumnStarForCount(t *testing.T) {
	m := NewLexicalModel()
	s := m.SelectColumn(ctxFor("how many movies are there"), 0)
	if got := top(s); !got.IsStar() {
		t.Errorf("count NLQ should rank * first, got %v", got)
	}
}

func TestSelectAggCues(t *testing.T) {
	m := NewLexicalModel()
	year := movieCol("movie", "year")
	if got := top(m.SelectAgg(ctxFor("the average year of movies"), 0, year)); got != sqlir.AggAvg {
		t.Errorf("avg cue: %v", got)
	}
	if got := top(m.SelectAgg(ctxFor("list years"), 0, year)); got != sqlir.AggNone {
		t.Errorf("no cue: %v", got)
	}
	if got := top(m.SelectAgg(ctxFor("x"), 0, sqlir.Star)); got != sqlir.AggCount {
		t.Errorf("star forces count: %v", got)
	}
	// Text column excludes numeric aggregates entirely.
	name := movieCol("actor", "name")
	for _, s := range m.SelectAgg(ctxFor("average name"), 0, name) {
		if s.Class.NumericOnly() {
			t.Errorf("numeric-only agg %v offered on text column", s.Class)
		}
	}
}

func TestWhereOpCues(t *testing.T) {
	m := NewLexicalModel()
	year := movieCol("movie", "year")
	if got := top(m.WhereOp(ctxFor("movies before 1995"), year)); got != sqlir.OpLt {
		t.Errorf("before → <, got %v", got)
	}
	if got := top(m.WhereOp(ctxFor("movies after 2000"), year)); got != sqlir.OpGt {
		t.Errorf("after → >, got %v", got)
	}
	if got := top(m.WhereOp(ctxFor("movies from 1995"), year)); got != sqlir.OpEq {
		t.Errorf("default → =, got %v", got)
	}
	// Text columns never get ordering ops.
	name := movieCol("actor", "name")
	for _, s := range m.WhereOp(ctxFor("actors before 1995"), name) {
		if s.Class.Ordering() {
			t.Errorf("ordering op %v offered on text column", s.Class)
		}
	}
}

func TestWhereValueTypeFiltered(t *testing.T) {
	m := NewLexicalModel()
	ctx := ctxFor("movies named Gravity from 2013", sqlir.NewText("Gravity"), sqlir.NewInt(2013))
	year := movieCol("movie", "year")
	vals := m.WhereValue(ctx, year, sqlir.OpEq)
	if len(vals) != 1 || !vals[0].Class.Equal(sqlir.NewInt(2013)) {
		t.Errorf("year values = %v", vals)
	}
	title := movieCol("movie", "title")
	vals = m.WhereValue(ctx, title, sqlir.OpEq)
	if len(vals) != 1 || !vals[0].Class.Equal(sqlir.NewText("Gravity")) {
		t.Errorf("title values = %v", vals)
	}
	// LIKE wraps the literal in wildcards.
	vals = m.WhereValue(ctx, title, sqlir.OpLike)
	if len(vals) != 1 || vals[0].Class.Text != "%Gravity%" {
		t.Errorf("like values = %v", vals)
	}
	// No literals of the right type: empty distribution (branch dies).
	ctx2 := ctxFor("movies", sqlir.NewText("Gravity"))
	if vals := m.WhereValue(ctx2, year, sqlir.OpEq); len(vals) != 0 {
		t.Errorf("expected no numeric candidates: %v", vals)
	}
}

func TestOrderDirCues(t *testing.T) {
	m := NewLexicalModel()
	got := top(m.OrderDir(ctxFor("movies from earliest to most recent")))
	if got.Desc {
		t.Errorf("earliest-first should be ASC: %+v", got)
	}
	got = top(m.OrderDir(ctxFor("top movies from most to least revenue")))
	if !got.Desc {
		t.Errorf("most-first should be DESC: %+v", got)
	}
	// "top 3" proposes limit 3.
	s := m.OrderDir(ctxFor("top 3 movies by revenue", sqlir.NewInt(3)))
	found := false
	for _, x := range s {
		if x.Class.Limit == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("limit 3 not proposed: %v", s)
	}
}

func TestWhereCountTracksLiterals(t *testing.T) {
	m := NewLexicalModel()
	got := top(m.WhereCount(ctxFor("movies before 1995 or after 2000", sqlir.NewInt(1995), sqlir.NewInt(2000))))
	if got != 2 {
		t.Errorf("two literals → 2 predicates, got %d", got)
	}
}

func TestCandidateTablesRestrictedByFrom(t *testing.T) {
	schema := moviesSchema()
	q := sqlir.NewQuery()
	var err error
	if q.From, err = schema.Catalog().Path("movie"); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext("title year", nil, schema, q)
	for _, s := range NewLexicalModel().SelectColumn(ctx, 0) {
		if !s.Class.IsStar() && schema.Catalog().Name(s.Class.Table()) != "movie" {
			t.Errorf("column %v outside join path offered", s.Class)
		}
	}
}

func TestNormalizeDropsNonPositive(t *testing.T) {
	in := []Scored[int]{{Class: 1, Prob: 0.5}, {Class: 2}, {Class: 3, Prob: -1}, {Class: 4, Prob: 0.5}}
	out := Normalize(in)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Prob != 0.5 || out[1].Prob != 0.5 || out[0].Log != math.Log(0.5) || out[1].Log != math.Log(0.5) {
		t.Errorf("out = %v", out)
	}
	if Normalize([]Scored[int]{{Class: 1}}) != nil {
		t.Error("all-zero should normalize to nil")
	}
}

func TestOracleModelConcentratesOnGold(t *testing.T) {
	schema := moviesSchema()
	gold := sqlparse.MustParse(schema,
		"SELECT title FROM movie WHERE year < 1995 ORDER BY year ASC")
	m := NewOracleModel(gold, 0)
	ctx := NewContext("movies before 1995", []sqlir.Value{sqlir.NewInt(1995)}, schema, sqlir.NewQuery())

	ks := m.Keywords(ctx)
	assertNormalized(t, "oracle keywords", ks)
	best := top(ks)
	if !best.Where || best.GroupBy || !best.OrderBy {
		t.Errorf("oracle keywords = %+v", best)
	}
	if got := top(m.SelectCount(ctx)); got != 1 {
		t.Errorf("oracle select count = %d", got)
	}
	if got := top(m.SelectColumn(ctx, 0)); got != movieCol("movie", "title") {
		t.Errorf("oracle select col = %v", got)
	}
	if got := top(m.WhereOp(ctx, movieCol("movie", "year"))); got != sqlir.OpLt {
		t.Errorf("oracle op = %v", got)
	}
	if got := top(m.OrderDir(ctx)); got.Desc || got.Limit != 0 {
		t.Errorf("oracle dir = %+v", got)
	}
}

func TestOracleNoiseSpreadsMass(t *testing.T) {
	schema := moviesSchema()
	gold := sqlparse.MustParse(schema, "SELECT title FROM movie")
	m := NewOracleModel(gold, 0.5)
	ctx := NewContext("titles", nil, schema, sqlir.NewQuery())
	s := m.SelectColumn(ctx, 0)
	assertNormalized(t, "noisy oracle", s)
	var goldP float64
	for _, x := range s {
		if x.Class == movieCol("movie", "title") {
			goldP = x.Prob
		}
	}
	if math.Abs(goldP-0.5) > 1e-9 {
		t.Errorf("gold mass = %v, want 0.5", goldP)
	}
}

func TestOracleAddsMissingGoldClass(t *testing.T) {
	schema := moviesSchema()
	// Gold uses a literal the context does not know: the oracle must add it.
	gold := sqlparse.MustParse(schema, "SELECT title FROM movie WHERE year = 1937")
	m := NewOracleModel(gold, 0.1)
	// Simulate the enumeration state: one predicate with col and op decided
	// and the value slot open.
	q := sqlir.NewQuery()
	q.WhereState = sqlir.ClausePresent
	q.Where.CountSet = true
	q.Where.Preds = []sqlir.Predicate{{
		Col: movieCol("movie", "year"), ColSet: true,
		Op: sqlir.OpEq, OpSet: true,
	}}
	ctx := NewContext("movies", nil, schema, q)
	vals := m.WhereValue(ctx, movieCol("movie", "year"), sqlir.OpEq)
	if len(vals) != 1 || !vals[0].Class.Equal(sqlir.NewInt(1937)) {
		t.Errorf("oracle values = %v", vals)
	}
}

// An oracle whose gold class is missing adds it to a copy of the
// fallback's answer: the fallback memoises that answer and hands the same
// slice out again, so neither its classes nor its spare capacity change, and
// the oracle answers the second call as the first.
func TestOracleLeavesFallbackAnswerUntouched(t *testing.T) {
	schema := moviesSchema()
	year := movieCol("movie", "year")
	gold := sqlparse.MustParse(schema, "SELECT title FROM movie WHERE year = 1937")
	m := NewOracleModel(gold, 0.1)
	q := sqlir.NewQuery()
	q.WhereState = sqlir.ClausePresent
	q.Where.CountSet = true
	q.Where.Preds = []sqlir.Predicate{{Col: year, ColSet: true, Op: sqlir.OpEq, OpSet: true}}
	// Three literals grow the fallback's answer to a capacity of four.
	ctx := NewContext("movies", []sqlir.Value{sqlir.NewInt(1990), sqlir.NewInt(2000), sqlir.NewInt(2010)}, schema, q)
	cands := m.Fallback.WhereValue(ctx, year, sqlir.OpEq)
	if len(cands) == cap(cands) {
		t.Fatalf("the fallback's answer has no spare capacity (len %d): the test proves nothing", len(cands))
	}
	was := slices.Clone(cands[:cap(cands)])
	first := m.WhereValue(ctx, year, sqlir.OpEq)
	second := m.WhereValue(ctx, year, sqlir.OpEq)
	if got := m.Fallback.WhereValue(ctx, year, sqlir.OpEq); &got[0] != &cands[0] {
		t.Fatal("the fallback does not hand out its memoised answer again")
	}
	if !slices.Equal(cands[:cap(cands)], was) {
		t.Errorf("the oracle wrote into the fallback's answer:\n was %v\n now %v", was, cands[:cap(cands)])
	}
	if !slices.Equal(first, second) || !first[len(first)-1].Class.Equal(sqlir.NewInt(1937)) {
		t.Errorf("oracle answered %v, then %v; want the gold value 1937 added to both", first, second)
	}
}

// The built-in models borrow Context.Query; a wrapper borrows only if it
// says so, and the oracle borrows exactly when its fallback does.
func TestBorrows(t *testing.T) {
	wrapped := struct{ Model }{NewLexicalModel()}
	for _, tc := range []struct {
		name string
		m    Model
		want bool
	}{
		{"lexical", NewLexicalModel(), true},
		{"oracle", NewOracleModel(sqlir.NewQuery(), 0.1), true},
		{"wrapper", wrapped, false},
		{"oracle over a wrapper", &OracleModel{Gold: sqlir.NewQuery(), Fallback: wrapped}, false},
	} {
		if got := Borrows(tc.m); got != tc.want {
			t.Errorf("Borrows(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLiteralColumnsGrounding(t *testing.T) {
	schema := moviesSchema()
	// Populate so containment checks have data.
	schema.Table("movie").MustInsert(sqlir.NewInt(1), sqlir.NewText("Gravity"), sqlir.NewInt(2013), sqlir.NewInt(700))
	schema.Table("actor").MustInsert(sqlir.NewInt(1), sqlir.NewText("Tom Hanks"), sqlir.NewText("male"), sqlir.NewInt(1956))
	db := storage.NewDatabase("g", schema)
	ctx := NewContextDB("movies named Gravity from 2013",
		[]sqlir.Value{sqlir.NewText("Gravity"), sqlir.NewInt(2013)}, db, sqlir.NewQuery())
	lc := ctx.LiteralColumns()
	if lc[movieCol("movie", "title")] == 0 {
		t.Error("movie.title contains 'Gravity'")
	}
	if lc[movieCol("actor", "name")] != 0 {
		t.Error("actor.name does not contain 'Gravity'")
	}
	// Numeric grounding: year range covers 2013.
	if lc[movieCol("movie", "year")] == 0 {
		t.Error("movie.year covers 2013")
	}
	// Memoized: second call returns the same map.
	if got := ctx.LiteralColumns(); len(got) != len(lc) {
		t.Error("memoization broken")
	}
	// Without a database, grounding is disabled.
	ctx2 := NewContext("x", []sqlir.Value{sqlir.NewText("Gravity")}, schema, nil)
	if ctx2.LiteralColumns() != nil {
		t.Error("no DB should mean no grounding")
	}
}

func TestWhereColumnPrefersGroundedLiteral(t *testing.T) {
	schema := moviesSchema()
	schema.Table("movie").MustInsert(sqlir.NewInt(1), sqlir.NewText("Gravity"), sqlir.NewInt(2013), sqlir.NewInt(700))
	db := storage.NewDatabase("g", schema)
	ctx := NewContextDB("show things about Gravity", []sqlir.Value{sqlir.NewText("Gravity")}, db, sqlir.NewQuery())
	best := top(NewLexicalModel().WhereColumn(ctx, 0))
	if best != movieCol("movie", "title") {
		t.Errorf("grounded literal should pick movie.title, got %v", best)
	}
}

package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

func movieSchema() *storage.Schema {
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

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Complete() {
		t.Fatalf("parsed query should be complete: %s", q)
	}
	if len(q.Select) != 1 || q.Select[0].Col != movieSchema().Catalog().MustCol("movie", "title") {
		t.Errorf("select = %v", q.Select)
	}
	if q.From.Len() != 1 || q.From.String() != "movie" {
		t.Errorf("from = %v", q.From)
	}
}

func TestParseAliasResolution(t *testing.T) {
	q, err := Parse(movieSchema(),
		"SELECT m.title, a.name FROM actor AS a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Col.String() != "movie.title" || q.Select[1].Col.String() != "actor.name" {
		t.Errorf("aliases not resolved: %v", q.Select)
	}
	if len(q.From.Edges()) != 2 {
		t.Fatalf("edges = %v", q.From.Edges())
	}
	if on := q.From.Written(q.From.Edges()[0]); on.Left.String() != "actor.aid" || on.Right.String() != "starring.aid" {
		t.Errorf("edge0 = %v", on)
	}
}

func TestParseUnqualifiedColumns(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie WHERE year > 1995")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Preds[0].Col.String() != "movie.year" {
		t.Errorf("unqualified resolution failed: %v", q.Where.Preds)
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	_, err := Parse(movieSchema(),
		"SELECT aid FROM actor JOIN starring ON actor.aid = starring.aid")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
}

func TestParseWhereOps(t *testing.T) {
	for _, c := range []struct {
		sql string
		op  sqlir.Op
	}{
		{"year = 1995", sqlir.OpEq},
		{"year != 1995", sqlir.OpNe},
		{"year <> 1995", sqlir.OpNe},
		{"year < 1995", sqlir.OpLt},
		{"year > 1995", sqlir.OpGt},
		{"year <= 1995", sqlir.OpLe},
		{"year >= 1995", sqlir.OpGe},
		{"title LIKE '%gump%'", sqlir.OpLike},
	} {
		q, err := Parse(movieSchema(), "SELECT title FROM movie WHERE "+c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if q.Where.Preds[0].Op != c.op {
			t.Errorf("%s: op = %v, want %v", c.sql, q.Where.Preds[0].Op, c.op)
		}
	}
}

func TestParseAndOr(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie WHERE year < 1995 OR year > 2000")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Conj != sqlir.LogicOr || len(q.Where.Preds) != 2 {
		t.Errorf("where = %+v", q.Where)
	}
	q, err = Parse(movieSchema(), "SELECT title FROM movie WHERE year > 1995 AND year < 2000 AND revenue > 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where.Conj != sqlir.LogicAnd || len(q.Where.Preds) != 3 {
		t.Errorf("where = %+v", q.Where)
	}
}

func TestParseMixedAndOrRejected(t *testing.T) {
	_, err := Parse(movieSchema(),
		"SELECT title FROM movie WHERE year > 1995 AND year < 2000 OR revenue > 5")
	if err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Errorf("want mixed AND/OR rejection, got %v", err)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT COUNT(*), MAX(year), avg(revenue) FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Agg != sqlir.AggCount || !q.Select[0].Col.IsStar() {
		t.Errorf("item0 = %v", q.Select[0])
	}
	if q.Select[1].Agg != sqlir.AggMax || q.Select[2].Agg != sqlir.AggAvg {
		t.Errorf("aggs = %v", q.Select)
	}
}

func TestParseGroupByHaving(t *testing.T) {
	q, err := Parse(movieSchema(),
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name HAVING COUNT(*) > 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupByState != sqlir.ClausePresent || len(q.GroupBy) != 1 {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if q.HavingState != sqlir.ClausePresent || q.Having.Agg != sqlir.AggCount ||
		q.Having.Op != sqlir.OpGt || !q.Having.Val.Equal(sqlir.NewInt(5)) {
		t.Errorf("having = %v", q.Having)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie ORDER BY year DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderByState != sqlir.ClausePresent || !q.OrderBy.Desc || q.Limit != 3 {
		t.Errorf("order/limit = %+v limit=%d", q.OrderBy, q.Limit)
	}
	q, err = Parse(movieSchema(), "SELECT title FROM movie ORDER BY year ASC")
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderBy.Desc || q.Limit != 0 {
		t.Errorf("asc parse: %+v", q.OrderBy)
	}
	q, err = Parse(movieSchema(),
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name ORDER BY COUNT(*) DESC")
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderBy.Key.Agg != sqlir.AggCount {
		t.Errorf("order key = %v", q.OrderBy.Key)
	}
}

func TestParseDistinct(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT DISTINCT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("distinct not parsed")
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie WHERE title = 'it''s a movie'")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Where.Preds[0].Val.Equal(sqlir.NewText("it's a movie")) {
		t.Errorf("val = %v", q.Where.Preds[0].Val)
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse(movieSchema(), "SELECT title FROM movie WHERE year > -5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Where.Preds[0].Val.Equal(sqlir.NewNumber(-5)) {
		t.Errorf("val = %v", q.Where.Preds[0].Val)
	}
}

func TestParseQuotedIdentifier(t *testing.T) {
	q, err := Parse(movieSchema(), `SELECT movie."title" FROM movie`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Col.String() != "movie.title" {
		t.Errorf("quoted ident: %v", q.Select[0])
	}
}

// parseErrorCases are statements Parse must reject, each with a fragment of
// the error it must give.
var parseErrorCases = []struct {
	sql  string
	want string
}{
	{"", `expected "select"`},
	{"SELECT", "expected column reference"},
	{"SELECT title", `expected "from"`},
	{"SELECT title FROM nosuch", "unknown table"},
	{"SELECT nosuch FROM movie", "not found"},
	{"SELECT title FROM movie WHERE", "expected column reference"},
	{"SELECT title FROM movie WHERE year", "expected operator"},
	{"SELECT title FROM movie WHERE year >", "expected literal"},
	{"SELECT title FROM movie LIMIT x", "LIMIT requires a number"},
	{"SELECT title FROM movie LIMIT 0", "bad LIMIT"},
	{"SELECT title FROM movie LIMIT 3 3", "trailing input"},
	{"SELECT * FROM movie", "only supported under COUNT"},
	{"SELECT movie.nope FROM movie", "sqlir: unknown column movie.nope"},
	{"SELECT title FROM movie WHERE m.nope > 1", `sqlparse: unknown table "m"`},
	{"SELECT title FROM movie JOIN movie ON movie.mid = movie.mid", "joined twice"},
	{"SELECT title FROM movie WHERE title = 'unterminated", "unterminated string"},
	{"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name HAVING year > 5", "HAVING requires an aggregate"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(movieSchema(), c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want containing %q", c.sql, err, c.want)
		}
	}
}

// badJoinEdges are ON conditions that do not join a new FROM table to the
// tables before it, each with the error it must give: one naming the edge.
var badJoinEdges = []struct {
	sql  string
	want string
}{
	{"SELECT COUNT(*) FROM actor JOIN starring ON actor.aid = actor.aid",
		"join edge actor.aid = actor.aid joins tables already joined"},
	{"SELECT COUNT(*) FROM actor JOIN starring ON starring.aid = starring.aid",
		"join edge starring.aid = starring.aid joins no table joined before it"},
	{"SELECT COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.aid = a.aid",
		"join edge starring.aid = actor.aid joins tables already joined"},
	{"SELECT COUNT(*) FROM actor JOIN starring ON starring.mid = movie.mid JOIN movie ON starring.aid = actor.aid",
		"join edge starring.mid = movie.mid joins no table joined before it"},
	{"SELECT COUNT(*) FROM actor JOIN starring ON actor.aid = movie.mid",
		"join edge actor.aid = movie.mid names table movie, which is not in FROM"},
}

// TestParseRejectsJoinEdgeOffThePath: a join path whose ON conditions do not
// grow it one new table at a time used to parse, print as SQL that does not
// parse again (FROM actor JOIN actor ...) and fail only when executed.
func TestParseRejectsJoinEdgeOffThePath(t *testing.T) {
	for _, c := range badJoinEdges {
		q, err := Parse(movieSchema(), c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want containing %q (parsed as %v)", c.sql, err, c.want, q)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic")
		}
	}()
	MustParse(movieSchema(), "not sql")
}

// roundTripSQL are statements whose rendering must parse back to the same
// canonical query.
var roundTripSQL = []string{
	"SELECT title FROM movie",
	"SELECT DISTINCT title, year FROM movie",
	"SELECT COUNT(*) FROM movie WHERE year > 1995",
	"SELECT a.name FROM actor a JOIN starring s ON s.aid = a.aid",
	"SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid WHERE a.gender = 'male' AND m.year < 1995 ORDER BY m.year ASC",
	"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name HAVING COUNT(*) > 5 ORDER BY COUNT(*) DESC LIMIT 10",
	"SELECT title FROM movie WHERE year < 1995 OR year > 2000",
}

// TestParsePrintRoundTrip parses, prints, re-parses and checks canonical
// equality — the parser/printer agreement property.
func TestParsePrintRoundTrip(t *testing.T) {
	schema := movieSchema()
	for _, sql := range roundTripSQL {
		q, err := Parse(schema, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if err := roundTrip(schema, q); err != nil {
			t.Error(err)
		}
	}
}

// roundTrip checks that q's rendering parses back to q's canonical form.
func roundTrip(schema *storage.Schema, q *sqlir.Query) error {
	out := q.String()
	q2, err := Parse(schema, out)
	if err != nil {
		return fmt.Errorf("re-parse %q: %v", out, err)
	}
	if !sqlir.Equivalent(q, q2) {
		return fmt.Errorf("round trip mismatch:\n  in:  %s\n  out: %s", q.Canonical(), q2.Canonical())
	}
	return nil
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex("SELECT a.b, 'x''y' >= -3.5 <> != <=")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokIdent, tokSymbol, tokIdent, tokSymbol,
		tokString, tokSymbol, tokNumber, tokSymbol, tokSymbol, tokSymbol, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v (%q)", i, toks[i].kind, k, toks[i].text)
		}
	}
	if toks[5].text != "x'y" {
		t.Errorf("string literal = %q", toks[5].text)
	}
	if toks[7].text != "-3.5" {
		t.Errorf("number = %q", toks[7].text)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex(`"unterminated`); err == nil {
		t.Error("unterminated quoted identifier should fail")
	}
	if _, err := lex("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestLexerMinusIsOperatorContext(t *testing.T) {
	// After an identifier, '-' is not a negative-number start.
	if _, err := lex("a - b"); err == nil {
		t.Error("bare minus outside value position should fail (unsupported)")
	}
	// After '=', it is a negative literal.
	toks, err := lex("a = -5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].kind != tokNumber || toks[2].text != "-5" {
		t.Errorf("negative literal = %+v", toks[2])
	}
}

package sqlexec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

func text(s string) sqlir.Value { return sqlir.NewText(s) }
func num(f float64) sqlir.Value { return sqlir.NewNumber(f) }

// emptyMovieDB builds the §2 movie database's schema with no rows.
func emptyMovieDB() *storage.Database {
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
	return storage.NewDatabase("movies", s)
}

// movieDB builds the §2 movie database with the motivating example's data.
func movieDB() *storage.Database {
	db := emptyMovieDB()
	actor, movie, starring := db.Table("actor"), db.Table("movie"), db.Table("starring")

	actor.MustInsert(num(1), text("Tom Hanks"), text("male"), num(1956))
	actor.MustInsert(num(2), text("Sandra Bullock"), text("female"), num(1964))
	actor.MustInsert(num(3), text("Brad Pitt"), text("male"), num(1963))

	movie.MustInsert(num(1), text("Forrest Gump"), num(1994), num(678))
	movie.MustInsert(num(2), text("Gravity"), num(2013), num(723))
	movie.MustInsert(num(3), text("Fight Club"), num(1999), num(101))
	movie.MustInsert(num(4), text("Cast Away"), num(2000), num(429))

	starring.MustInsert(num(1), num(1), num(1)) // Hanks in Forrest Gump
	starring.MustInsert(num(2), num(2), num(2)) // Bullock in Gravity
	starring.MustInsert(num(3), num(3), num(3)) // Pitt in Fight Club
	starring.MustInsert(num(4), num(1), num(4)) // Hanks in Cast Away

	return db
}

func run(t *testing.T, db *storage.Database, sql string) *Result {
	t.Helper()
	q, err := sqlparse.Parse(db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := Execute(db, q)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestExecuteProjection(t *testing.T) {
	res := run(t, movieDB(), "SELECT title, year FROM movie")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Types[0] != sqlir.TypeText || res.Types[1] != sqlir.TypeNumber {
		t.Errorf("types = %v", res.Types)
	}
	if !res.Rows[0][0].Equal(text("Forrest Gump")) {
		t.Errorf("row0 = %v", res.Rows[0])
	}
}

func TestExecuteWhereEq(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie WHERE year = 1994")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Forrest Gump")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteWhereOr(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie WHERE year < 1995 OR year > 2000")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteWhereAnd(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie WHERE year > 1995 AND revenue < 200")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Fight Club")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteLike(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie WHERE title LIKE '%gump%'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Forrest Gump")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteTwoHopJoin(t *testing.T) {
	res := run(t, movieDB(),
		"SELECT m.title, a.name FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid WHERE a.name = 'Tom Hanks'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	titles := map[string]bool{}
	for _, r := range res.Rows {
		titles[r[0].Text] = true
	}
	if !titles["Forrest Gump"] || !titles["Cast Away"] {
		t.Errorf("titles = %v", titles)
	}
}

// TestExecuteMotivatingExample reproduces the paper's §2 example: CQ3
// returns Forrest Gump (male actor, pre-1995) and Gravity (post-2000),
// while CQ1 excludes Gravity (Sandra Bullock is not male).
func TestExecuteMotivatingExample(t *testing.T) {
	db := movieDB()
	cq1 := "SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid " +
		"WHERE a.gender = 'male' AND year < 1995 ORDER BY m.year ASC"
	res := run(t, db, cq1)
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Forrest Gump")) {
		t.Errorf("CQ1-style rows = %v", res.Rows)
	}
	cq3ish := "SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid " +
		"WHERE m.year < 1995 OR m.year > 2000 ORDER BY m.year ASC"
	res = run(t, db, cq3ish)
	if len(res.Rows) != 2 {
		t.Fatalf("CQ3-style rows = %v", res.Rows)
	}
	if !res.Rows[0][0].Equal(text("Forrest Gump")) || !res.Rows[1][0].Equal(text("Gravity")) {
		t.Errorf("order wrong: %v", res.Rows)
	}
}

func TestExecuteAggregatesNoGroup(t *testing.T) {
	res := run(t, movieDB(), "SELECT COUNT(*), MIN(year), MAX(year), SUM(revenue), AVG(revenue) FROM movie")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if !r[0].Equal(num(4)) || !r[1].Equal(num(1994)) || !r[2].Equal(num(2013)) {
		t.Errorf("count/min/max = %v", r)
	}
	if !r[3].Equal(num(678 + 723 + 101 + 429)) {
		t.Errorf("sum = %v", r[3])
	}
	if !r[4].Equal(num((678.0 + 723 + 101 + 429) / 4)) {
		t.Errorf("avg = %v", r[4])
	}
}

func TestExecuteCountColumnSkipsNulls(t *testing.T) {
	db := movieDB()
	db.Table("movie").MustInsert(num(9), text("Null Movie"), sqlir.Null(), sqlir.Null())
	res := run(t, db, "SELECT COUNT(year), COUNT(*) FROM movie")
	if !res.Rows[0][0].Equal(num(4)) || !res.Rows[0][1].Equal(num(5)) {
		t.Errorf("counts = %v", res.Rows[0])
	}
}

func TestExecuteGroupBy(t *testing.T) {
	res := run(t, movieDB(),
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	counts := map[string]float64{}
	for _, r := range res.Rows {
		counts[r[0].Text] = r[1].Num
	}
	if counts["Tom Hanks"] != 2 || counts["Sandra Bullock"] != 1 || counts["Brad Pitt"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestExecuteHaving(t *testing.T) {
	res := run(t, movieDB(),
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Tom Hanks")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteOrderByAsc(t *testing.T) {
	res := run(t, movieDB(), "SELECT title, year FROM movie ORDER BY year ASC")
	years := []float64{}
	for _, r := range res.Rows {
		years = append(years, r[1].Num)
	}
	for i := 1; i < len(years); i++ {
		if years[i-1] > years[i] {
			t.Fatalf("not ascending: %v", years)
		}
	}
}

func TestExecuteOrderByDescLimit(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie ORDER BY revenue DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[0][0].Equal(text("Gravity")) || !res.Rows[1][0].Equal(text("Forrest Gump")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteOrderByAggregate(t *testing.T) {
	res := run(t, movieDB(),
		"SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name ORDER BY COUNT(*) DESC LIMIT 1")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Tom Hanks")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteDistinct(t *testing.T) {
	res := run(t, movieDB(), "SELECT DISTINCT a.gender FROM actor a")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteEmptyResult(t *testing.T) {
	res := run(t, movieDB(), "SELECT title FROM movie WHERE year > 3000")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteAggregateOverEmpty(t *testing.T) {
	res := run(t, movieDB(), "SELECT COUNT(*), SUM(revenue) FROM movie WHERE year > 3000")
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate over empty should yield one row: %v", res.Rows)
	}
	if !res.Rows[0][0].Equal(num(0)) || !res.Rows[0][1].IsNull() {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestExecuteNullJoinKeysDropped(t *testing.T) {
	db := movieDB()
	db.Table("starring").MustInsert(num(9), sqlir.Null(), num(1))
	res := run(t, db, "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid")
	if len(res.Rows) != 4 {
		t.Errorf("null join keys must not match: %v", res.Rows)
	}
}

func TestExecuteIncompleteQueryRejected(t *testing.T) {
	q := sqlir.NewQuery()
	if _, err := Execute(movieDB(), q); err == nil {
		t.Error("incomplete query should be rejected")
	}
	if _, err := Execute(movieDB(), nil); err == nil {
		t.Error("nil query should be rejected")
	}
}

func TestExecuteUnknownTableInPath(t *testing.T) {
	db := movieDB()
	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie")
	q.From.Tables[0] = "nope"
	if _, err := Execute(db, q); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("err = %v", err)
	}
}

func TestExecuteDisconnectedEdge(t *testing.T) {
	db := movieDB()
	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie")
	q.From.Tables = append(q.From.Tables, "actor")
	q.From.Edges = append(q.From.Edges, sqlir.JoinEdge{
		FromTable: "starring", FromColumn: "aid", ToTable: "actor", ToColumn: "aid",
	})
	if _, err := Execute(db, q); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("err = %v", err)
	}
}

func TestExecuteColumnOutsidePath(t *testing.T) {
	db := movieDB()
	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie")
	q.Select[0].Col = sqlir.ColumnRef{Table: "actor", Column: "name"}
	if _, err := Execute(db, q); err == nil || !strings.Contains(err.Error(), "not in join path") {
		t.Errorf("err = %v", err)
	}
}

func TestExecuteOrderStability(t *testing.T) {
	// Rows with equal keys keep their base order (stable sort).
	db := movieDB()
	db.Table("movie").MustInsert(num(5), text("Twin A"), num(2010), num(1))
	db.Table("movie").MustInsert(num(6), text("Twin B"), num(2010), num(1))
	res := run(t, db, "SELECT title FROM movie WHERE year = 2010 ORDER BY year ASC")
	if !res.Rows[0][0].Equal(text("Twin A")) || !res.Rows[1][0].Equal(text("Twin B")) {
		t.Errorf("stability broken: %v", res.Rows)
	}
}

// Queries that do not bind fail when their plan is built: whatever the data
// — over the movie database and over an empty copy of it — with one error,
// and before any row is read. The reference executor raises its errors
// lazily, so a predicate outside the path behind an always-false conjunct,
// or any defect over an empty table, used to go unnoticed there; wherever
// the reference does fail, the text is its text.
func TestUnboundQueriesFailAtPlanTime(t *testing.T) {
	full, empty := movieDB(), emptyMovieDB()
	outside := sqlir.ColumnRef{Table: "actor", Column: "name"}
	mutations := map[string]func(q *sqlir.Query){
		"projection outside path": func(q *sqlir.Query) { q.Select[0].Col = outside },
		"predicate outside path, reached": func(q *sqlir.Query) {
			q.Where.Preds = append(q.Where.Preds, pred("actor", "name", sqlir.OpEq, text("x")))
		},
		"predicate outside path, never reached": func(q *sqlir.Query) {
			q.Where.Preds = []sqlir.Predicate{pred("movie", "year", sqlir.OpGt, num(3000)), pred("actor", "name", sqlir.OpEq, text("x"))}
		},
		"order key outside path": func(q *sqlir.Query) {
			q.OrderByState = sqlir.ClausePresent
			q.OrderBy = &sqlir.OrderBy{Key: sqlir.OrderKey{Col: outside}, KeySet: true, DirSet: true}
		},
		"HAVING and projection outside path": func(q *sqlir.Query) {
			q.Select[0] = sqlir.SelectItem{Agg: sqlir.AggMax, AggSet: true, Col: outside, ColSet: true}
			q.HavingState = sqlir.ClausePresent
			q.Having = &sqlir.HavingExpr{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.ColumnRef{Table: "actor", Column: "aid"}, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: num(0), ValSet: true}
		},
		"unknown column": func(q *sqlir.Query) { q.Select[0].Col.Column = "nope" },
		"unknown root":   func(q *sqlir.Query) { q.From = pathOf("nope") },
		"SUM over star": func(q *sqlir.Query) {
			q.Select[0] = sqlir.SelectItem{Agg: sqlir.AggSum, AggSet: true, Col: sqlir.Star, ColSet: true}
		},
		"disconnected edge": func(q *sqlir.Query) {
			q.From = &sqlir.JoinPath{Tables: []string{"movie", "actor"}, Edges: []sqlir.JoinEdge{
				{FromTable: "starring", FromColumn: "aid", ToTable: "actor", ToColumn: "aid"}}}
		},
		"edge on unknown column": func(q *sqlir.Query) {
			q.From = &sqlir.JoinPath{Tables: []string{"movie", "starring"}, Edges: []sqlir.JoinEdge{
				{FromTable: "starring", FromColumn: "nope", ToTable: "movie", ToColumn: "mid"}}}
		},
	}
	for name, mutate := range mutations {
		q := sqlparse.MustParse(full.Schema, "SELECT title FROM movie WHERE year > 1990 AND revenue > 1")
		mutate(q)
		var want string
		for _, db := range []*storage.Database{full, empty} {
			c := NewJoinCache(db)
			_, err := c.Execute(q)
			if err == nil {
				t.Errorf("%s over %d movies: no error", name, db.Table("movie").NumRows())
				continue
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Errorf("%s: error %q over the empty copy, %q over the movies", name, err, want)
			}
			if _, aerr := c.AskCtx(context.Background(), q, anyRow{}); aerr == nil || aerr.Error() != err.Error() {
				t.Errorf("%s: AskCtx error %v, ExecuteCtx %v", name, aerr, err)
			}
			if st := c.Stats(); st != (PipelineStats{}) {
				t.Errorf("%s: a query that does not bind read rows: %+v", name, st)
			}
			if _, rerr := executeReference(context.Background(), db, q); rerr != nil && rerr.Error() != err.Error() {
				t.Errorf("%s: error %q, reference %q", name, err, rerr)
			}
		}
	}
}

// Probes that do not bind fail at plan time too: a flat and a grouped probe
// reading a column outside their path fail over an empty table, where the
// reference finds no tuple to fail on, as they do over the movies. A
// disjunction with a second defect in its AndPreds reports the one the
// reference meets first: the disjunction's, as no movie is from after 3000.
func TestUnboundProbesFailAtPlanTime(t *testing.T) {
	outside := sqlir.ColumnRef{Table: "actor", Column: "gender"}
	probes := map[string]ExistsQuery{
		"flat": {From: pathOf("movie"), Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{pred("movie", "year", sqlir.OpGt, num(1990)), pred("actor", "gender", sqlir.OpEq, text("male"))}},
		"grouped": {From: pathOf("movie"), Conj: sqlir.LogicAnd,
			GroupBy: []sqlir.ColumnRef{outside},
			Havings: []sqlir.HavingExpr{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: num(1), ValSet: true}}},
		"disjunction": {From: pathOf("movie"), Conj: sqlir.LogicOr,
			Preds:    []sqlir.Predicate{pred("movie", "year", sqlir.OpGt, num(3000)), pred("actor", "gender", sqlir.OpEq, text("male"))},
			AndPreds: []sqlir.Predicate{pred("actor", "name", sqlir.OpEq, text("Tom Hanks"))}},
	}
	const want = "sqlexec: column actor.gender not in join path"
	for name, eq := range probes {
		for _, db := range []*storage.Database{movieDB(), emptyMovieDB()} {
			c := NewJoinCache(db)
			if _, err := c.Exists(eq); err == nil || err.Error() != want {
				t.Errorf("%s over %d movies: error %v, want %q", name, db.Table("movie").NumRows(), err, want)
			}
			if st := c.Stats(); st != (PipelineStats{}) {
				t.Errorf("%s: a probe that does not bind was streamed: %+v", name, st)
			}
		}
		if _, err := ExistsReference(movieDB(), eq); err == nil || err.Error() != want {
			t.Errorf("%s: reference error %v, want %q", name, err, want)
		}
		if _, err := ExistsReference(emptyMovieDB(), eq); err != nil {
			t.Errorf("%s: the reference now fails over an empty table (%v): the case is no longer shown", name, err)
		}
	}
}

// anyRow asks whether a result has a row.
type anyRow struct{}

func (anyRow) Columns([]sqlir.Type) bool   { return false }
func (anyRow) Relevant([]sqlir.Value) bool { return true }
func (anyRow) Row([]sqlir.Value) bool      { return true }
func (anyRow) Answer(rows int) bool        { return rows > 0 }

// DISTINCT under ORDER BY a key that is not projected, with a LIMIT: the
// top-k sink trims to its best rows as it goes, and DISTINCT must keep each
// value's first arrival, not its best-ranked one. Group 1 holds X ranked 5;
// group 2 holds X ranked 1, Z ranked 3 and enough other rows to make the
// sink trim. The first arrivals are X(5) and Z(3): Z.
func TestExecuteDistinctTopKTrim(t *testing.T) {
	g := storage.NewTable("g", "gid", storage.Column{Name: "gid", Type: sqlir.TypeNumber})
	e := storage.NewTable("e", "eid",
		storage.Column{Name: "eid", Type: sqlir.TypeNumber},
		storage.Column{Name: "gid", Type: sqlir.TypeNumber},
		storage.Column{Name: "a", Type: sqlir.TypeText},
		storage.Column{Name: "b", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(g, e)
	s.AddForeignKey("e", "gid", "g", "gid")
	g.MustInsert(num(1))
	g.MustInsert(num(2))
	e.MustInsert(num(1), num(1), text("X"), num(5))
	e.MustInsert(num(2), num(2), text("X"), num(1))
	e.MustInsert(num(3), num(2), text("Z"), num(3))
	for i := 0; i < 40; i++ {
		e.MustInsert(num(float64(4+i)), num(2), text(fmt.Sprintf("Y%02d", i)), num(float64(4+i)))
	}
	db := storage.NewDatabase("parts", s)

	for _, sql := range []string{
		"SELECT DISTINCT e.a FROM g JOIN e ON g.gid = e.gid ORDER BY e.b ASC LIMIT 1",
		"SELECT DISTINCT e.a FROM g JOIN e ON g.gid = e.gid ORDER BY e.b ASC LIMIT 2",
		"SELECT DISTINCT e.a, e.b FROM g JOIN e ON g.gid = e.gid ORDER BY e.b ASC LIMIT 1",
		"SELECT DISTINCT e.a FROM g JOIN e ON g.gid = e.gid ORDER BY e.b DESC LIMIT 3",
	} {
		q, err := sqlparse.Parse(db.Schema, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if d := DiffExecute(db, q); d != "" {
			t.Errorf("%s: %s", sql, d)
		}
	}
	res := run(t, db, "SELECT DISTINCT e.a FROM g JOIN e ON g.gid = e.gid ORDER BY e.b ASC LIMIT 1")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Z")) {
		t.Errorf("reference rows = %v, want Z: the fixture no longer exercises the case", res.Rows)
	}
}

// A top-k scan that meets a NaN ORDER BY key is abandoned and redone keeping
// every row. The handle's counters must show one scan — the one a query
// without the LIMIT makes — not the abandoned attempt on top of it.
func TestExecuteNaNRetryCountedOnce(t *testing.T) {
	db := movieDB()
	db.Table("movie").MustInsert(num(5), text("Unreleased"), num(2030), num(math.NaN()))
	db.Table("starring").MustInsert(num(5), num(2), num(5))
	const sql = "SELECT m.title FROM starring s JOIN movie m ON s.mid = m.mid ORDER BY m.revenue ASC"
	full, topK := NewJoinCache(db), NewJoinCache(db)
	if _, err := full.Execute(sqlparse.MustParse(db.Schema, sql)); err != nil {
		t.Fatal(err)
	}
	if _, err := topK.Execute(sqlparse.MustParse(db.Schema, sql+" LIMIT 1")); err != nil {
		t.Fatal(err)
	}
	if got, want := topK.Stats(), full.Stats(); got != want || want.IndexProbes == 0 {
		t.Errorf("stats with LIMIT %+v, without %+v", got, want)
	}
}

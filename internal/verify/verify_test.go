package verify

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

func text(s string) sqlir.Value { return sqlir.NewText(s) }
func num(f float64) sqlir.Value { return sqlir.NewNumber(f) }

// movieDB reproduces the §2 data so the paper's worked examples can be
// asserted directly.
func movieDB() *storage.Database {
	actor := storage.NewTable("actor", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "gender", Type: sqlir.TypeText},
		storage.Column{Name: "birth_yr", Type: sqlir.TypeNumber},
		storage.Column{Name: "birthplace", Type: sqlir.TypeText},
		storage.Column{Name: "debut_yr", Type: sqlir.TypeNumber},
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

	actor.MustInsert(num(1), text("Tom Hanks"), text("male"), num(1956), text("Concord"), num(1980))
	actor.MustInsert(num(2), text("Sandra Bullock"), text("female"), num(1964), text("Arlington"), num(1987))
	actor.MustInsert(num(3), text("Brad Pitt"), text("male"), num(1963), text("Shawnee"), num(1987))

	movie.MustInsert(num(1), text("Forrest Gump"), num(1994), num(678))
	movie.MustInsert(num(2), text("Gravity"), num(2013), num(723))
	movie.MustInsert(num(3), text("Fight Club"), num(1999), num(101))
	movie.MustInsert(num(4), text("Cast Away"), num(2000), num(429))

	starring.MustInsert(num(1), num(1), num(1))
	starring.MustInsert(num(2), num(2), num(2))
	starring.MustInsert(num(3), num(3), num(3))
	starring.MustInsert(num(4), num(1), num(4))

	return storage.NewDatabase("movies", s)
}

// kevinTSQ is Table 2.
func kevinTSQ() *tsq.TSQ {
	return &tsq.TSQ{
		Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeText, sqlir.TypeNumber},
		Tuples: []tsq.Tuple{
			{tsq.Exact(text("Forrest Gump")), tsq.Exact(text("Tom Hanks")), tsq.Empty()},
			{tsq.Exact(text("Gravity")), tsq.Exact(text("Sandra Bullock")), tsq.Range(2010, 2017)},
		},
	}
}

func newVerifier(db *storage.Database, sketch *tsq.TSQ, lits ...sqlir.Value) *Verifier {
	return New(db, semrules.Default(), sketch, lits)
}

func mustVerify(t *testing.T, v *Verifier, q *sqlir.Query) Outcome {
	t.Helper()
	out, err := v.Verify(q)
	if err != nil {
		t.Fatalf("verify error: %v", err)
	}
	return out
}

// TestMotivatingExampleEndToEnd: with Kevin's TSQ, CQ1 and CQ2 are rejected
// and CQ3 passes (§2.1–2.2).
func TestMotivatingExampleEndToEnd(t *testing.T) {
	db := movieDB()
	v := newVerifier(db, kevinTSQ(), num(1995), num(2000))
	// CQ1's nested WHERE is outside the §2.5 scope (the parser rejects it);
	// CQ2 and CQ3 exercise the verifier directly.
	cq2 := sqlparse.MustParse(db.Schema,
		"SELECT m.title, a.name, a.birth_yr FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid "+
			"WHERE a.birth_yr < 1995 OR a.birth_yr > 2000")
	out := mustVerify(t, v, cq2)
	if out.OK {
		t.Error("CQ2 should fail: Sandra Bullock not born 2010-2017")
	}
	cq3 := sqlparse.MustParse(db.Schema,
		"SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid "+
			"WHERE m.year < 1995 OR m.year > 2000")
	out = mustVerify(t, New(db, semrules.Default(), kevinTSQ(), []sqlir.Value{num(1995), num(2000)}), cq3)
	if !out.OK {
		t.Errorf("CQ3 should pass: %+v", out)
	}
}

// TestVerifyClausesExample33 pins Example 3.3: with τ=⊥, CQ5 (ORDER BY)
// fails VerifyClauses while CQ1-CQ4 style queries pass it.
func TestVerifyClausesExample33(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{Sorted: false}
	v := newVerifier(db, sketch)
	cq5 := sqlparse.MustParse(db.Schema, "SELECT name, debut_yr FROM actor ORDER BY debut_yr ASC")
	out := mustVerify(t, v, cq5)
	if out.OK || out.Stage != StageClauses {
		t.Errorf("CQ5 should fail clauses: %+v", out)
	}
	// Pending ORDER BY also fails: every completion has ORDER BY.
	q := sqlir.NewQuery()
	q.OrderByState = sqlir.ClausePending
	out = mustVerify(t, v, q)
	if out.OK || out.Stage != StageClauses {
		t.Errorf("pending ORDER BY should fail: %+v", out)
	}
}

func TestVerifyClausesSortedRequired(t *testing.T) {
	db := movieDB()
	v := newVerifier(db, &tsq.TSQ{Sorted: true})
	q := sqlparse.MustParse(db.Schema, "SELECT name FROM actor")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageClauses {
		t.Errorf("sorted TSQ requires ORDER BY: %+v", out)
	}
}

func TestVerifyClausesLimit(t *testing.T) {
	db := movieDB()
	// TSQ without limit rejects LIMIT queries.
	v := newVerifier(db, &tsq.TSQ{Sorted: true})
	q := sqlparse.MustParse(db.Schema, "SELECT name FROM actor ORDER BY birth_yr DESC LIMIT 3")
	if out := mustVerify(t, v, q); out.OK {
		t.Error("limit without TSQ limit should fail")
	}
	// TSQ with limit 3 accepts LIMIT 3 and rejects LIMIT 5 / missing LIMIT.
	v = newVerifier(db, &tsq.TSQ{Sorted: true, Limit: 3})
	if out := mustVerify(t, v, q); !out.OK {
		t.Errorf("LIMIT 3 within TSQ limit 3: %+v", out)
	}
	q5 := sqlparse.MustParse(db.Schema, "SELECT name FROM actor ORDER BY birth_yr DESC LIMIT 5")
	if out := mustVerify(t, v, q5); out.OK {
		t.Error("LIMIT 5 exceeds TSQ limit 3")
	}
	q0 := sqlparse.MustParse(db.Schema, "SELECT name FROM actor ORDER BY birth_yr DESC")
	if out := mustVerify(t, v, q0); out.OK {
		t.Error("missing LIMIT with TSQ limit should fail")
	}
}

func TestVerifySemanticsStage(t *testing.T) {
	db := movieDB()
	v := newVerifier(db, nil)
	q := sqlparse.MustParse(db.Schema, "SELECT AVG(name) FROM actor")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageSemantics {
		t.Errorf("semantic violation expected: %+v", out)
	}
	// nil rules disable the stage.
	v2 := New(db, nil, nil, nil)
	if out := mustVerify(t, v2, q); !out.OK {
		t.Errorf("nil rules should pass: %+v", out)
	}
}

// TestAppendedRulesSeeEveryChild: after a slot decision the built-in rules
// look at the written slot alone, but a rule added with Append runs whole on
// every child VerifyChild checks, whatever the decision: a domain rule that
// reads ORDER BY and LIMIT rejects the child of an ORDER BY direction
// decision, and runs on a predicate decision's child too. An Empty rule set
// rejects nothing.
func TestAppendedRulesSeeEveryChild(t *testing.T) {
	db := movieDB()
	rules := semrules.Default()
	calls := 0
	rules.Append(semrules.Rule{Name: "top three at most", Check: func(q *sqlir.Query, _ *storage.Schema) *semrules.Violation {
		calls++
		if q.OrderByState == sqlir.ClausePresent && q.OrderBy.DirSet && q.Limit > 3 {
			return &semrules.Violation{Rule: "top three at most", Detail: "a domain rule"}
		}
		return nil
	}})
	child := func(v *Verifier, parent string, reopen func(q *sqlir.Query), d sqlir.Decision) Outcome {
		t.Helper()
		p := sqlparse.MustParse(db.Schema, parent)
		reopen(p)
		if out := mustVerify(t, v, p); !out.OK {
			t.Fatalf("parent %s: %+v", p, out)
		}
		var s sqlir.Scratch
		out, err := v.VerifyChild(context.Background(), s.Apply(p, d), d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	v := New(db, rules, nil, nil)
	out := child(v, "SELECT title FROM movie ORDER BY year DESC LIMIT 5", func(q *sqlir.Query) {
		q.OrderBy.Desc, q.OrderBy.DirSet, q.Limit, q.LimitSet = false, false, 0, false
	}, sqlir.Decision{Kind: sqlir.DecideOrderDir, Desc: true, Count: 5})
	if out.OK || out.Stage != StageSemantics || !strings.Contains(out.Reason(), "top three at most") {
		t.Errorf("ORDER BY direction child: %+v (%s), want the appended rule's rejection", out, out.Reason())
	}
	calls = 0
	out = child(v, "SELECT title FROM movie WHERE year > 2000", func(q *sqlir.Query) {
		q.Where.Preds[0].Op, q.Where.Preds[0].OpSet = 0, false
	}, sqlir.Decision{Kind: sqlir.DecidePredOp, Op: sqlir.OpGt})
	if !out.OK || calls != 2 {
		t.Errorf("predicate child: %+v; the appended rule ran %d times, want once on the parent and once on the child", out, calls)
	}
	// The child Default rejects at the written slot passes an Empty set.
	avgName := func(q *sqlir.Query) { q.Select[0].Agg, q.Select[0].AggSet = 0, false }
	d := sqlir.Decision{Kind: sqlir.DecideSelectAgg, Agg: sqlir.AggAvg}
	if out := child(New(db, semrules.Default(), nil, nil), "SELECT AVG(name) FROM actor", avgName, d); out.OK || out.Stage != StageSemantics {
		t.Errorf("AVG(name) under the default rules: %+v", out)
	}
	if out := child(New(db, semrules.Empty(), nil, nil), "SELECT AVG(name) FROM actor", avgName, d); !out.OK {
		t.Errorf("AVG(name) under no rules: %+v", out)
	}
}

// TestVerifyColumnTypesExample34 pins Example 3.4: α=[text, number] rejects
// a [text, text] projection.
func TestVerifyColumnTypesExample34(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber}}
	v := newVerifier(db, sketch)
	cq2 := sqlparse.MustParse(db.Schema, "SELECT name, birthplace FROM actor")
	out := mustVerify(t, v, cq2)
	if out.OK || out.Stage != StageColumnTypes {
		t.Errorf("CQ2 should fail column types: %+v", out)
	}
	cq1 := sqlparse.MustParse(db.Schema, "SELECT name, birth_yr FROM actor")
	if out := mustVerify(t, v, cq1); !out.OK {
		t.Errorf("CQ1 should pass: %+v", out)
	}
	// Aggregates change the result type: COUNT(text) is a number.
	cnt := sqlparse.MustParse(db.Schema, "SELECT name, COUNT(birthplace) FROM actor GROUP BY name")
	if out := mustVerify(t, v, cnt); !out.OK {
		t.Errorf("COUNT projection is numeric: %+v", out)
	}
}

func TestVerifyColumnTypesWidth(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{Types: []sqlir.Type{sqlir.TypeText}}
	v := newVerifier(db, sketch)
	q := sqlparse.MustParse(db.Schema, "SELECT name, birthplace FROM actor")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageColumnTypes {
		t.Errorf("width mismatch should fail: %+v", out)
	}
}

// TestVerifyByColumnExample35 pins Example 3.5: CQ4's MAX(revenue) cannot
// produce a value in [1950, 1960].
func TestVerifyByColumnExample35(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{
			{tsq.Exact(text("Tom Hanks")), tsq.Range(1950, 1960)},
		},
	}
	v := newVerifier(db, sketch)
	cq4 := sqlparse.MustParse(db.Schema,
		"SELECT a.name, MAX(m.revenue) FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON m.mid = s.mid GROUP BY a.name")
	out := mustVerify(t, v, cq4)
	if out.OK || out.Stage != StageByColumn {
		t.Errorf("CQ4 should fail by-column: %+v", out)
	}
	// CQ1-style: birth_yr has 1956 in range.
	cq1 := sqlparse.MustParse(db.Schema, "SELECT name, birth_yr FROM actor")
	if out := mustVerify(t, v, cq1); !out.OK {
		t.Errorf("CQ1 should pass by-column: %+v", out)
	}
}

func TestVerifyByColumnCountSumSkipped(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks")), tsq.Range(1950, 1960)}},
	}
	v := newVerifier(db, sketch)
	// COUNT projections are skipped column-wise even though no count could
	// ever be 1950-1960 on this data; the row check (which needs complete
	// WHERE/GROUP BY) is responsible for that.
	q := sqlparse.MustParse(db.Schema,
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name")
	// Make GROUP BY pending so the aggregate row check cannot run and only
	// column checks apply.
	q.GroupByState = sqlir.ClausePending
	q.GroupBy = nil
	out := mustVerify(t, v, q)
	if !out.OK {
		t.Errorf("COUNT should be skipped by column check: %+v", out)
	}
	// Once GROUP BY is complete the row check fires and prunes: no actor
	// has a starring count in [1950, 1960] (RV2 semantics).
	q2 := sqlparse.MustParse(db.Schema,
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name")
	q2.HavingState = sqlir.ClausePending // still partial, but groupable
	out = mustVerify(t, v, q2)
	if out.OK || out.Stage != StageByRow {
		t.Errorf("complete GROUP BY should allow aggregate row pruning: %+v", out)
	}
}

func TestVerifyAvgRangeCheck(t *testing.T) {
	db := movieDB()
	// AVG(year): years span 1994-2013. A cell range [1950,1960] cannot
	// intersect; [2000,2005] can.
	bad := &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Range(1950, 1960)}}}
	v := newVerifier(db, bad)
	q := sqlparse.MustParse(db.Schema, "SELECT AVG(year) FROM movie")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageByColumn {
		t.Errorf("AVG outside column range should fail: %+v", out)
	}
	good := &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Range(2000, 2005)}}}
	v = newVerifier(db, good)
	if out := mustVerify(t, v, q); !out.OK {
		t.Errorf("AVG within range should pass: %+v", out)
	}
}

// TestVerifyByRowExample36 pins Example 3.6: RV1 (name + birth_yr in one
// row) passes for CQ1, RV2 (COUNT between 1950 and 1960) fails for CQ3.
func TestVerifyByRowExample36(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks")), tsq.Range(1950, 1960)}},
	}
	v := newVerifier(db, sketch)
	cq1 := sqlparse.MustParse(db.Schema, "SELECT name, birth_yr FROM actor")
	if out := mustVerify(t, v, cq1); !out.OK {
		t.Errorf("CQ1 should pass row check: %+v", out)
	}
	cq3 := sqlparse.MustParse(db.Schema,
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name")
	out := mustVerify(t, New(db, semrules.Default(), sketch, nil), cq3)
	if out.OK || out.Stage != StageByRow {
		t.Errorf("CQ3 should fail row check (RV2): %+v", out)
	}
}

// TestVerifyByRowCrossColumn requires name and birth_yr to co-occur: Tom
// Hanks with Sandra Bullock's birth year must fail even though both values
// exist column-wise.
func TestVerifyByRowCrossColumn(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks")), tsq.Exact(num(1964))}},
	}
	v := newVerifier(db, sketch)
	q := sqlparse.MustParse(db.Schema, "SELECT name, birth_yr FROM actor")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageByRow {
		t.Errorf("cross-column mismatch should fail by-row: %+v", out)
	}
}

// TestVerifyByRowSoundnessUnderOr: with an incomplete OR clause the row
// check must drop the decided predicates (superset semantics) rather than
// wrongly prune.
func TestVerifyByRowSoundnessUnderOr(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{{tsq.Exact(text("Gravity"))}},
	}
	v := newVerifier(db, sketch)
	// Partial: WHERE year < 1995 OR <hole>. Gravity (2013) fails the
	// decided arm but the hole could become year > 2000.
	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995 OR year > 9999")
	q.Where.Preds[1].ValSet = false // second arm undecided
	out := mustVerify(t, v, q)
	if !out.OK {
		t.Errorf("incomplete OR must not prune Gravity: %+v", out)
	}
	// Same shape under AND: decided arm alone already excludes Gravity,
	// and adding predicates can only shrink — prune is sound.
	q2 := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995 AND year > 0")
	q2.Where.Preds[1].ValSet = false
	out = mustVerify(t, v, q2)
	if out.OK || out.Stage != StageByRow {
		t.Errorf("incomplete AND should prune Gravity: %+v", out)
	}
}

func TestVerifyAggregateNeedsCompleteWhere(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks")), tsq.Exact(num(99))}},
	}
	v := newVerifier(db, sketch)
	q := sqlparse.MustParse(db.Schema,
		"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid WHERE a.birth_yr > 0 GROUP BY a.name")
	q.Where.Preds[0].ValSet = false // WHERE incomplete
	// COUNT=99 is impossible, but with an incomplete WHERE the aggregate
	// row check must not run.
	out := mustVerify(t, v, q)
	if !out.OK {
		t.Errorf("aggregate row check must wait for complete WHERE: %+v", out)
	}
}

func TestVerifyLiterals(t *testing.T) {
	db := movieDB()
	v := newVerifier(db, nil, num(1995), text("Tom Hanks"))
	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie WHERE year < 1995")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageLiterals {
		t.Errorf("missing 'Tom Hanks' literal should fail: %+v", out)
	}
	q2 := sqlparse.MustParse(db.Schema,
		"SELECT m.title FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid "+
			"WHERE m.year < 1995 AND a.name = 'Tom Hanks'")
	if out := mustVerify(t, v, q2); !out.OK {
		t.Errorf("all literals used should pass: %+v", out)
	}
}

func TestVerifyByOrderFinalGate(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Sorted: true,
		Tuples: []tsq.Tuple{
			{tsq.Exact(text("Gravity"))},
			{tsq.Exact(text("Forrest Gump"))},
		},
	}
	v := newVerifier(db, sketch)
	// Ascending year puts Forrest Gump before Gravity: order violated.
	asc := sqlparse.MustParse(db.Schema, "SELECT title FROM movie ORDER BY year ASC")
	out := mustVerify(t, v, asc)
	if out.OK || out.Stage != StageByOrder {
		t.Errorf("wrong order should fail by-order: %+v", out)
	}
	desc := sqlparse.MustParse(db.Schema, "SELECT title FROM movie ORDER BY year DESC")
	if out := mustVerify(t, New(db, semrules.Default(), sketch, nil), desc); !out.OK {
		t.Errorf("desc order should pass: %+v", out)
	}
}

func TestVerifyDistinctTupleGate(t *testing.T) {
	db := movieDB()
	// Two identical example tuples need two distinct rows; only one Tom
	// Hanks row exists in actor.
	sketch := &tsq.TSQ{
		Tuples: []tsq.Tuple{
			{tsq.Exact(text("Tom Hanks"))},
			{tsq.Exact(text("Tom Hanks"))},
		},
	}
	v := newVerifier(db, sketch)
	q := sqlparse.MustParse(db.Schema, "SELECT name FROM actor")
	out := mustVerify(t, v, q)
	if out.OK || out.Stage != StageByOrder {
		t.Errorf("distinctness should fail at the final gate: %+v", out)
	}
}

// By-order is proved by by-row only where the proof holds: a flat query,
// every tuple asked by by-row in the same cascade, separated tuples
// (tsq.TSQ.RowsDecide) and no range cell over a column holding a NaN, which
// a range question admits and Cell.Matches does not, nor one with a NaN
// bound, which admits every number and matches none. Every answer is the
// whole result's.
func TestByOrderProvedByRows(t *testing.T) {
	db := movieDB()
	nan := storage.NewTable("gross", "gid",
		storage.Column{Name: "gid", Type: sqlir.TypeNumber},
		storage.Column{Name: "amount", Type: sqlir.TypeNumber},
	)
	nan.MustInsert(num(1), num(math.NaN()))
	nanDB := storage.NewDatabase("nan", storage.NewSchema(nan))
	flat := "SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid " +
		"WHERE m.year < 1995 OR m.year > 2000"
	cases := []struct {
		name   string
		db     *storage.Database
		sketch *tsq.TSQ
		sql    string
		d      sqlir.Decision
		proved bool
		pass   bool
	}{
		{"separated tuples", db, kevinTSQ(), flat, sqlir.Decision{}, true, true},
		{"a result of other types", db, &tsq.TSQ{
			Types:  []sqlir.Type{sqlir.TypeText, sqlir.TypeText, sqlir.TypeText},
			Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump")), tsq.Empty(), tsq.Empty()}},
		}, flat, sqlir.Decision{Kind: sqlir.DecideFrom}, true, false}, // owes by-row, not the types
		{"by-row inherited", db, kevinTSQ(), flat, sqlir.Decision{Kind: sqlir.DecideOrderDir}, false, true},
		{"sorted", db, &tsq.TSQ{Sorted: true, Tuples: kevinTSQ().Tuples}, flat + " ORDER BY m.year DESC", sqlir.Decision{}, false, false},
		{"equal tuples", db, &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks"))}, {tsq.Exact(text("Tom Hanks"))}}},
			"SELECT name FROM actor", sqlir.Decision{}, false, false},
		{"grouped", db, &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Exact(text("Tom Hanks")), tsq.Exact(num(2))}}},
			"SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name", sqlir.Decision{}, false, true},
		{"a range over a NaN", nanDB, &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Range(0, 10)}}},
			"SELECT amount FROM gross", sqlir.Decision{}, false, false},
		{"a NaN-bound range", db, &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Range(math.NaN(), math.NaN())}}},
			"SELECT year FROM movie", sqlir.Decision{}, false, false},
		{"a range bound above by NaN", db, &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Range(0, math.NaN())}}},
			"SELECT year FROM movie", sqlir.Decision{}, false, false},
	}
	var got []bool
	prev := byOrderAnswered
	defer func() { byOrderAnswered = prev }()
	byOrderAnswered = func(ctx context.Context, jc *sqlexec.JoinCache, q *sqlir.Query, sketch *tsq.TSQ, proved, answer bool, err error) {
		res, werr := jc.ExecuteCtx(ctx, q)
		if want := werr == nil && sketch.Satisfies(res); answer != want || err != nil || werr != nil {
			t.Errorf("%s under %s: answered %v (%v), whole result %v (%v)", q, sketch, answer, err, want, werr)
		}
		got = append(got, proved)
	}
	for _, c := range cases {
		got = got[:0]
		q := sqlparse.MustParse(c.db.Schema, c.sql)
		v := New(c.db, nil, c.sketch, nil)
		out, err := v.VerifyChild(context.Background(), q, c.d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != 1 || got[0] != c.proved {
			t.Errorf("%s: by-order answers proved %v, want one, proved %v", c.name, got, c.proved)
		}
		if out.OK != c.pass || !out.OK && out.Stage != StageByOrder {
			t.Errorf("%s: outcome %+v, want pass %v (else a by-order rejection)", c.name, out, c.pass)
		}
		asked := 0
		if !c.proved {
			asked = 1
		}
		probes := len(memoKeys(v.colCache)) + len(memoKeys(v.rowCache))
		if byOrder := v.Stats().DBQueries - probes; byOrder != asked {
			t.Errorf("%s: %d by-order database queries, want %d", c.name, byOrder, asked)
		}
	}
}

func TestVerifyNilSketchPassesTSQStages(t *testing.T) {
	db := movieDB()
	v := New(db, semrules.Default(), nil, nil)
	q := sqlparse.MustParse(db.Schema, "SELECT name FROM actor ORDER BY birth_yr DESC LIMIT 5")
	if out := mustVerify(t, v, q); !out.OK {
		t.Errorf("nil sketch should not reject: %+v", out)
	}
}

func TestVerifyStats(t *testing.T) {
	db := movieDB()
	sketch := kevinTSQ()
	v := newVerifier(db, sketch)
	q := sqlparse.MustParse(db.Schema,
		"SELECT m.title, a.name, m.year FROM actor a JOIN starring s ON a.aid = s.aid JOIN movie m ON s.mid = m.mid "+
			"WHERE m.year < 1995 OR m.year > 2000")
	for i := 0; i < 3; i++ {
		mustVerify(t, v, q)
	}
	st := v.Stats()
	if st.Checked != 3 {
		t.Errorf("checked = %d", st.Checked)
	}
	if st.ColumnCache == 0 {
		t.Error("column cache should hit on repeats")
	}
	if st.DBQueries == 0 {
		t.Error("db queries should be counted")
	}
	if st.StreamedExists == 0 {
		t.Error("existence probes should run through the streaming executor")
	}
	if st.IndexHits == 0 {
		t.Error("streamed probes should be served by persistent column indexes")
	}
	// Failing stage counters.
	bad := sqlparse.MustParse(db.Schema, "SELECT name FROM actor ORDER BY birth_yr ASC")
	mustVerify(t, v, bad)
	st = v.Stats()
	if st.Rejected[StageClauses] != 1 {
		t.Errorf("rejected clauses = %d", st.Rejected[StageClauses])
	}
}

func TestOutcomeReasonRendering(t *testing.T) {
	out := fail(StageByColumn, "tuple %d", 3)
	if out.OK || out.Stage != StageByColumn || !strings.Contains(out.Reason(), "tuple 3") {
		t.Errorf("outcome = %+v, reason %q", out, out.Reason())
	}
	if r := pass().Reason(); r != "" {
		t.Errorf("a pass has reason %q", r)
	}
}

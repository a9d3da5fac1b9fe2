package enumerate

import (
	"reflect"
	"testing"

	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// ruleChild is one child of the walk whose parent passed the default rules:
// the query CheckChild is asked about, with the decision that made it from
// parent (nil for a child the walk did not make).
type ruleChild struct {
	q, parent *sqlir.Query
	d         sqlir.Decision
	schema    *storage.Schema
}

// walkRuleChildren walks every input of walkInputs, with and without its
// TSQ, and hands visit each child whose parent passed the default rules.
func walkRuleChildren(tb testing.TB, maxStates int, visit func(id string, c ruleChild)) {
	rules := semrules.Default()
	for _, in := range walkInputs(tb) {
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			walk(tb, in, sketch, ModeGPQE, maxStates, observer{expanded: func(x expansion) {
				if rules.Check(x.parent, in.db.Schema) != nil {
					return
				}
				parent := x.parent.Clone()
				for _, o := range x.opts {
					visit(in.id, ruleChild{derive(parent, o.dec), parent, o.dec, in.db.Schema})
				}
			}})
		}
	}
}

// lastDecision is a slot decision that could have been the last to build a
// query: the query with that one field reopened, and the decision that
// fills it again.
type lastDecision struct {
	parent *sqlir.Query
	d      sqlir.Decision
}

// lastDecisions lists, for every decided field of every projection and
// predicate of q, the decision that could have written it last.
func lastDecisions(t testing.TB, q *sqlir.Query) []lastDecision {
	var out []lastDecision
	add := func(reopen func(p *sqlir.Query), d sqlir.Decision) {
		p := q.Clone()
		reopen(p)
		if c := derive(p, d); !reflect.DeepEqual(c, q) {
			t.Fatalf("%s reopened by %+v rebuilds as %s", q, d, c)
		}
		out = append(out, lastDecision{p, d})
	}
	for i, s := range q.Select {
		i32 := int32(i)
		if s.ColSet {
			add(func(p *sqlir.Query) { p.Select[i].Col, p.Select[i].ColSet = sqlir.ColumnRef{}, false },
				sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: i32, Col: &s.Col})
		}
		if s.AggSet {
			add(func(p *sqlir.Query) { p.Select[i].Agg, p.Select[i].AggSet = 0, false },
				sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: i32, Agg: s.Agg})
		}
	}
	for i, pr := range q.Where.Preds {
		i32 := int32(i)
		if pr.ColSet {
			add(func(p *sqlir.Query) { p.Where.Preds[i].Col, p.Where.Preds[i].ColSet = sqlir.ColumnRef{}, false },
				sqlir.Decision{Kind: sqlir.DecidePredColumn, Index: i32, Col: &pr.Col})
		}
		if pr.OpSet {
			add(func(p *sqlir.Query) { p.Where.Preds[i].Op, p.Where.Preds[i].OpSet = 0, false },
				sqlir.Decision{Kind: sqlir.DecidePredOp, Index: i32, Op: pr.Op})
		}
		if pr.ValSet {
			add(func(p *sqlir.Query) { p.Where.Preds[i].Val, p.Where.Preds[i].ValSet = sqlir.Value{}, false },
				sqlir.Decision{Kind: sqlir.DecidePredValue, Index: i32, Val: &pr.Val})
		}
	}
	return out
}

// withLastDecisions hands visit c, and then c's query again as the child of
// every slot decision that could have been its last, whenever the parent
// that decision fills passes rules: the search decides projections before
// predicates, and this reaches the other orders too.
func withLastDecisions(tb testing.TB, rules *semrules.RuleSet, c ruleChild, visit func(ruleChild)) {
	visit(c)
	for _, l := range lastDecisions(tb, c.q) {
		if rules.Check(l.parent, c.schema) == nil {
			visit(ruleChild{c.q, l.parent, l.d, c.schema})
		}
	}
}

// table4Children are queries that break each built-in rule a slot can
// break, over movieDB: Table 4's examples, a column outside the join path in
// a projection and in a predicate, and slots that break two rules at once,
// where the rules' order decides the violation.
func table4Children(t *testing.T, schema *storage.Schema) []*sqlir.Query {
	var out []*sqlir.Query
	for _, sql := range []string{
		"SELECT birth_yr, COUNT(*) FROM actor WHERE birth_yr = 1950",
		"SELECT name FROM actor WHERE name >= 1950",
		"SELECT birth_yr FROM actor WHERE name = 'Tom Hanks' AND name = 'Brad Pitt'",
		"SELECT name FROM actor WHERE birth_yr > 1950 OR birth_yr > 1950",
		"SELECT name, birth_yr FROM actor WHERE birth_yr = 1950",
		"SELECT birth_yr, COUNT(*) FROM actor",
		"SELECT name FROM actor GROUP BY name",
		"SELECT AVG(name) FROM actor",
		"SELECT name FROM actor WHERE name >= 'Tom Hanks'",
		"SELECT title FROM movie WHERE year LIKE '%199%'",
		"SELECT name FROM actor WHERE birth_yr = 'x'",
		"SELECT name FROM actor WHERE birth_yr = 1950",
	} {
		q, err := sqlparse.Parse(schema, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		out = append(out, q)
	}
	outside := out[len(out)-1].Clone()
	outside.Select[0].Col = schema.Catalog().MustCol("movie", "title")
	out[len(out)-1].Where.Preds[0].Col = schema.Catalog().MustCol("movie", "year")
	textAvgOutside := sqlparse.MustParse(schema, "SELECT AVG(title) FROM movie")
	textAvgOutside.Select[0].Col = schema.Catalog().MustCol("actor", "name")
	return append(out, outside, textAvgOutside)
}

// TestChildRulesAreTheWholeCheck: whenever a child's parent passed the
// default rules, CheckChild — after a slot decision, the built-in rules at
// the slot it wrote alone — returns the very violation the whole Check
// returns, nil included. The children are every child of the walk and each
// of Table 4's examples, each also as the child of every slot decision that
// could have been its last.
func TestChildRulesAreTheWholeCheck(t *testing.T) {
	rules := semrules.Default()
	checked := map[sqlir.SlotKind]int{}
	atSlot := map[string]bool{} // rules seen rejecting a child at the slot written
	same := func(id string) func(ruleChild) {
		return func(c ruleChild) {
			want := rules.Check(c.q, c.schema)
			if got := rules.CheckChild(c.q, c.schema, c.d); got != want {
				t.Errorf("%s: %s (decision %+v): CheckChild %v, Check %v", id, c.q, c.d, got, want)
			}
			slot, _ := c.d.Slot()
			checked[slot]++
			if slot != sqlir.NoSlot && want != nil {
				atSlot[want.Rule] = true
			}
		}
	}
	walkRuleChildren(t, 400, func(id string, c ruleChild) { withLastDecisions(t, rules, c, same(id)) })
	if checked[sqlir.NoSlot] == 0 || len(atSlot) == 0 {
		t.Fatalf("the walk checked %v children by slot kind, rejecting at the slot by %v", checked, atSlot)
	}
	schema := movieDB().Schema
	for _, q := range table4Children(t, schema) {
		withLastDecisions(t, rules, ruleChild{q, nil, sqlir.Decision{}, schema}, same(q.String()))
	}
	for _, rule := range []string{"inconsistent predicates", "duplicate predicate", "constant output column",
		"ungrouped aggregation", "unnecessary GROUP BY", "aggregate type usage", "faulty type comparison",
		"predicate value type", "column outside join path"} {
		if !atSlot[rule] {
			t.Errorf("%q never rejected a child at the slot its decision wrote", rule)
		}
	}
}

var ruleSink *semrules.Violation

// BenchmarkRulesPerChild times the default rules on the walk's children
// whose parent passed them, as the whole Check and as CheckChild, in ns per
// child. It first checks that the two agree on every child, each also as the
// child of every slot decision that could have been its last. Each timed
// child is built from its parent in one scratch first, as the search builds
// it, so the rules read a query in cache; Apply times that build alone.
func BenchmarkRulesPerChild(b *testing.B) {
	rules := semrules.Default()
	var children []ruleChild
	walkRuleChildren(b, 250, func(_ string, c ruleChild) { children = append(children, c) })
	for _, c := range children {
		withLastDecisions(b, rules, c, func(c ruleChild) {
			if got, want := rules.CheckChild(c.q, c.schema, c.d), rules.Check(c.q, c.schema); got != want {
				b.Fatalf("%s (decision %+v): CheckChild %v, Check %v", c.q, c.d, got, want)
			}
		})
	}
	perChild := func(check func(q *sqlir.Query, c *ruleChild) *semrules.Violation) func(*testing.B) {
		return func(b *testing.B) {
			var s sqlir.Scratch
			for range b.N {
				for i := range children {
					c := &children[i]
					ruleSink = check(s.Apply(c.parent, c.d), c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(children)), "ns/child")
		}
	}
	b.Run("Apply", perChild(func(*sqlir.Query, *ruleChild) *semrules.Violation { return nil }))
	b.Run("Check", perChild(func(q *sqlir.Query, c *ruleChild) *semrules.Violation { return rules.Check(q, c.schema) }))
	b.Run("CheckChild", perChild(func(q *sqlir.Query, c *ruleChild) *semrules.Violation {
		return rules.CheckChild(q, c.schema, c.d)
	}))
}

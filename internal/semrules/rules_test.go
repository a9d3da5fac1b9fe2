package semrules

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

func actorSchema() *storage.Schema {
	actor := storage.NewTable("actor", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "birth_yr", Type: sqlir.TypeNumber},
	)
	starring := storage.NewTable("starring", "sid",
		storage.Column{Name: "sid", Type: sqlir.TypeNumber},
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(actor, starring)
	s.AddForeignKey("starring", "aid", "actor", "aid")
	return s
}

// check parses SQL and runs the default rules.
func check(t *testing.T, sql string) *Violation {
	t.Helper()
	schema := actorSchema()
	q, err := sqlparse.Parse(schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return Default().Check(q, schema)
}

func wantViolation(t *testing.T, sql, rule string) {
	t.Helper()
	v := check(t, sql)
	if v == nil {
		t.Errorf("%q: expected %q violation, got none", sql, rule)
		return
	}
	if v.Rule != rule {
		t.Errorf("%q: violation = %q, want %q", sql, v.Rule, rule)
	}
	if !strings.Contains(v.Error(), "semrules:") {
		t.Errorf("error rendering: %q", v.Error())
	}
}

func wantClean(t *testing.T, sql string) {
	t.Helper()
	if v := check(t, sql); v != nil {
		t.Errorf("%q: unexpected violation %v", sql, v)
	}
}

// Each case mirrors a Table 4 row: the "Example" column must be pruned and
// the "Possible Alternative" column must pass.
func TestTable4Examples(t *testing.T) {
	// Row 1: inconsistent predicates.
	wantViolation(t, "SELECT birth_yr FROM actor WHERE name = 'Tom Hanks' AND name = 'Brad Pitt'",
		"inconsistent predicates")
	wantClean(t, "SELECT birth_yr FROM actor WHERE name = 'Tom Hanks' OR name = 'Brad Pitt'")

	// Row 2: constant output column.
	wantViolation(t, "SELECT name, birth_yr FROM actor WHERE birth_yr = 1950",
		"constant output column")
	wantClean(t, "SELECT name FROM actor WHERE birth_yr = 1950")

	// Row 3: ungrouped aggregation.
	wantViolation(t, "SELECT birth_yr, COUNT(*) FROM actor", "ungrouped aggregation")
	wantClean(t, "SELECT birth_yr, COUNT(*) FROM actor GROUP BY birth_yr")

	// Row 4: GROUP BY with singleton groups.
	wantViolation(t, "SELECT aid, MAX(birth_yr) FROM actor GROUP BY aid",
		"GROUP BY with singleton groups")
	wantClean(t, "SELECT aid, birth_yr FROM actor")

	// Row 5: unnecessary GROUP BY.
	wantViolation(t, "SELECT name FROM actor GROUP BY name", "unnecessary GROUP BY")
	wantClean(t, "SELECT name FROM actor")

	// Row 6: aggregate type usage.
	wantViolation(t, "SELECT AVG(name) FROM actor", "aggregate type usage")

	// Row 7: faulty type comparison.
	wantViolation(t, "SELECT name FROM actor WHERE name >= 'Tom Hanks'",
		"faulty type comparison")
	wantViolation(t, "SELECT birth_yr FROM actor WHERE birth_yr LIKE '%1956%'",
		"faulty type comparison")
}

func TestInconsistentNumericIntervals(t *testing.T) {
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr > 1990 AND birth_yr < 1980",
		"inconsistent predicates")
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr > 1990 AND birth_yr <= 1990",
		"inconsistent predicates")
	wantClean(t, "SELECT name FROM actor WHERE birth_yr >= 1990 AND birth_yr <= 1990")
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr = 1950 AND birth_yr > 1990",
		"inconsistent predicates")
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr = 1950 AND birth_yr != 1950",
		"inconsistent predicates")
	wantClean(t, "SELECT name FROM actor WHERE birth_yr > 1950 AND birth_yr < 1990")
	// OR semantics never contradict.
	wantClean(t, "SELECT name FROM actor WHERE birth_yr < 1950 OR birth_yr > 1990")
}

func TestDuplicatePredicates(t *testing.T) {
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr = 1950 OR birth_yr = 1950",
		"duplicate predicate")
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr > 1950 AND birth_yr > 1950",
		"duplicate predicate")
}

func TestConstantOutputOnlyUnderAnd(t *testing.T) {
	// Under OR the projected column is not constant.
	wantClean(t, "SELECT birth_yr, name FROM actor WHERE birth_yr = 1950 OR birth_yr = 1960")
	// Aggregated projection of a pinned column is fine (COUNT of it).
	wantClean(t, "SELECT COUNT(birth_yr) FROM actor WHERE birth_yr = 1950")
}

func TestUngroupedAggregationPendingSafe(t *testing.T) {
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT birth_yr, COUNT(*) FROM actor")
	q.GroupByState = sqlir.ClausePending // KW says GROUP BY is coming
	if v := Default().Check(q, schema); v != nil {
		t.Errorf("pending GROUP BY should suppress ungrouped aggregation: %v", v)
	}
	// Undecided aggregate slot also suppresses.
	q2 := sqlparse.MustParse(schema, "SELECT birth_yr, COUNT(*) FROM actor")
	q2.Select[1].AggSet = false
	if v := Default().Check(q2, schema); v != nil {
		t.Errorf("undecided agg should suppress: %v", v)
	}
}

func TestUnnecessaryGroupBySuppressedByHavingOrOrder(t *testing.T) {
	wantClean(t, "SELECT name FROM actor GROUP BY name HAVING COUNT(*) > 1")
	wantClean(t, "SELECT name FROM actor GROUP BY name ORDER BY COUNT(*) DESC")
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT name FROM actor GROUP BY name")
	q.HavingState = sqlir.ClausePending
	if v := Default().Check(q, schema); v != nil {
		t.Errorf("pending HAVING should suppress: %v", v)
	}
	q.HavingState = sqlir.ClauseAbsent
	q.OrderByState = sqlir.ClausePending
	if v := Default().Check(q, schema); v != nil {
		t.Errorf("pending ORDER BY should suppress: %v", v)
	}
}

func TestAggregateTypeUsageInHavingAndOrder(t *testing.T) {
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT name FROM actor GROUP BY name HAVING COUNT(*) > 1")
	q.Having.Agg = sqlir.AggAvg
	q.Having.Col = schema.Catalog().MustCol("actor", "name")
	v := Default().Check(q, schema)
	if v == nil || v.Rule != "aggregate type usage" {
		t.Errorf("HAVING AVG(text) should violate: %v", v)
	}
	q2 := sqlparse.MustParse(schema, "SELECT name FROM actor GROUP BY name ORDER BY COUNT(*) DESC")
	q2.OrderBy.Key = sqlir.OrderKey{Agg: sqlir.AggSum, Col: schema.Catalog().MustCol("actor", "name")}
	v = Default().Check(q2, schema)
	if v == nil || v.Rule != "aggregate type usage" {
		t.Errorf("ORDER BY SUM(text) should violate: %v", v)
	}
	// MIN/MAX on numbers fine; COUNT on text fine.
	wantClean(t, "SELECT MAX(birth_yr) FROM actor")
	wantClean(t, "SELECT COUNT(name) FROM actor")
}

func TestPredicateValueTypeRule(t *testing.T) {
	wantViolation(t, "SELECT birth_yr FROM actor WHERE name = 1950", "predicate value type")
	wantViolation(t, "SELECT name FROM actor WHERE birth_yr = 'x'", "predicate value type")
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT name FROM actor GROUP BY name HAVING COUNT(*) > 1")
	q.Having.Val = sqlir.NewText("many")
	v := Default().Check(q, schema)
	if v == nil || v.Rule != "predicate value type" {
		t.Errorf("HAVING COUNT(*) > 'many' should violate: %v", v)
	}
}

func TestEmptyRuleSetAndAppend(t *testing.T) {
	rs := Empty()
	if rs.Len() != 0 {
		t.Error("empty rule set")
	}
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT AVG(name) FROM actor")
	if v := rs.Check(q, schema); v != nil {
		t.Errorf("empty rule set should pass everything: %v", v)
	}
	rs.Append(Rule{
		Name: "no actor table",
		Check: func(q *sqlir.Query, _ *storage.Schema) *Violation {
			if actor, _ := schema.Catalog().Ordinal("actor"); q.From != nil && q.From.Set().Has(actor) {
				return &Violation{"no actor table", "domain rule"}
			}
			return nil
		},
	})
	if rs.Len() != 1 {
		t.Error("append failed")
	}
	if v := rs.Check(q, schema); v == nil || v.Rule != "no actor table" {
		t.Errorf("custom rule should fire: %v", v)
	}
}

func TestPartialQueriesDontFirePrematurely(t *testing.T) {
	schema := actorSchema()
	// A bare pending query triggers nothing.
	q := sqlir.NewQuery()
	q.WhereState = sqlir.ClausePending
	if v := Default().Check(q, schema); v != nil {
		t.Errorf("empty partial query: %v", v)
	}
	// Predicate with undecided value: constant-output fires on Op alone.
	q2 := sqlparse.MustParse(schema, "SELECT birth_yr FROM actor WHERE birth_yr = 1950")
	q2.Where.Preds[0].ValSet = false
	v := Default().Check(q2, schema)
	if v == nil || v.Rule != "constant output column" {
		t.Errorf("equality without value should still pin the column: %v", v)
	}
}

func TestDefaultRuleCount(t *testing.T) {
	if Default().Len() != 10 {
		t.Errorf("default rules = %d, want 10", Default().Len())
	}
}

func TestColumnOutsideJoinPath(t *testing.T) {
	schema := actorSchema()
	q := sqlparse.MustParse(schema, "SELECT name FROM actor WHERE birth_yr = 1950")
	// Rewrite the predicate to reference a table missing from FROM.
	q.Where.Preds[0].Col = schema.Catalog().MustCol("starring", "sid")
	v := Default().Check(q, schema)
	if v == nil || v.Rule != "column outside join path" {
		t.Errorf("violation = %v", v)
	}
}

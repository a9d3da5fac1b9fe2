// Package semrules implements the paper's semantic pruning rules (Table 4):
// checks that eliminate nonsensical or redundant yet syntactically-correct
// SQL queries during enumeration. Rules operate on partial queries and only
// fire once the relevant slots are decided, so pruning is always sound with
// respect to the completions of a partial query.
//
// The rule set is pluggable: domains may append their own rules (§4.1).
package semrules

import (
	"fmt"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Violation is a semantic rule failure.
type Violation struct {
	Rule   string
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return "semrules: " + v.Rule + ": " + v.Detail
}

// Rule checks one semantic property. A nil return means the rule passes or
// cannot be evaluated yet on this partial query.
type Rule struct {
	Name  string
	Check func(q *sqlir.Query, schema *storage.Schema) *Violation
}

// RuleSet is an ordered collection of rules.
type RuleSet struct {
	rules []Rule
}

// Default returns the paper's Table 4 rules plus the type-consistency
// additions described in §3.4.
func Default() *RuleSet {
	return &RuleSet{rules: []Rule{
		{"inconsistent predicates", checkInconsistentPredicates},
		{"duplicate predicate", checkDuplicatePredicates},
		{"constant output column", checkConstantOutputColumn},
		{"ungrouped aggregation", checkUngroupedAggregation},
		{"GROUP BY with singleton groups", checkSingletonGroups},
		{"unnecessary GROUP BY", checkUnnecessaryGroupBy},
		{"aggregate type usage", checkAggregateTypeUsage},
		{"faulty type comparison", checkFaultyTypeComparison},
		{"predicate value type", checkPredicateValueType},
		{"column outside join path", checkColumnsInJoinPath},
	}}
}

// Empty returns a rule set with no rules (for ablations).
func Empty() *RuleSet { return &RuleSet{} }

// Append adds a domain-specific rule.
func (rs *RuleSet) Append(r Rule) { rs.rules = append(rs.rules, r) }

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Check runs every rule, returning the first violation or nil.
func (rs *RuleSet) Check(q *sqlir.Query, schema *storage.Schema) *Violation {
	for _, r := range rs.rules {
		if v := r.Check(q, schema); v != nil {
			return v
		}
	}
	return nil
}

// decidedPreds returns the fully decided predicates.
func decidedPreds(q *sqlir.Query) []sqlir.Predicate {
	var out []sqlir.Predicate
	for _, p := range q.Where.Preds {
		if p.Complete() {
			out = append(out, p)
		}
	}
	return out
}

// andSemantics reports whether the WHERE clause is known to be a
// conjunction: an explicit AND, or a single-predicate clause.
func andSemantics(q *sqlir.Query) bool {
	if q.Where.CountSet && len(q.Where.Preds) == 1 {
		return true
	}
	return q.Where.ConjSet && q.Where.Conj == sqlir.LogicAnd
}

// checkInconsistentPredicates prunes AND-conjoined predicates on one column
// that cannot be simultaneously satisfied (Table 4 row 1).
func checkInconsistentPredicates(q *sqlir.Query, _ *storage.Schema) *Violation {
	if !andSemantics(q) {
		return nil
	}
	byCol := map[sqlir.ColumnRef][]sqlir.Predicate{}
	for _, p := range decidedPreds(q) {
		byCol[p.Col] = append(byCol[p.Col], p)
	}
	for col, preds := range byCol {
		if len(preds) < 2 {
			continue
		}
		if contradictory(preds) {
			return &Violation{"inconsistent predicates",
				fmt.Sprintf("predicates on %s contradict", col)}
		}
	}
	return nil
}

// contradictory reports whether a set of same-column predicates is
// unsatisfiable under AND.
func contradictory(preds []sqlir.Predicate) bool {
	var eqs []sqlir.Value
	var nes []sqlir.Value
	// Numeric interval: [lo, hi] with exclusivity flags.
	var lo, hi *float64
	loExcl, hiExcl := false, false
	for _, p := range preds {
		switch p.Op {
		case sqlir.OpEq:
			eqs = append(eqs, p.Val)
		case sqlir.OpNe:
			nes = append(nes, p.Val)
		case sqlir.OpGt, sqlir.OpGe:
			if p.Val.Kind != sqlir.KindNumber {
				continue
			}
			v := p.Val.Num
			if lo == nil || v > *lo || (v == *lo && p.Op == sqlir.OpGt) {
				lo = &v
				loExcl = p.Op == sqlir.OpGt
			}
		case sqlir.OpLt, sqlir.OpLe:
			if p.Val.Kind != sqlir.KindNumber {
				continue
			}
			v := p.Val.Num
			if hi == nil || v < *hi || (v == *hi && p.Op == sqlir.OpLt) {
				hi = &v
				hiExcl = p.Op == sqlir.OpLt
			}
		}
	}
	for i := 1; i < len(eqs); i++ {
		if !eqs[i].Equal(eqs[0]) {
			return true // col = a AND col = b
		}
	}
	for _, ne := range nes {
		for _, eq := range eqs {
			if ne.Equal(eq) {
				return true // col = a AND col != a
			}
		}
	}
	if len(eqs) > 0 && eqs[0].Kind == sqlir.KindNumber {
		v := eqs[0].Num
		if lo != nil && (v < *lo || (v == *lo && loExcl)) {
			return true
		}
		if hi != nil && (v > *hi || (v == *hi && hiExcl)) {
			return true
		}
	}
	if lo != nil && hi != nil {
		if *lo > *hi || (*lo == *hi && (loExcl || hiExcl)) {
			return true // empty interval
		}
	}
	return false
}

// checkDuplicatePredicates prunes repeated identical predicates, which are
// redundant under both AND and OR.
func checkDuplicatePredicates(q *sqlir.Query, _ *storage.Schema) *Violation {
	preds := decidedPreds(q)
	for i := 0; i < len(preds); i++ {
		for j := i + 1; j < len(preds); j++ {
			if preds[i].Col == preds[j].Col && preds[i].Op == preds[j].Op &&
				preds[i].Val.Equal(preds[j].Val) {
				return &Violation{"duplicate predicate", preds[i].String()}
			}
		}
	}
	return nil
}

// checkConstantOutputColumn prunes projecting a column that an AND-conjoined
// equality predicate pins to a constant (Table 4 row 2). The value need not
// be decided: any equality makes the projection constant.
func checkConstantOutputColumn(q *sqlir.Query, _ *storage.Schema) *Violation {
	if !andSemantics(q) {
		return nil
	}
	pinned := map[sqlir.ColumnRef]bool{}
	for _, p := range q.Where.Preds {
		if p.ColSet && p.OpSet && p.Op == sqlir.OpEq {
			pinned[p.Col] = true
		}
	}
	if len(pinned) == 0 {
		return nil
	}
	for _, s := range q.Select {
		if s.Complete() && s.Agg == sqlir.AggNone && pinned[s.Col] {
			return &Violation{"constant output column",
				fmt.Sprintf("%s is pinned by an equality predicate", s.Col)}
		}
	}
	return nil
}

// checkUngroupedAggregation prunes mixing aggregated and unaggregated
// projections without GROUP BY (Table 4 row 3). Fires only once the select
// list and the KW decision are final.
func checkUngroupedAggregation(q *sqlir.Query, _ *storage.Schema) *Violation {
	if !q.KWSet || q.GroupByState != sqlir.ClauseAbsent || !q.SelectCountSet {
		return nil
	}
	hasAgg, hasPlain := false, false
	for _, s := range q.Select {
		if !s.AggSet {
			return nil // not final yet
		}
		if s.Agg == sqlir.AggNone {
			hasPlain = true
		} else {
			hasAgg = true
		}
	}
	if hasAgg && hasPlain {
		return &Violation{"ungrouped aggregation",
			"aggregated and unaggregated projections without GROUP BY"}
	}
	return nil
}

// checkSingletonGroups prunes GROUP BY on a primary key: every group is a
// single row and aggregation is unnecessary (Table 4 row 4).
func checkSingletonGroups(q *sqlir.Query, schema *storage.Schema) *Violation {
	if q.GroupByState != sqlir.ClausePresent {
		return nil
	}
	for _, g := range q.GroupBy {
		t := schema.Table(g.Table)
		if t != nil && t.PrimaryKey != "" && t.PrimaryKey == g.Column {
			return &Violation{"GROUP BY with singleton groups",
				fmt.Sprintf("%s is a primary key", g)}
		}
	}
	return nil
}

// checkUnnecessaryGroupBy prunes GROUP BY when no aggregate can appear in
// SELECT, ORDER BY, or HAVING (Table 4 row 5). Pending clauses block the
// rule because a later decision could still introduce an aggregate.
func checkUnnecessaryGroupBy(q *sqlir.Query, _ *storage.Schema) *Violation {
	if q.GroupByState != sqlir.ClausePresent || !q.SelectCountSet {
		return nil
	}
	for _, s := range q.Select {
		if !s.AggSet {
			return nil
		}
		if s.Agg != sqlir.AggNone {
			return nil
		}
	}
	switch q.HavingState {
	case sqlir.ClausePending, sqlir.ClausePresent:
		return nil // HAVING carries an aggregate by construction
	}
	switch q.OrderByState {
	case sqlir.ClausePending:
		return nil
	case sqlir.ClausePresent:
		if !q.OrderBy.KeySet {
			return nil
		}
		if q.OrderBy.Key.Agg != sqlir.AggNone {
			return nil
		}
	}
	return &Violation{"unnecessary GROUP BY", "no aggregates in SELECT, ORDER BY or HAVING"}
}

// checkAggregateTypeUsage prunes MIN/MAX/AVG/SUM applied to text columns
// (Table 4 row 6) anywhere an aggregate can occur.
func checkAggregateTypeUsage(q *sqlir.Query, schema *storage.Schema) *Violation {
	bad := func(agg sqlir.AggFunc, col sqlir.ColumnRef) bool {
		if agg == sqlir.AggNone || agg == sqlir.AggCount || col.IsStar() {
			return false
		}
		ty, ok := schema.Resolve(col)
		return ok && agg.NumericOnly() && ty == sqlir.TypeText
	}
	for _, s := range q.Select {
		if s.Complete() && bad(s.Agg, s.Col) {
			return &Violation{"aggregate type usage",
				fmt.Sprintf("%s(%s) on text column", s.Agg, s.Col)}
		}
	}
	if q.HavingState == sqlir.ClausePresent && q.Having.AggSet && q.Having.ColSet &&
		bad(q.Having.Agg, q.Having.Col) {
		return &Violation{"aggregate type usage",
			fmt.Sprintf("HAVING %s(%s) on text column", q.Having.Agg, q.Having.Col)}
	}
	if q.OrderByState == sqlir.ClausePresent && q.OrderBy.KeySet &&
		bad(q.OrderBy.Key.Agg, q.OrderBy.Key.Col) {
		return &Violation{"aggregate type usage",
			fmt.Sprintf("ORDER BY %s(%s) on text column", q.OrderBy.Key.Agg, q.OrderBy.Key.Col)}
	}
	return nil
}

// checkFaultyTypeComparison prunes ordering operators on text columns and
// LIKE on numeric columns (Table 4 row 7).
func checkFaultyTypeComparison(q *sqlir.Query, schema *storage.Schema) *Violation {
	for _, p := range q.Where.Preds {
		if !p.ColSet || !p.OpSet {
			continue
		}
		ty, ok := schema.Resolve(p.Col)
		if !ok {
			continue
		}
		if p.Op.Ordering() && ty == sqlir.TypeText {
			return &Violation{"faulty type comparison",
				fmt.Sprintf("%s %s on text column", p.Col, p.Op)}
		}
		if p.Op == sqlir.OpLike && ty == sqlir.TypeNumber {
			return &Violation{"faulty type comparison",
				fmt.Sprintf("%s LIKE on numeric column", p.Col)}
		}
	}
	return nil
}

// checkColumnsInJoinPath prunes queries referencing a column whose table is
// not in the decided FROM clause — structurally invalid SQL that guided
// enumeration can produce when a join path was fixed before a later column
// decision.
func checkColumnsInJoinPath(q *sqlir.Query, _ *storage.Schema) *Violation {
	if q.From == nil {
		return nil
	}
	var buf [8]string // keeps the common case off the heap
	for _, t := range q.AppendReferencedTables(buf[:0]) {
		if !q.From.Contains(t) {
			return &Violation{"column outside join path",
				fmt.Sprintf("table %s is not in the FROM clause", t)}
		}
	}
	return nil
}

// checkPredicateValueType prunes predicates whose literal type disagrees
// with the column type (an addition beyond Table 4 that removes obviously
// empty comparisons early).
func checkPredicateValueType(q *sqlir.Query, schema *storage.Schema) *Violation {
	for _, p := range q.Where.Preds {
		if !p.Complete() {
			continue
		}
		ty, ok := schema.Resolve(p.Col)
		if !ok {
			continue
		}
		vt := p.Val.Type()
		if p.Op == sqlir.OpLike {
			if vt != sqlir.TypeText {
				return &Violation{"predicate value type",
					fmt.Sprintf("LIKE pattern for %s must be text", p.Col)}
			}
			continue
		}
		if vt != sqlir.TypeUnknown && vt != ty {
			return &Violation{"predicate value type",
				fmt.Sprintf("%s (%s) compared with %s literal", p.Col, ty, vt)}
		}
	}
	if q.HavingState == sqlir.ClausePresent && q.Having.Complete() {
		// Aggregate results compared in HAVING: COUNT/SUM/AVG are numeric;
		// MIN/MAX take the column type.
		ty, ok := schema.Resolve(q.Having.Col)
		if ok {
			rt := q.Having.Agg.ResultType(ty)
			vt := q.Having.Val.Type()
			if vt != sqlir.TypeUnknown && vt != rt {
				return &Violation{"predicate value type",
					fmt.Sprintf("HAVING %s(%s) (%s) compared with %s literal",
						q.Having.Agg, q.Having.Col, rt, vt)}
			}
		}
	}
	return nil
}

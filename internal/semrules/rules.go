// Package semrules implements the paper's semantic pruning rules (Table 4):
// checks that eliminate nonsensical or redundant yet syntactically-correct
// SQL queries during enumeration. Rules operate on partial queries and only
// fire once the relevant slots are decided, so pruning is always sound with
// respect to the completions of a partial query.
//
// The rule set is pluggable: domains may append their own rules (§4.1).
package semrules

import (
	"slices"

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

// builtin makes a Table 4 rule from its predicate. A request rejects
// children by the hundred and nothing on its path reads why, so a built-in
// rule reports one preallocated violation that names the rule and says what
// it looks for, not which column tripped it.
func builtin(name, detail string, broken func(q *sqlir.Query, schema *storage.Schema) bool) Rule {
	v := &Violation{Rule: name, Detail: detail}
	return Rule{Name: name, Check: func(q *sqlir.Query, schema *storage.Schema) *Violation {
		if broken(q, schema) {
			return v
		}
		return nil
	}}
}

// defaults are the built-in rules: Table 4 plus the type-consistency
// additions described in §3.4.
var defaults = []Rule{
	builtin("inconsistent predicates", "AND-ed predicates on one column cannot all hold", inconsistentPredicates),
	builtin("duplicate predicate", "the same predicate appears twice", duplicatePredicates),
	builtin("constant output column", "a projected column is pinned by an equality predicate", constantOutputColumn),
	builtin("ungrouped aggregation", "aggregated and unaggregated projections without GROUP BY", ungroupedAggregation),
	builtin("GROUP BY with singleton groups", "a grouping column is a primary key", singletonGroups),
	builtin("unnecessary GROUP BY", "no aggregates in SELECT, ORDER BY or HAVING", unnecessaryGroupBy),
	builtin("aggregate type usage", "MIN, MAX, AVG or SUM over a text column", aggregateTypeUsage),
	builtin("faulty type comparison", "an ordering operator on a text column or LIKE on a numeric one", faultyTypeComparison),
	builtin("predicate value type", "a literal's type disagrees with what it is compared with", predicateValueType),
	builtin("column outside join path", "a referenced table is not in the FROM clause", columnsOutsideJoinPath),
}

// Default returns a rule set holding the built-in rules.
func Default() *RuleSet { return &RuleSet{rules: slices.Clone(defaults)} }

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

// andSemantics reports whether the WHERE clause is known to be a
// conjunction: an explicit AND, or a single-predicate clause.
func andSemantics(q *sqlir.Query) bool {
	if q.Where.CountSet && len(q.Where.Preds) == 1 {
		return true
	}
	return q.Where.ConjSet && q.Where.Conj == sqlir.LogicAnd
}

// inconsistentPredicates prunes AND-conjoined predicates on one column
// that cannot be simultaneously satisfied (Table 4 row 1).
func inconsistentPredicates(q *sqlir.Query, _ *storage.Schema) bool {
	if !andSemantics(q) {
		return false
	}
	preds := q.Where.Preds
	for i := range preds {
		if !preds[i].Complete() {
			continue
		}
		// Each column is examined once, from its first decided predicate.
		first, others := true, false
		for j := range preds {
			if j != i && preds[j].Complete() && preds[j].Col == preds[i].Col {
				if j < i {
					first = false
					break
				}
				others = true
			}
		}
		if first && others && contradictory(preds, preds[i].Col) {
			return true
		}
	}
	return false
}

// contradictory reports whether the decided predicates on col are
// unsatisfiable under AND.
func contradictory(preds []sqlir.Predicate, col sqlir.ColumnRef) bool {
	var eq sqlir.Value // the first equality's value
	hasEq := false
	// Numeric interval: [lo, hi] with exclusivity flags.
	var lo, hi float64
	hasLo, hasHi, loExcl, hiExcl := false, false, false, false
	for _, p := range preds {
		if !p.Complete() || p.Col != col {
			continue
		}
		switch p.Op {
		case sqlir.OpEq:
			if hasEq && !p.Val.Equal(eq) {
				return true // col = a AND col = b
			}
			eq, hasEq = p.Val, true
		case sqlir.OpGt, sqlir.OpGe:
			if p.Val.Kind != sqlir.KindNumber {
				continue
			}
			v := p.Val.Num
			if !hasLo || v > lo || (v == lo && p.Op == sqlir.OpGt) {
				lo, hasLo, loExcl = v, true, p.Op == sqlir.OpGt
			}
		case sqlir.OpLt, sqlir.OpLe:
			if p.Val.Kind != sqlir.KindNumber {
				continue
			}
			v := p.Val.Num
			if !hasHi || v < hi || (v == hi && p.Op == sqlir.OpLt) {
				hi, hasHi, hiExcl = v, true, p.Op == sqlir.OpLt
			}
		}
	}
	if hasEq {
		// Every equality agrees with eq, so one comparison per != suffices.
		for _, p := range preds {
			if p.Complete() && p.Col == col && p.Op == sqlir.OpNe && p.Val.Equal(eq) {
				return true // col = a AND col != a
			}
		}
		if eq.Kind == sqlir.KindNumber {
			v := eq.Num
			if hasLo && (v < lo || (v == lo && loExcl)) {
				return true
			}
			if hasHi && (v > hi || (v == hi && hiExcl)) {
				return true
			}
		}
	}
	if hasLo && hasHi {
		if lo > hi || (lo == hi && (loExcl || hiExcl)) {
			return true // empty interval
		}
	}
	return false
}

// duplicatePredicates prunes repeated identical predicates, which are
// redundant under both AND and OR.
func duplicatePredicates(q *sqlir.Query, _ *storage.Schema) bool {
	preds := q.Where.Preds
	for i := range preds {
		if !preds[i].Complete() {
			continue
		}
		for j := i + 1; j < len(preds); j++ {
			if preds[j].Complete() && preds[i].Col == preds[j].Col && preds[i].Op == preds[j].Op &&
				preds[i].Val.Equal(preds[j].Val) {
				return true
			}
		}
	}
	return false
}

// constantOutputColumn prunes projecting a column that an AND-conjoined
// equality predicate pins to a constant (Table 4 row 2). The value need not
// be decided: any equality makes the projection constant.
func constantOutputColumn(q *sqlir.Query, _ *storage.Schema) bool {
	if !andSemantics(q) {
		return false
	}
	for _, p := range q.Where.Preds {
		if !p.ColSet || !p.OpSet || p.Op != sqlir.OpEq {
			continue
		}
		for _, s := range q.Select {
			if s.Complete() && s.Agg == sqlir.AggNone && s.Col == p.Col {
				return true
			}
		}
	}
	return false
}

// ungroupedAggregation prunes mixing aggregated and unaggregated
// projections without GROUP BY (Table 4 row 3). Fires only once the select
// list and the KW decision are final.
func ungroupedAggregation(q *sqlir.Query, _ *storage.Schema) bool {
	if !q.KWSet || q.GroupByState != sqlir.ClauseAbsent || !q.SelectCountSet {
		return false
	}
	hasAgg, hasPlain := false, false
	for _, s := range q.Select {
		if !s.AggSet {
			return false // not final yet
		}
		if s.Agg == sqlir.AggNone {
			hasPlain = true
		} else {
			hasAgg = true
		}
	}
	return hasAgg && hasPlain
}

// singletonGroups prunes GROUP BY on a primary key: every group is a
// single row and aggregation is unnecessary (Table 4 row 4).
func singletonGroups(q *sqlir.Query, schema *storage.Schema) bool {
	if q.GroupByState != sqlir.ClausePresent {
		return false
	}
	for _, g := range q.GroupBy {
		t := schema.Table(g.Table)
		if t != nil && t.PrimaryKey != "" && t.PrimaryKey == g.Column {
			return true
		}
	}
	return false
}

// unnecessaryGroupBy prunes GROUP BY when no aggregate can appear in
// SELECT, ORDER BY, or HAVING (Table 4 row 5). Pending clauses block the
// rule because a later decision could still introduce an aggregate.
func unnecessaryGroupBy(q *sqlir.Query, _ *storage.Schema) bool {
	if q.GroupByState != sqlir.ClausePresent || !q.SelectCountSet {
		return false
	}
	for _, s := range q.Select {
		if !s.AggSet || s.Agg != sqlir.AggNone {
			return false
		}
	}
	switch q.HavingState {
	case sqlir.ClausePending, sqlir.ClausePresent:
		return false // HAVING carries an aggregate by construction
	}
	switch q.OrderByState {
	case sqlir.ClausePending:
		return false
	case sqlir.ClausePresent:
		if !q.OrderBy.KeySet || q.OrderBy.Key.Agg != sqlir.AggNone {
			return false
		}
	}
	return true
}

// aggregateTypeUsage prunes MIN/MAX/AVG/SUM applied to text columns
// (Table 4 row 6) anywhere an aggregate can occur.
func aggregateTypeUsage(q *sqlir.Query, schema *storage.Schema) bool {
	bad := func(agg sqlir.AggFunc, col sqlir.ColumnRef) bool {
		if agg == sqlir.AggNone || agg == sqlir.AggCount || col.IsStar() {
			return false
		}
		ty, ok := schema.Resolve(col)
		return ok && agg.NumericOnly() && ty == sqlir.TypeText
	}
	for _, s := range q.Select {
		if s.Complete() && bad(s.Agg, s.Col) {
			return true
		}
	}
	if q.HavingState == sqlir.ClausePresent && q.Having.AggSet && q.Having.ColSet &&
		bad(q.Having.Agg, q.Having.Col) {
		return true
	}
	return q.OrderByState == sqlir.ClausePresent && q.OrderBy.KeySet &&
		bad(q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
}

// faultyTypeComparison prunes ordering operators on text columns and LIKE
// on numeric columns (Table 4 row 7).
func faultyTypeComparison(q *sqlir.Query, schema *storage.Schema) bool {
	for _, p := range q.Where.Preds {
		if !p.ColSet || !p.OpSet {
			continue
		}
		ty, ok := schema.Resolve(p.Col)
		if !ok {
			continue
		}
		if p.Op.Ordering() && ty == sqlir.TypeText {
			return true
		}
		if p.Op == sqlir.OpLike && ty == sqlir.TypeNumber {
			return true
		}
	}
	return false
}

// columnsOutsideJoinPath prunes queries referencing a column whose table is
// not in the decided FROM clause — structurally invalid SQL that guided
// enumeration can produce when a join path was fixed before a later column
// decision.
func columnsOutsideJoinPath(q *sqlir.Query, _ *storage.Schema) bool {
	if q.From == nil {
		return false
	}
	var buf [8]string // keeps the common case off the heap
	for _, t := range q.AppendReferencedTables(buf[:0]) {
		if !q.From.Contains(t) {
			return true
		}
	}
	return false
}

// predicateValueType prunes predicates whose literal type disagrees with
// the column type (an addition beyond Table 4 that removes obviously empty
// comparisons early).
func predicateValueType(q *sqlir.Query, schema *storage.Schema) bool {
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
				return true // a LIKE pattern must be text
			}
			continue
		}
		if vt != sqlir.TypeUnknown && vt != ty {
			return true
		}
	}
	if q.HavingState == sqlir.ClausePresent && q.Having.Complete() {
		// Aggregate results compared in HAVING: COUNT/SUM/AVG are numeric;
		// MIN/MAX take the column type.
		if ty, ok := schema.Resolve(q.Having.Col); ok {
			rt := q.Having.Agg.ResultType(ty)
			vt := q.Having.Val.Type()
			if vt != sqlir.TypeUnknown && vt != rt {
				return true
			}
		}
	}
	return false
}

// Package semrules implements the paper's semantic pruning rules (Table 4):
// checks that eliminate nonsensical or redundant yet syntactically-correct
// SQL queries during enumeration. Rules operate on partial queries and only
// fire once the relevant slots are decided, so pruning is always sound with
// respect to the completions of a partial query.
//
// A built-in rule is written where it can break: at one projection or one
// predicate, read against the rest of the query; or on the query, when it
// reads the projection list as a whole or only clauses no slot decision
// writes. Check runs every form at every slot. A slot decision
// (sqlir.Decision.Slot) writes one projection or predicate and nothing
// else; a write that makes the form at another slot break makes the form
// at the written slot break too (a duplicate pair breaks at both of its
// predicates). So a child whose parent passed breaks a built-in rule, if at
// all, at the slot its decision wrote, and CheckChild looks there alone.
//
// The rule set is pluggable: domains may append their own rules (§4.1),
// which run whole on every query, CheckChild's included.
package semrules

import (
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

// RuleSet is an ordered collection of rules: Table 4's built-in rules, if
// the set has them, then the appended ones.
type RuleSet struct {
	builtin bool
	rules   []Rule
}

// The built-in rules' violations, in rule order. A request rejects children
// by the hundred and nothing on its path reads why, so a built-in rule
// reports one preallocated violation that names the rule and says what it
// looks for, not which column tripped it.
var (
	inconsistent     = &Violation{"inconsistent predicates", "AND-ed predicates on one column cannot all hold"}
	duplicate        = &Violation{"duplicate predicate", "the same predicate appears twice"}
	constantOutput   = &Violation{"constant output column", "a projected column is pinned by an equality predicate"}
	ungrouped        = &Violation{"ungrouped aggregation", "aggregated and unaggregated projections without GROUP BY"}
	singletonGroups  = &Violation{"GROUP BY with singleton groups", "a grouping column is a primary key"}
	unnecessaryGroup = &Violation{"unnecessary GROUP BY", "no aggregates in SELECT, ORDER BY or HAVING"}
	aggregateType    = &Violation{"aggregate type usage", "MIN, MAX, AVG or SUM over a text column"}
	faultyComparison = &Violation{"faulty type comparison", "an ordering operator on a text column or LIKE on a numeric one"}
	valueType        = &Violation{"predicate value type", "a literal's type disagrees with what it is compared with"}
	outsideJoinPath  = &Violation{"column outside join path", "a referenced table is not in the FROM clause"}
)

// builtins is the number of built-in rules: Table 4 plus the
// type-consistency additions described in §3.4.
const builtins = 10

// anywhere returns the first built-in rule q breaks, in rule order: each
// rule's forms at every predicate and projection, and on the query. It is
// the list of the built-in rules; atPredicate and atProjection are it at one
// slot, in the same order (TestChildRulesAreTheWholeCheck in
// internal/enumerate compares them child by child).
func anywhere(q *sqlir.Query, schema *storage.Schema) *Violation {
	switch {
	case atAnyPredicate(q, schema, inconsistentPredicate):
		return inconsistent
	case atAnyPredicate(q, schema, duplicatePredicate):
		return duplicate
	case atAnyPredicate(q, schema, pinningPredicate) || atAnyProjection(q, schema, pinnedProjection):
		return constantOutput
	case ungroupedAggregation(q):
		return ungrouped
	case groupedByKey(q, schema):
		return singletonGroups
	case unnecessaryGroupBy(q):
		return unnecessaryGroup
	case atAnyProjection(q, schema, textAggregateProjection) || textAggregateClause(q):
		return aggregateType
	case atAnyPredicate(q, schema, faultyTypeComparison):
		return faultyComparison
	case atAnyPredicate(q, schema, predicateValueType) || havingValueType(q):
		return valueType
	case atAnyPredicate(q, schema, predicateOutsideJoinPath) || atAnyProjection(q, schema, projectionOutsideJoinPath) ||
		clauseOutsideJoinPath(q):
		return outsideJoinPath
	}
	return nil
}

// atPredicate is anywhere at predicate i alone: the rules' predicate forms,
// in rule order.
func atPredicate(q *sqlir.Query, schema *storage.Schema, i int) *Violation {
	switch {
	case inconsistentPredicate(q, schema, i):
		return inconsistent
	case duplicatePredicate(q, schema, i):
		return duplicate
	case pinningPredicate(q, schema, i):
		return constantOutput
	case faultyTypeComparison(q, schema, i):
		return faultyComparison
	case predicateValueType(q, schema, i):
		return valueType
	case predicateOutsideJoinPath(q, schema, i):
		return outsideJoinPath
	}
	return nil
}

// atProjection is anywhere at projection i alone: the rules' projection
// forms, and the rules that read the projection list as a whole, in rule
// order.
func atProjection(q *sqlir.Query, schema *storage.Schema, i int) *Violation {
	switch {
	case pinnedProjection(q, schema, i):
		return constantOutput
	case ungroupedAggregation(q):
		return ungrouped
	case unnecessaryGroupBy(q):
		return unnecessaryGroup
	case textAggregateProjection(q, schema, i):
		return aggregateType
	case projectionOutsideJoinPath(q, schema, i):
		return outsideJoinPath
	}
	return nil
}

// atAnyPredicate reports whether a rule's predicate form breaks at any
// predicate of q; atAnyProjection, at any projection.
func atAnyPredicate(q *sqlir.Query, schema *storage.Schema, at func(*sqlir.Query, *storage.Schema, int) bool) bool {
	for i := range q.Where.Preds {
		if at(q, schema, i) {
			return true
		}
	}
	return false
}

func atAnyProjection(q *sqlir.Query, schema *storage.Schema, at func(*sqlir.Query, *storage.Schema, int) bool) bool {
	for i := range q.Select {
		if at(q, schema, i) {
			return true
		}
	}
	return false
}

// Default returns a rule set holding the built-in rules.
func Default() *RuleSet { return &RuleSet{builtin: true} }

// Empty returns a rule set with no rules (for ablations).
func Empty() *RuleSet { return &RuleSet{} }

// Append adds a domain-specific rule.
func (rs *RuleSet) Append(r Rule) { rs.rules = append(rs.rules, r) }

// Len returns the number of rules.
func (rs *RuleSet) Len() int {
	if rs.builtin {
		return builtins + len(rs.rules)
	}
	return len(rs.rules)
}

// Check runs every rule, returning the first violation or nil.
func (rs *RuleSet) Check(q *sqlir.Query, schema *storage.Schema) *Violation {
	return rs.CheckChild(q, schema, sqlir.Decision{})
}

// CheckChild is Check on a query whose parent passed this rule set and is
// one decision d away from it — or, given the zero Decision, on any query.
// After a slot decision the built-in rules run at the written slot alone;
// appended rules always run whole. It returns the violation Check would.
func (rs *RuleSet) CheckChild(q *sqlir.Query, schema *storage.Schema, d sqlir.Decision) *Violation {
	if rs.builtin {
		var v *Violation
		switch slot, i := d.Slot(); slot {
		case sqlir.PredicateSlot:
			v = atPredicate(q, schema, i)
		case sqlir.ProjectionSlot:
			v = atProjection(q, schema, i)
		default:
			v = anywhere(q, schema)
		}
		if v != nil {
			return v
		}
	}
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

// inconsistentPredicate prunes AND-conjoined predicates on one column that
// cannot be simultaneously satisfied (Table 4 row 1): predicate i is decided
// and the decided predicates on its column contradict each other.
func inconsistentPredicate(q *sqlir.Query, _ *storage.Schema, i int) bool {
	p := &q.Where.Preds[i]
	return p.Complete() && andSemantics(q) && contradictory(q.Where.Preds, p.Col)
}

// contradictory reports whether the decided predicates on col are
// unsatisfiable under AND. One predicate alone never is.
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

// duplicatePredicate prunes repeated identical predicates, which are
// redundant under both AND and OR: predicate i is decided and another
// predicate is the same.
func duplicatePredicate(q *sqlir.Query, _ *storage.Schema, i int) bool {
	preds := q.Where.Preds
	p := &preds[i]
	if !p.Complete() {
		return false
	}
	for j := range preds {
		if j != i && preds[j].Complete() && preds[j].Col == p.Col && preds[j].Op == p.Op && preds[j].Val.Equal(p.Val) {
			return true
		}
	}
	return false
}

// pins reports whether the equality predicate p pins the projection s to a
// constant under AND (Table 4 row 2). The value need not be decided: any
// equality makes the projection constant.
func pins(p *sqlir.Predicate, s *sqlir.SelectItem) bool {
	return p.ColSet && p.OpSet && p.Op == sqlir.OpEq && s.Complete() && s.Agg == sqlir.AggNone && s.Col == p.Col
}

// pinningPredicate: predicate i pins a projection.
func pinningPredicate(q *sqlir.Query, _ *storage.Schema, i int) bool {
	if !andSemantics(q) {
		return false
	}
	for j := range q.Select {
		if pins(&q.Where.Preds[i], &q.Select[j]) {
			return true
		}
	}
	return false
}

// pinnedProjection: projection i is pinned by a predicate.
func pinnedProjection(q *sqlir.Query, _ *storage.Schema, i int) bool {
	if !andSemantics(q) {
		return false
	}
	for j := range q.Where.Preds {
		if pins(&q.Where.Preds[j], &q.Select[i]) {
			return true
		}
	}
	return false
}

// ungroupedAggregation prunes mixing aggregated and unaggregated
// projections without GROUP BY (Table 4 row 3). Fires only once the select
// list and the KW decision are final.
func ungroupedAggregation(q *sqlir.Query) bool {
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

// groupedByKey prunes GROUP BY on a primary key: every group is a single
// row and aggregation is unnecessary (Table 4 row 4).
func groupedByKey(q *sqlir.Query, schema *storage.Schema) bool {
	if q.GroupByState != sqlir.ClausePresent {
		return false
	}
	for _, g := range q.GroupBy {
		t := schema.TableAt(g.Table())
		if t.PrimaryKey != "" && t.PrimaryKey == t.Columns[g.Column()].Name {
			return true
		}
	}
	return false
}

// unnecessaryGroupBy prunes GROUP BY when no aggregate can appear in
// SELECT, ORDER BY, or HAVING (Table 4 row 5). Pending clauses block the
// rule because a later decision could still introduce an aggregate.
func unnecessaryGroupBy(q *sqlir.Query) bool {
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

// textAggregate prunes MIN/MAX/AVG/SUM applied to a text column (Table 4
// row 6), wherever an aggregate can occur.
func textAggregate(agg sqlir.AggFunc, col sqlir.ColumnRef) bool {
	return agg.NumericOnly() && col.Type() == sqlir.TypeText
}

// textAggregateProjection: projection i aggregates a text column.
func textAggregateProjection(q *sqlir.Query, _ *storage.Schema, i int) bool {
	s := &q.Select[i]
	return s.Complete() && textAggregate(s.Agg, s.Col)
}

// textAggregateClause: HAVING or ORDER BY aggregates a text column.
func textAggregateClause(q *sqlir.Query) bool {
	if q.HavingState == sqlir.ClausePresent && q.Having.AggSet && q.Having.ColSet &&
		textAggregate(q.Having.Agg, q.Having.Col) {
		return true
	}
	return q.OrderByState == sqlir.ClausePresent && q.OrderBy.KeySet &&
		textAggregate(q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
}

// faultyTypeComparison prunes an ordering operator on a text column or LIKE
// on a numeric one at predicate i (Table 4 row 7).
func faultyTypeComparison(q *sqlir.Query, _ *storage.Schema, i int) bool {
	p := &q.Where.Preds[i]
	if !p.ColSet || !p.OpSet || !p.Op.Ordering() && p.Op != sqlir.OpLike {
		return false
	}
	ty := p.Col.Type()
	return p.Op.Ordering() && ty == sqlir.TypeText || p.Op == sqlir.OpLike && ty == sqlir.TypeNumber
}

// outside reports whether col names a table the decided FROM clause lacks:
// structurally invalid SQL that guided enumeration can produce when a join
// path was fixed before a later column decision.
func outside(q *sqlir.Query, col sqlir.ColumnRef) bool {
	return q.From != nil && !col.IsStar() && !q.From.Set().Has(col.Table())
}

// predicateOutsideJoinPath: predicate i's column is outside the join path.
func predicateOutsideJoinPath(q *sqlir.Query, _ *storage.Schema, i int) bool {
	return q.Where.Preds[i].ColSet && outside(q, q.Where.Preds[i].Col)
}

// projectionOutsideJoinPath: projection i's column is outside the join path.
func projectionOutsideJoinPath(q *sqlir.Query, _ *storage.Schema, i int) bool {
	return q.Select[i].ColSet && outside(q, q.Select[i].Col)
}

// clauseOutsideJoinPath: a GROUP BY, HAVING or ORDER BY column is outside
// the join path.
func clauseOutsideJoinPath(q *sqlir.Query) bool {
	for _, g := range q.GroupBy {
		if outside(q, g) {
			return true
		}
	}
	if q.HavingState == sqlir.ClausePresent && q.Having.ColSet && outside(q, q.Having.Col) {
		return true
	}
	return q.OrderByState == sqlir.ClausePresent && q.OrderBy.KeySet && outside(q, q.OrderBy.Key.Col)
}

// predicateValueType prunes a predicate whose literal type disagrees with
// its column's type (an addition beyond Table 4 that removes obviously empty
// comparisons early): predicate i is decided and mistyped.
func predicateValueType(q *sqlir.Query, _ *storage.Schema, i int) bool {
	p := &q.Where.Preds[i]
	if !p.Complete() {
		return false
	}
	ty := p.Col.Type()
	vt := p.Val.Type()
	if p.Op == sqlir.OpLike {
		return vt != sqlir.TypeText // a LIKE pattern must be text
	}
	return vt != sqlir.TypeUnknown && vt != ty
}

// havingValueType: the HAVING literal disagrees with the aggregate it is
// compared with. COUNT/SUM/AVG are numeric; MIN/MAX take the column type.
func havingValueType(q *sqlir.Query) bool {
	if q.HavingState != sqlir.ClausePresent || !q.Having.Complete() {
		return false
	}
	rt := q.Having.Agg.ResultType(q.Having.Col.Type())
	vt := q.Having.Val.Type()
	return vt != sqlir.TypeUnknown && vt != rt
}

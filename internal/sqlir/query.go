package sqlir

import (
	"slices"
	"strings"
)

// ColumnRef names a schema column. Column "*" with any table refers to the
// star used by COUNT(*).
type ColumnRef struct {
	Table  string
	Column string
}

// Star is the COUNT(*) column reference.
var Star = ColumnRef{Column: "*"}

// IsStar reports whether the reference is the * pseudo-column.
func (c ColumnRef) IsStar() bool { return c.Column == "*" }

// IsZero reports whether the reference is unset.
func (c ColumnRef) IsZero() bool { return c.Table == "" && c.Column == "" }

// String renders table.column (or * / ? placeholders).
func (c ColumnRef) String() string {
	if c.IsZero() {
		return "?"
	}
	if c.IsStar() {
		return "*"
	}
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// SelectItem is one projection: an optional aggregate over a column.
// AggSet/ColSet distinguish decided fields from placeholders in a partial
// query. Here and in the clause types below the one-byte fields sit
// together, after the wide ones: a search copies these structs once per
// state it looks at, and padding between fields is bytes copied for nothing.
type SelectItem struct {
	Col    ColumnRef
	Agg    AggFunc
	AggSet bool
	ColSet bool
}

// Complete reports whether both the aggregate and column are decided.
func (s SelectItem) Complete() bool { return s.AggSet && s.ColSet }

// Unaggregated reports a decided plain-column projection: the ones SQL
// semantics require a GROUP BY to list.
func (s SelectItem) Unaggregated() bool {
	return s.Complete() && s.Agg == AggNone && !s.Col.IsStar()
}

// String renders the projection, using ? for holes.
func (s SelectItem) String() string {
	col := "?"
	if s.ColSet {
		col = s.Col.String()
	}
	if !s.AggSet {
		return "?(" + col + ")"
	}
	if s.Agg == AggNone {
		return col
	}
	return s.Agg.String() + "(" + col + ")"
}

// Predicate is one selection predicate col op value. Each field carries a
// decided flag so partial queries can hold per-field holes.
type Predicate struct {
	Col    ColumnRef
	Val    Value
	Op     Op
	ColSet bool
	OpSet  bool
	ValSet bool
}

// Complete reports whether all three fields are decided.
func (p Predicate) Complete() bool { return p.ColSet && p.OpSet && p.ValSet }

// String renders the predicate with ? placeholders for holes.
func (p Predicate) String() string {
	var b strings.Builder
	if p.ColSet {
		b.WriteString(p.Col.String())
	} else {
		b.WriteString("?")
	}
	b.WriteString(" ")
	if p.OpSet {
		b.WriteString(p.Op.String())
	} else {
		b.WriteString("?")
	}
	b.WriteString(" ")
	if p.ValSet {
		b.WriteString(p.Val.String())
	} else {
		b.WriteString("?")
	}
	return b.String()
}

// Where is a flat conjunction or disjunction of predicates (§2.5 disallows
// mixed nesting).
type Where struct {
	Preds    []Predicate
	Conj     LogicalOp
	ConjSet  bool
	CountSet bool // number of predicates decided
}

// Complete reports whether the clause has no holes left.
func (w Where) Complete() bool {
	if !w.CountSet {
		return false
	}
	if len(w.Preds) >= 2 && !w.ConjSet {
		return false
	}
	for _, p := range w.Preds {
		if !p.Complete() {
			return false
		}
	}
	return true
}

// HavingExpr is a single HAVING condition agg(col) op value.
type HavingExpr struct {
	Col    ColumnRef // column under the aggregate ("*" for COUNT(*))
	Val    Value
	Agg    AggFunc
	Op     Op
	AggSet bool
	ColSet bool
	OpSet  bool
	ValSet bool
}

// Complete reports whether the HAVING expression has no holes.
func (h HavingExpr) Complete() bool { return h.AggSet && h.ColSet && h.OpSet && h.ValSet }

// String renders the condition with ? placeholders.
func (h HavingExpr) String() string {
	agg, col, op, val := "?", "?", "?", "?"
	if h.AggSet {
		agg = h.Agg.String()
	}
	if h.ColSet {
		col = h.Col.String()
	}
	if h.OpSet {
		op = h.Op.String()
	}
	if h.ValSet {
		val = h.Val.String()
	}
	return agg + "(" + col + ") " + op + " " + val
}

// OrderKey is the ORDER BY expression: an optional aggregate over a column.
type OrderKey struct {
	Agg AggFunc
	Col ColumnRef
}

// String renders the key.
func (k OrderKey) String() string {
	if k.Agg == AggNone {
		return k.Col.String()
	}
	return k.Agg.String() + "(" + k.Col.String() + ")"
}

// OrderBy captures ORDER BY plus the adjacent LIMIT (the paper's DESC/ASC
// module decides direction and limit together, Table 3).
type OrderBy struct {
	Key    OrderKey
	KeySet bool
	Desc   bool
	DirSet bool
}

// Complete reports whether the clause has no holes.
func (o OrderBy) Complete() bool { return o.KeySet && o.DirSet }

// String renders the clause with placeholders.
func (o OrderBy) String() string {
	key := "?"
	if o.KeySet {
		key = o.Key.String()
	}
	dir := "?"
	if o.DirSet {
		if o.Desc {
			dir = "DESC"
		} else {
			dir = "ASC"
		}
	}
	return key + " " + dir
}

// JoinEdge is one FK→PK join condition between two tables.
type JoinEdge struct {
	FromTable  string // table containing the foreign key
	FromColumn string
	ToTable    string // table containing the referenced primary key
	ToColumn   string
}

// String renders the ON condition.
func (e JoinEdge) String() string {
	return e.FromTable + "." + e.FromColumn + " = " + e.ToTable + "." + e.ToColumn
}

// JoinPath is the FROM clause: a connected set of tables joined along FK-PK
// edges. Edges are ordered so that each edge connects one new table to the
// set of tables already introduced (Tables[0] plus earlier edges).
type JoinPath struct {
	Tables []string
	Edges  []JoinEdge
}

// Contains reports whether the path includes the named table.
func (j *JoinPath) Contains(table string) bool {
	for _, t := range j.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// Len returns the number of tables (the tiebreaker in §3.3.4: shorter join
// paths are preferred among states of equal confidence).
func (j *JoinPath) Len() int {
	if j == nil {
		return 0
	}
	return len(j.Tables)
}

// String renders the FROM clause body.
func (j *JoinPath) String() string {
	if j == nil || len(j.Tables) == 0 {
		return "?"
	}
	var b strings.Builder
	b.WriteString(j.Tables[0])
	seen := map[string]bool{j.Tables[0]: true}
	for _, e := range j.Edges {
		nt := e.FromTable
		if seen[nt] {
			nt = e.ToTable
		}
		seen[nt] = true
		b.WriteString(" JOIN ")
		b.WriteString(nt)
		b.WriteString(" ON ")
		b.WriteString(e.String())
	}
	return b.String()
}

// Query is a (possibly partial) SPJA query. Optional clauses carry a
// ClauseState; inner slots carry their own decided flags. A Query with every
// slot decided is a complete SQL query.
type Query struct {
	Select []SelectItem

	From *JoinPath // nil = join path not yet constructed

	Where Where

	GroupBy []ColumnRef

	// Having and OrderBy are non-nil exactly when HavingState and
	// OrderByState are ClausePresent. Most search states never reach
	// either clause, so the header holds them by pointer rather than
	// carrying 120 bytes of absent clauses through every derivation.
	Having  *HavingExpr
	OrderBy *OrderBy

	// Limit is the LIMIT row count; 0 means no LIMIT clause. LimitSet
	// records whether the decision has been made.
	Limit int

	// The one-byte fields sit together so the header — 120 bytes, copied
	// once per derived search state — carries no padding between them.
	Distinct       bool
	SelectCountSet bool
	WhereState     ClauseState
	GroupByState   ClauseState
	HavingState    ClauseState // meaningful only when GroupByState != ClauseAbsent
	OrderByState   ClauseState
	LimitSet       bool
	// KWSet records whether the KW module has decided which clauses are
	// present at all.
	KWSet bool
}

// NewQuery returns an empty partial query: everything is a placeholder.
func NewQuery() *Query {
	return &Query{}
}

// Complete reports whether the query has no remaining placeholders and can
// be executed (Line 10 of Algorithm 1).
func (q *Query) Complete() bool {
	if !q.KWSet || !q.SelectCountSet || q.From == nil {
		return false
	}
	if len(q.Select) == 0 {
		return false
	}
	for _, s := range q.Select {
		if !s.Complete() {
			return false
		}
	}
	switch q.WhereState {
	case ClausePending:
		return false
	case ClausePresent:
		if !q.Where.Complete() {
			return false
		}
	}
	switch q.GroupByState {
	case ClausePending:
		return false
	case ClausePresent:
		if len(q.GroupBy) == 0 {
			return false
		}
		switch q.HavingState {
		case ClausePending:
			return false
		case ClausePresent:
			if !q.Having.Complete() {
				return false
			}
		}
	}
	switch q.OrderByState {
	case ClausePending:
		return false
	case ClausePresent:
		if !q.OrderBy.Complete() {
			return false
		}
	}
	if !q.LimitSet {
		// LIMIT is decided together with ORDER BY direction; a query
		// with no ORDER BY has no LIMIT and LimitSet is set by KW.
		return false
	}
	return true
}

// HasAggregate reports whether any decided projection carries an aggregate.
func (q *Query) HasAggregate() bool {
	for _, s := range q.Select {
		if s.AggSet && s.Agg != AggNone {
			return true
		}
	}
	return false
}

// AggregatedProjections returns the indexes of decided aggregate projections.
func (q *Query) AggregatedProjections() []int {
	var idx []int
	for i, s := range q.Select {
		if s.AggSet && s.Agg != AggNone {
			idx = append(idx, i)
		}
	}
	return idx
}

// AppendReferencedTables appends to dst the distinct tables referenced by
// decided column slots outside the FROM clause, in first-reference order
// (Line 2-3 of Algorithm 2), skipping tables dst already holds; a caller on
// a hot path passes a stack buffer.
func (q *Query) AppendReferencedTables(dst []string) []string {
	out := dst
	add := func(c ColumnRef) {
		// A query references a handful of tables: a scan beats a set.
		if c.IsStar() || c.Table == "" || slices.Contains(out, c.Table) {
			return
		}
		out = append(out, c.Table)
	}
	for _, s := range q.Select {
		if s.ColSet {
			add(s.Col)
		}
	}
	for _, p := range q.Where.Preds {
		if p.ColSet {
			add(p.Col)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	if q.HavingState == ClausePresent && q.Having.ColSet {
		add(q.Having.Col)
	}
	if q.OrderByState == ClausePresent && q.OrderBy.KeySet {
		add(q.OrderBy.Key.Col)
	}
	return out
}

// Literals returns every decided literal value in WHERE, HAVING, and LIMIT
// (the paper's L is "the text and numeric literal values used in the query",
// so a top-k row count counts).
func (q *Query) Literals() []Value {
	var out []Value
	for _, p := range q.Where.Preds {
		if p.ValSet {
			out = append(out, p.Val)
		}
	}
	if q.HavingState == ClausePresent && q.Having.ValSet {
		out = append(out, q.Having.Val)
	}
	if q.LimitSet && q.Limit > 0 {
		out = append(out, NewInt(q.Limit))
	}
	return out
}

// Clone returns a deep copy of the query, join path included: a private
// query to edit in place, or one that outlives the scratch it was built in
// (derive.go).
func (q *Query) Clone() *Query {
	c := *q
	c.Select = slices.Clone(q.Select)
	c.Where.Preds = slices.Clone(q.Where.Preds)
	c.GroupBy = slices.Clone(q.GroupBy)
	if q.Having != nil {
		h := *q.Having
		c.Having = &h
	}
	if q.OrderBy != nil {
		o := *q.OrderBy
		c.OrderBy = &o
	}
	if q.From != nil {
		c.From = &JoinPath{Tables: slices.Clone(q.From.Tables), Edges: slices.Clone(q.From.Edges)}
	}
	return &c
}

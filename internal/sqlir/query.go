package sqlir

import (
	"fmt"
	"slices"
	"strings"
)

// ColumnRef is a column of a catalog: its table's ordinal and its index
// among the table's columns. Only the catalog mints one — Catalog.Col from
// names at the boundary, Catalog.Column from ordinals — and it prints
// itself through its catalog. The zero value is an unset column and Star
// the * of COUNT(*): the two refs without a catalog.
type ColumnRef struct {
	cat           *Catalog
	table, column int32
}

// Star is the COUNT(*) column reference.
var Star = ColumnRef{column: -1}

// IsStar reports whether the reference is the * pseudo-column.
func (c ColumnRef) IsStar() bool { return c.column < 0 }

// IsZero reports whether the reference is unset.
func (c ColumnRef) IsZero() bool { return c == ColumnRef{} }

// Catalog returns the catalog that minted the reference (nil for an unset
// one and for *).
func (c ColumnRef) Catalog() *Catalog { return c.cat }

// Table returns the ordinal of the column's table.
func (c ColumnRef) Table() int { return int(c.table) }

// Column returns the column's index among its table's columns.
func (c ColumnRef) Column() int { return int(c.column) }

// Type returns the column's type: a number for * (only used under
// COUNT(*)), unknown when unset.
func (c ColumnRef) Type() Type {
	switch {
	case c.IsStar():
		return TypeNumber
	case c.cat == nil:
		return TypeUnknown
	}
	return c.cat.types[c.table][c.column]
}

// String renders table.column (or * / ? placeholders).
func (c ColumnRef) String() string {
	switch {
	case c.IsStar():
		return "*"
	case c.cat == nil:
		return "?"
	}
	return c.cat.names[c.table] + "." + c.cat.columns[c.table][c.column]
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

// JoinOn is a join condition as written: Left = Right.
type JoinOn struct {
	Left, Right ColumnRef
}

// String renders the condition.
func (o JoinOn) String() string { return o.Left.String() + " = " + o.Right.String() }

// JoinEdge is one join condition of a path, oriented by introduction:
// Joined is a column of a table already on the path and New a column of
// the table the edge introduces. NewFirst records that the condition was
// written New = Joined.
type JoinEdge struct {
	Joined, New ColumnRef
	NewFirst    bool
}

// JoinPath is the FROM clause: a connected set of one catalog's tables
// joined by equality conditions (FK-PK edges, for every path the search
// builds). Tables lists the tables in introduction order and Edges[i]
// introduces Tables[i+1]. A path is built only through its catalog
// (Catalog.Path, Catalog.Root, JoinFK), which rejects a malformed one, and
// is never written afterwards, so queries share it.
type JoinPath struct {
	cat    *Catalog
	tables []int
	edges  []JoinEdge
	set    TableSet
}

// Path returns the path rooted at the named table that joins each
// condition's new table in turn. Each condition must join two columns of a
// catalog of c's shape, one of a table not on the path yet to one of a
// table that is.
func (c *Catalog) Path(root string, on ...JoinOn) (*JoinPath, error) {
	t, ok := c.index[root]
	if !ok {
		return nil, fmt.Errorf("sqlir: unknown table %s", root)
	}
	p := c.Root(t)
	for _, o := range on {
		a, ok1 := c.own(o.Left)
		b, ok2 := c.own(o.Right)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sqlir: join condition %s names an unknown column", o)
		}
		if err := p.join(a, b); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Root returns the one-table path of table t.
func (c *Catalog) Root(t int) *JoinPath {
	return &JoinPath{cat: c, tables: []int{t}, set: TableSet(0).With(t)}
}

// JoinFK returns the path extended by each of the catalog's foreign keys
// fks in turn (indexes into ForeignKeys), each written key = referenced
// column; the receiver is left as it was. Its callers number tables
// themselves, so a key that does not join a new table to the path is a
// bug, and it panics.
func (j *JoinPath) JoinFK(fks ...int) *JoinPath {
	ext := &JoinPath{cat: j.cat, tables: slices.Clone(j.tables), edges: slices.Clone(j.edges), set: j.set}
	for _, fk := range fks {
		k := j.cat.fks[fk]
		if err := ext.join(k.From, k.To); err != nil {
			panic(err)
		}
	}
	return ext
}

// join appends the condition a = b, which must join one table not on the
// path yet to one that is.
func (j *JoinPath) join(a, b ColumnRef) error {
	e := JoinEdge{Joined: a, New: b}
	switch {
	case j.set.Has(a.Table()) && j.set.Has(b.Table()):
		return fmt.Errorf("sqlir: join condition %s joins tables already joined", j.Written(e))
	case j.set.Has(b.Table()):
		e = JoinEdge{Joined: b, New: a, NewFirst: true}
	case !j.set.Has(a.Table()):
		return fmt.Errorf("sqlir: join condition %s joins no table joined before it", j.Written(e))
	}
	j.tables = append(j.tables, e.New.Table())
	j.edges = append(j.edges, e)
	j.set = j.set.With(e.New.Table())
	return nil
}

// Catalog returns the catalog the path's ordinals number.
func (j *JoinPath) Catalog() *Catalog { return j.cat }

// Tables returns the tables' ordinals in introduction order. Callers must
// not modify them.
func (j *JoinPath) Tables() []int { return j.tables }

// Edges returns the join conditions in introduction order. Callers must not
// modify them.
func (j *JoinPath) Edges() []JoinEdge { return j.edges }

// Set returns the path's tables as a set.
func (j *JoinPath) Set() TableSet { return j.set }

// Written returns e as it was written.
func (j *JoinPath) Written(e JoinEdge) JoinOn {
	if e.NewFirst {
		return JoinOn{e.New, e.Joined}
	}
	return JoinOn{e.Joined, e.New}
}

// Len returns the number of tables (the tiebreaker in §3.3.4: shorter join
// paths are preferred among states of equal confidence).
func (j *JoinPath) Len() int {
	if j == nil {
		return 0
	}
	return len(j.tables)
}

// String renders the FROM clause body.
func (j *JoinPath) String() string {
	if j == nil || len(j.tables) == 0 {
		return "?"
	}
	var b strings.Builder
	b.WriteString(j.cat.names[j.tables[0]])
	for _, e := range j.edges {
		b.WriteString(" JOIN ")
		b.WriteString(j.cat.names[e.New.Table()])
		b.WriteString(" ON ")
		b.WriteString(j.Written(e).String())
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

// ReferencedTables returns the tables referenced by decided column slots
// outside the FROM clause (Line 2-3 of Algorithm 2).
func (q *Query) ReferencedTables() TableSet {
	var set TableSet
	add := func(c ColumnRef) {
		if c.cat != nil { // * and an unset column name no table
			set = set.With(c.Table())
		}
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
	return set
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

// Clone returns a deep copy of the query, sharing only its join path, which
// is never written: a private query to edit in place, or one that outlives
// the scratch it was built in (derive.go).
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
	return &c
}

// Package guidance defines the enumeration guidance model interface that
// GPQE consumes (§3.3): one method per SyntaxSQLNet module (Table 3), each
// returning a softmax-style probability distribution over the module's
// output classes. Any model satisfying the two §3.3.5 extensibility
// requirements — incremental partial-query updates and [0,1] confidences
// obeying Property 1 — can be plugged in.
//
// The paper uses a neural SyntaxSQLNet checkpoint served from PyTorch; this
// repository substitutes a deterministic lexical model (LexicalModel) and a
// noise-parameterised oracle (OracleModel) for testing and calibration. See
// DESIGN.md §3 for why the substitution preserves GPQE's behaviour.
package guidance

import (
	"math"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Scored pairs an output class with its probability. Each module returns a
// slice whose probabilities sum to 1 (enforced by Normalize), which yields
// Property 1: the children of a state partition the parent's confidence.
// Log is math.Log(Prob), written beside it by Normalize, so a search adds
// a child's log-confidence instead of taking a logarithm per child.
type Scored[T any] struct {
	Class T
	Prob  float64
	Log   float64
}

// KeywordSet is the KW module's output: which optional clauses appear.
type KeywordSet struct {
	Where   bool
	GroupBy bool
	OrderBy bool
}

// AllKeywordSets enumerates the KW module's 8 output classes.
func AllKeywordSets() []KeywordSet {
	var out []KeywordSet
	for _, w := range []bool{false, true} {
		for _, g := range []bool{false, true} {
			for _, o := range []bool{false, true} {
				out = append(out, KeywordSet{Where: w, GroupBy: g, OrderBy: o})
			}
		}
	}
	return out
}

// AggCol is an aggregate applied to a column (HAVING expressions and ORDER
// BY keys).
type AggCol struct {
	Agg sqlir.AggFunc
	Col sqlir.ColumnRef
}

// DirLimit is the DESC/ASC module's output: sort direction plus LIMIT row
// count (0 = no limit), decided together as in Table 3.
type DirLimit struct {
	Desc  bool
	Limit int
}

// Model is the guidance interface: one method per inference module. The
// Context carries the NLQ, literals, schema, and the partial query built so
// far; index arguments identify the slot being decided. The partial query
// is the model's to keep unless the model is a Borrower. Every method must
// return a distribution whose probabilities sum to 1; an empty slice means
// the module has no viable output class and the branch dies. A returned
// slice is never written, by the model or its caller: the search queues its
// children as pointers to the classes in it, for the rest of the request. A
// model may return the same slice whenever it is asked the same question.
type Model interface {
	// Keywords predicts which optional clauses the query contains.
	Keywords(ctx *Context) []Scored[KeywordSet]
	// SelectCount predicts the number of projections.
	SelectCount(ctx *Context) []Scored[int]
	// SelectColumn predicts the idx-th projected column.
	SelectColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef]
	// SelectAgg predicts the aggregate for the idx-th projection.
	SelectAgg(ctx *Context, idx int, col sqlir.ColumnRef) []Scored[sqlir.AggFunc]
	// WhereCount predicts the number of selection predicates.
	WhereCount(ctx *Context) []Scored[int]
	// WhereConj predicts the logical connective for multi-predicate WHERE.
	WhereConj(ctx *Context) []Scored[sqlir.LogicalOp]
	// WhereColumn predicts the idx-th predicate's column.
	WhereColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef]
	// WhereOp predicts the operator for a predicate on col.
	WhereOp(ctx *Context, col sqlir.ColumnRef) []Scored[sqlir.Op]
	// WhereValue predicts the literal for a predicate (from the tagged
	// literals L).
	WhereValue(ctx *Context, col sqlir.ColumnRef, op sqlir.Op) []Scored[sqlir.Value]
	// HavingPresent predicts whether a HAVING clause exists.
	HavingPresent(ctx *Context) []Scored[bool]
	// HavingAggCol predicts the aggregate expression in HAVING.
	HavingAggCol(ctx *Context) []Scored[AggCol]
	// HavingOp predicts the HAVING comparison operator.
	HavingOp(ctx *Context) []Scored[sqlir.Op]
	// HavingValue predicts the HAVING literal.
	HavingValue(ctx *Context) []Scored[sqlir.Value]
	// OrderKey predicts the ORDER BY expression.
	OrderKey(ctx *Context) []Scored[AggCol]
	// OrderDir predicts sort direction and LIMIT together.
	OrderDir(ctx *Context) []Scored[DirLimit]
}

// Borrower is a Model that reads Context.Query only during a call and keeps
// nothing reachable from it. The search hands a Borrower the partial query
// it rebuilds in place from one state to the next; any other Model gets a
// copy of its own at each expansion (Query.Clone), which it may keep.
type Borrower interface {
	Model
	// BorrowsQuery reports whether the model reads Context.Query only
	// during a call.
	BorrowsQuery() bool
}

// Borrows reports whether m is a Borrower that borrows.
func Borrows(m Model) bool {
	b, ok := m.(Borrower)
	return ok && b.BorrowsQuery()
}

// Context is the input every module receives: the NLQ (tokenised), the
// tagged literal values, the database schema, and the partial query
// synthesised so far (§3.3.1). When a Database is attached, the context also
// knows which columns contain each tagged literal — the metadata the
// autocomplete tagging interface provides in the paper's front end (§4).
type Context struct {
	NLQ      string
	Tokens   []string
	Literals []sqlir.Value
	Schema   *storage.Schema
	DB       *storage.Database // optional; enables literal-column grounding
	Query    *sqlir.Query      // valid only during a module call if the model is a Borrower

	// features is the request-scoped part of what the lexical model reads,
	// and its answers so far; WithQuery copies share it, so a Context and
	// its copies are used by one goroutine at a time.
	features *features
}

// NewContext tokenises the NLQ and builds a module context.
func NewContext(nlq string, literals []sqlir.Value, schema *storage.Schema, q *sqlir.Query) *Context {
	return newContext(nlq, literals, schema, nil, q)
}

// NewContextDB builds a context with literal-column grounding enabled.
func NewContextDB(nlq string, literals []sqlir.Value, db *storage.Database, q *sqlir.Query) *Context {
	return newContext(nlq, literals, db.Schema, db, q)
}

func newContext(nlq string, literals []sqlir.Value, schema *storage.Schema, db *storage.Database, q *sqlir.Query) *Context {
	tok := Tokenize(nlq)
	return &Context{NLQ: nlq, Tokens: tok, Literals: literals, Schema: schema, DB: db, Query: q,
		features: newFeatures(tok, literals, schema, db)}
}

// WithQuery returns a shallow copy bound to a different partial query. The
// copy shares the receiver's request-scoped features.
func (c *Context) WithQuery(q *sqlir.Query) *Context {
	cp := *c
	cp.Query = q
	return &cp
}

// LiteralColumns returns how many tagged literals each column contains:
// text literals by dictionary lookup, numeric literals by min/max range.
// Nil when no Database is attached or no literal was tagged. The map is
// shared: callers must not write to it.
func (c *Context) LiteralColumns() map[sqlir.ColumnRef]int {
	return c.features.litCols
}

// Memoised returns how many module answers the request has memoised.
func (c *Context) Memoised() int { return len(c.features.memo.answers) }

// Normalize scales probabilities to sum to 1, dropping non-positive entries,
// and stores each one's logarithm beside it, in place: the result reuses
// in's storage. Returns nil if nothing remains.
func Normalize[T any](in []Scored[T]) []Scored[T] {
	total := 0.0
	for _, s := range in {
		if s.Prob > 0 {
			total += s.Prob
		}
	}
	if total <= 0 {
		return nil
	}
	out := in[:0]
	for _, s := range in {
		if s.Prob <= 0 {
			continue
		}
		p := s.Prob / total
		out = append(out, Scored[T]{Class: s.Class, Prob: p, Log: math.Log(p)})
	}
	return out
}

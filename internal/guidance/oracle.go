package guidance

import (
	"github.com/duoquest/duoquest/internal/sqlir"
)

// OracleModel knows the gold query and concentrates probability mass
// (1 - Noise) on the gold decision at every module, spreading Noise over the
// fallback model's remaining candidates. Noise=0 makes GPQE walk straight to
// the gold query (used to test enumeration completeness); higher noise
// simulates weaker neural checkpoints for calibration ablations.
type OracleModel struct {
	Gold     *sqlir.Query
	Noise    float64
	Fallback Model
}

// NewOracleModel wraps a gold query with a lexical fallback.
func NewOracleModel(gold *sqlir.Query, noise float64) *OracleModel {
	return &OracleModel{Gold: gold, Noise: noise, Fallback: NewLexicalModel()}
}

var _ Borrower = (*OracleModel)(nil)

// BorrowsQuery is the fallback's answer: the oracle itself keeps nothing of
// Context.Query.
func (m *OracleModel) BorrowsQuery() bool { return Borrows(m.Fallback) }

// reweight gives the gold class 1-noise and scales the rest into noise. If
// the gold class is absent from the candidate set it is added — to a copy:
// cands is the fallback's, which may hand out the same storage again.
func reweight[T any](cands []Scored[T], gold T, eq func(a, b T) bool, noise float64) []Scored[T] {
	found := false
	rest := 0.0
	for _, c := range cands {
		if eq(c.Class, gold) {
			found = true
		} else {
			rest += c.Prob
		}
	}
	if !found {
		cands = append(cands[:len(cands):len(cands)], Scored[T]{Class: gold})
	}
	out := make([]Scored[T], 0, len(cands))
	for _, c := range cands {
		if eq(c.Class, gold) {
			out = append(out, Scored[T]{Class: c.Class, Prob: 1 - noise})
		} else if rest > 0 {
			out = append(out, Scored[T]{Class: c.Class, Prob: noise * c.Prob / rest})
		}
	}
	return Normalize(out)
}

func colEq(a, b sqlir.ColumnRef) bool  { return a == b }
func aggColEq(a, b AggCol) bool        { return a == b }
func intEq(a, b int) bool              { return a == b }
func aggEq(a, b sqlir.AggFunc) bool    { return a == b }
func opEq(a, b sqlir.Op) bool          { return a == b }
func valEq(a, b sqlir.Value) bool      { return a.Equal(b) }
func boolEq(a, b bool) bool            { return a == b }
func conjEq(a, b sqlir.LogicalOp) bool { return a == b }
func ksEq(a, b KeywordSet) bool        { return a == b }
func dirEq(a, b DirLimit) bool         { return a == b }

// Keywords reflects the gold query's clause presence.
func (m *OracleModel) Keywords(ctx *Context) []Scored[KeywordSet] {
	gold := KeywordSet{
		Where:   m.Gold.WhereState != sqlir.ClauseAbsent,
		GroupBy: m.Gold.GroupByState != sqlir.ClauseAbsent,
		OrderBy: m.Gold.OrderByState != sqlir.ClauseAbsent,
	}
	return reweight(m.Fallback.Keywords(ctx), gold, ksEq, m.Noise)
}

// SelectCount reflects the gold projection count.
func (m *OracleModel) SelectCount(ctx *Context) []Scored[int] {
	return reweight(m.Fallback.SelectCount(ctx), len(m.Gold.Select), intEq, m.Noise)
}

// SelectColumn reflects the idx-th gold projection.
func (m *OracleModel) SelectColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	cands := m.Fallback.SelectColumn(ctx, idx)
	if idx >= len(m.Gold.Select) {
		return cands
	}
	return reweight(cands, m.Gold.Select[idx].Col, colEq, m.Noise)
}

// SelectAgg reflects the idx-th gold aggregate.
func (m *OracleModel) SelectAgg(ctx *Context, idx int, col sqlir.ColumnRef) []Scored[sqlir.AggFunc] {
	cands := m.Fallback.SelectAgg(ctx, idx, col)
	if idx >= len(m.Gold.Select) || m.Gold.Select[idx].Col != col {
		return cands
	}
	return reweight(cands, m.Gold.Select[idx].Agg, aggEq, m.Noise)
}

// WhereCount reflects the gold predicate count.
func (m *OracleModel) WhereCount(ctx *Context) []Scored[int] {
	n := len(m.Gold.Where.Preds)
	if n == 0 {
		return m.Fallback.WhereCount(ctx)
	}
	return reweight(m.Fallback.WhereCount(ctx), n, intEq, m.Noise)
}

// WhereConj reflects the gold connective.
func (m *OracleModel) WhereConj(ctx *Context) []Scored[sqlir.LogicalOp] {
	return reweight(m.Fallback.WhereConj(ctx), m.Gold.Where.Conj, conjEq, m.Noise)
}

// WhereColumn reflects the idx-th gold predicate column.
func (m *OracleModel) WhereColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	cands := m.Fallback.WhereColumn(ctx, idx)
	if idx >= len(m.Gold.Where.Preds) {
		return cands
	}
	return reweight(cands, m.Gold.Where.Preds[idx].Col, colEq, m.Noise)
}

// goldPredAt returns the gold predicate aligned with the slot currently
// being decided: the enumerator fills predicate fields in index order, so
// the first predicate in the context's partial query with the field unset
// identifies the position.
func (m *OracleModel) goldPredAt(ctx *Context, fieldUnset func(sqlir.Predicate) bool) (sqlir.Predicate, bool) {
	if ctx.Query == nil {
		return sqlir.Predicate{}, false
	}
	for i, p := range ctx.Query.Where.Preds {
		if fieldUnset(p) {
			if i < len(m.Gold.Where.Preds) {
				return m.Gold.Where.Preds[i], true
			}
			return sqlir.Predicate{}, false
		}
	}
	return sqlir.Predicate{}, false
}

// WhereOp reflects the gold operator for the predicate slot being decided.
func (m *OracleModel) WhereOp(ctx *Context, col sqlir.ColumnRef) []Scored[sqlir.Op] {
	cands := m.Fallback.WhereOp(ctx, col)
	if p, ok := m.goldPredAt(ctx, func(p sqlir.Predicate) bool { return !p.OpSet }); ok && p.Col == col {
		return reweight(cands, p.Op, opEq, m.Noise)
	}
	return cands
}

// WhereValue reflects the gold literal for the predicate slot being decided.
func (m *OracleModel) WhereValue(ctx *Context, col sqlir.ColumnRef, op sqlir.Op) []Scored[sqlir.Value] {
	cands := m.Fallback.WhereValue(ctx, col, op)
	if p, ok := m.goldPredAt(ctx, func(p sqlir.Predicate) bool { return !p.ValSet }); ok && p.Col == col && p.Op == op {
		return reweight(cands, p.Val, valEq, m.Noise)
	}
	return cands
}

// HavingPresent reflects the gold HAVING state.
func (m *OracleModel) HavingPresent(ctx *Context) []Scored[bool] {
	gold := m.Gold.HavingState != sqlir.ClauseAbsent
	return reweight(m.Fallback.HavingPresent(ctx), gold, boolEq, m.Noise)
}

// HavingAggCol reflects the gold HAVING expression.
func (m *OracleModel) HavingAggCol(ctx *Context) []Scored[AggCol] {
	cands := m.Fallback.HavingAggCol(ctx)
	if m.Gold.HavingState == sqlir.ClauseAbsent {
		return cands
	}
	gold := AggCol{Agg: m.Gold.Having.Agg, Col: m.Gold.Having.Col}
	return reweight(cands, gold, aggColEq, m.Noise)
}

// HavingOp reflects the gold HAVING operator.
func (m *OracleModel) HavingOp(ctx *Context) []Scored[sqlir.Op] {
	cands := m.Fallback.HavingOp(ctx)
	if m.Gold.HavingState == sqlir.ClauseAbsent {
		return cands
	}
	return reweight(cands, m.Gold.Having.Op, opEq, m.Noise)
}

// HavingValue reflects the gold HAVING literal.
func (m *OracleModel) HavingValue(ctx *Context) []Scored[sqlir.Value] {
	cands := m.Fallback.HavingValue(ctx)
	if m.Gold.HavingState == sqlir.ClauseAbsent {
		return cands
	}
	return reweight(cands, m.Gold.Having.Val, valEq, m.Noise)
}

// OrderKey reflects the gold ORDER BY key.
func (m *OracleModel) OrderKey(ctx *Context) []Scored[AggCol] {
	cands := m.Fallback.OrderKey(ctx)
	if m.Gold.OrderByState == sqlir.ClauseAbsent {
		return cands
	}
	gold := AggCol{Agg: m.Gold.OrderBy.Key.Agg, Col: m.Gold.OrderBy.Key.Col}
	return reweight(cands, gold, aggColEq, m.Noise)
}

// OrderDir reflects the gold direction and limit.
func (m *OracleModel) OrderDir(ctx *Context) []Scored[DirLimit] {
	cands := m.Fallback.OrderDir(ctx)
	if m.Gold.OrderByState == sqlir.ClauseAbsent {
		return cands
	}
	gold := DirLimit{Desc: m.Gold.OrderBy.Desc, Limit: m.Gold.Limit}
	return reweight(cands, gold, dirEq, m.Noise)
}

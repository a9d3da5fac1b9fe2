package guidance

import (
	"math"
	"slices"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// LexicalModel is the deterministic guidance model substituting for the
// paper's SyntaxSQLNet checkpoint. It scores each module's output classes by
// token and synonym overlap between the NLQ and schema identifiers plus
// keyword cues ("how many" → COUNT, "before" → <, "for each" → GROUP BY …)
// and softmax-normalises each decision, satisfying the two §3.3.5
// requirements: incremental partial-query updates and Property 1.
//
// Like the neural model it replaces, it is an imperfect ranker: paraphrased
// or ambiguous NLQs produce flat or misordered distributions, which is
// exactly the regime where TSQ-based pruning pays off.
type LexicalModel struct{}

// The model's bounds and its temperature, as used in the evaluation.
const (
	maxSelect = 3 // projections considered
	maxWhere  = 3 // selection predicates considered
	// temperature flattens every distribution (>1); 1 would leave the
	// lexical scores as they are.
	temperature = 1.35
)

// NewLexicalModel returns the model.
func NewLexicalModel() *LexicalModel { return &LexicalModel{} }

var _ Borrower = (*LexicalModel)(nil)

// BorrowsQuery is true: the model keeps nothing of Context.Query. What it
// keeps of a request — its answers, in the Context — it keys by value.
func (m *LexicalModel) BorrowsQuery() bool { return true }

// temper applies temperature scaling then normalises.
func temper[T any](in []Scored[T]) []Scored[T] {
	for i := range in {
		if in[i].Prob > 0 {
			in[i].Prob = math.Pow(in[i].Prob, 1/temperature)
		}
	}
	return Normalize(in)
}

// candidateTables returns the tables later modules may reference: the join
// path's tables once FROM is decided, or the whole schema before that.
func candidateTables(ctx *Context) []*storage.Table {
	if ctx.Query != nil && ctx.Query.From != nil {
		out := make([]*storage.Table, ctx.Query.From.Len())
		for i, t := range ctx.Query.From.Tables() {
			out[i] = ctx.Schema.TableAt(t)
		}
		return out
	}
	return ctx.Schema.Tables
}

// nameColumn returns the table's display attribute: its first non-key text
// column ("name", "title", …), which an NLQ mentioning the entity usually
// asks for.
func nameColumn(table *storage.Table) string {
	for _, c := range table.Columns {
		if c.Type == sqlir.TypeText && c.Name != table.PrimaryKey {
			return c.Name
		}
	}
	return ""
}

// columnScore rates how strongly the NLQ evokes table.column. tblScore is
// the table name's tokenSetScore and display its nameColumn, both the same
// for every column of the table; count is countCue's value.
func columnScore(tok []string, count float64, table *storage.Table, col storage.Column, tblScore float64, display string) float64 {
	s := tokenSetScore(tok, Tokenize(col.Name))
	s += 0.35 * tblScore
	// "List the publications …" asks for the entity's display attribute —
	// unless the question is a count ("how many movies"), where the entity
	// mention feeds COUNT(*) instead.
	if tblScore >= 0.75 && col.Name == display {
		s += 0.45 * (1 - count)
	}
	// Primary/foreign key id columns are rarely what an NLQ asks for.
	if col.Name == table.PrimaryKey || (len(col.Name) > 2 && col.Name[len(col.Name)-2:] == "id") || col.Name == "id" {
		s *= 0.3
	}
	return s + 0.02 // smoothing: every column stays reachable
}

// --- cue detectors -------------------------------------------------------
//
// Each detector is a function of the NLQ tokens alone; newFeatures runs
// them once per request. The phrase lists are split into words at package
// initialisation, so detection is token comparison only.

var (
	countStrong = phrases("how many", "number of", "count of", "count the", "total number")
	countWeak   = phrases("count", "number")

	aggWords = map[sqlir.AggFunc]phraseSet{
		sqlir.AggMax: phrases("maximum", "highest", "largest", "greatest", "most recent", "latest", "biggest", "max"),
		sqlir.AggMin: phrases("minimum", "lowest", "smallest", "earliest", "least recent", "min", "cheapest"),
		sqlir.AggAvg: phrases("average", "mean", "avg"),
		sqlir.AggSum: phrases("total", "sum", "combined", "altogether"),
	}

	whereWords = phrases("with", "whose", "that", "which", "in", "from", "by", "named", "called",
		"before", "after", "between", "more than", "less than", "at least", "at most",
		"over", "under", "above", "below", "starring", "containing")

	groupStrong = phrases("each", "every", "per", "for each", "grouped", "group")
	groupWeak   = phrases("and the number", "and their number", "with more than", "with at least", "with fewer than")

	orderStrong = phrases("ordered", "order", "sorted", "sort", "ranked", "rank",
		"from earliest", "from most", "from least", "from oldest", "from newest",
		"alphabetical", "alphabetically", "descending", "ascending", "top", "first")
	orderWeak = phrases("most", "least", "earliest", "latest", "highest", "lowest")

	havingWords = phrases("more than", "at least", "fewer than", "less than", "at most", "over", "under", "exceeding")

	opWords = map[sqlir.Op]phraseSet{
		sqlir.OpNe:   phrases("not", "except", "other than", "excluding"),
		sqlir.OpLt:   phrases("before", "less than", "fewer than", "under", "below", "earlier than", "smaller than", "cheaper than", "younger than"),
		sqlir.OpGt:   phrases("after", "more than", "greater than", "over", "above", "later than", "larger than", "exceeding", "older than", "at least one"),
		sqlir.OpLe:   phrases("at most", "no more than", "up to"),
		sqlir.OpGe:   phrases("at least", "no less than", "or more", "minimum of"),
		sqlir.OpLike: phrases("containing", "contains", "include", "includes", "including", "like", "starting with", "ending with", "substring"),
	}

	descWords = phrases("descending", "most to least", "newest", "latest first", "highest first",
		"from most", "from newest", "from highest", "most recent first", "largest first", "top")
	ascWords = phrases("ascending", "least to most", "oldest", "earliest", "alphabetical",
		"from least", "from oldest", "from lowest", "from earliest", "to most recent")

	// coordinationPhrases each add a projection to SelectCount's estimate.
	coordinationPhrases = phrases("together with", "as well as", "with corresponding", "along with")
	orWords             = phrases("or", "either", "and those")
	limitWords          = phrases("top", "first")
	superlativeWords    = phrases("top", "first", "most", "least", "highest", "lowest", "best")
)

func countCue(tok []string) float64 {
	switch {
	case countStrong.in(tok):
		return 0.9
	case countWeak.in(tok):
		return 0.5
	default:
		return 0.05
	}
}

// aggCue scores an aggregate; count is countCue's value.
func aggCue(tok []string, count float64, agg sqlir.AggFunc) float64 {
	if agg == sqlir.AggCount {
		return count
	}
	if aggWords[agg].in(tok) {
		if agg == sqlir.AggAvg {
			return 0.85
		}
		return 0.7
	}
	return 0.03
}

func whereCue(tok []string, lits int) float64 {
	s := 0.12
	if lits > 0 {
		s += 0.55
	}
	if whereWords.in(tok) {
		s += 0.25
	}
	return math.Min(s, 0.95)
}

func groupCue(tok []string) float64 {
	switch {
	case groupStrong.in(tok):
		return 0.85
	case groupWeak.in(tok):
		return 0.75
	default:
		return 0.08
	}
}

func orderCue(tok []string) float64 {
	switch {
	case orderStrong.in(tok):
		return 0.85
	case orderWeak.in(tok):
		return 0.4
	default:
		return 0.07
	}
}

func havingCue(tok []string, numericLits int) float64 {
	if havingWords.in(tok) && numericLits > 0 {
		return 0.8
	}
	return 0.1
}

func opCue(tok []string, op sqlir.Op) float64 {
	if op == sqlir.OpEq {
		return 0.5
	}
	if opWords[op].in(tok) {
		switch op {
		case sqlir.OpLe, sqlir.OpGe:
			return 0.55
		case sqlir.OpLike:
			return 0.7
		default:
			return 0.6
		}
	}
	if op == sqlir.OpLt || op == sqlir.OpGt {
		return 0.04
	}
	return 0.02
}

func descCue(tok []string) float64 {
	switch {
	case descWords.in(tok):
		return 0.8
	case ascWords.in(tok):
		return 0.15
	default:
		return 0.42
	}
}

// --- Model implementation ------------------------------------------------
//
// Each module answers from the request's memo (lexMemo), keyed by what it
// reads of Context.Query; on a miss its lower-case namesake computes the
// answer, which the memo keeps for the rest of the request.

// Keywords scores the 8 clause combinations as a product of per-clause cues.
func (m *LexicalModel) Keywords(ctx *Context) []Scored[KeywordSet] {
	return memoised(ctx.memo(keyKeywords), func() []Scored[KeywordSet] { return m.keywords(ctx) })
}

func (m *LexicalModel) keywords(ctx *Context) []Scored[KeywordSet] {
	f := ctx.features
	w, g, o := f.where, f.group, f.order
	sets := AllKeywordSets()
	out := make([]Scored[KeywordSet], 0, len(sets))
	for _, ks := range sets {
		p := 1.0
		if ks.Where {
			p *= w
		} else {
			p *= 1 - w
		}
		if ks.GroupBy {
			p *= g
		} else {
			p *= 1 - g
		}
		if ks.OrderBy {
			p *= o
		} else {
			p *= 1 - o
		}
		out = append(out, Scored[KeywordSet]{Class: ks, Prob: p})
	}
	return temper(out)
}

// SelectCount estimates the projection count from coordination cues: each
// "and their X" / "together with" style conjunction adds a column, and
// "how many X per Y" grouping implies entity + count.
func (m *LexicalModel) SelectCount(ctx *Context) []Scored[int] {
	return memoised(ctx.memo(keySelectCount), func() []Scored[int] { return m.selectCount(ctx) })
}

func (m *LexicalModel) selectCount(ctx *Context) []Scored[int] {
	f := ctx.features
	est := 1 + f.ands + f.coords
	// Grouped counting ("how many X has each Y", "number of X for each Y")
	// projects the group key plus the count.
	if f.group > 0.5 && f.count > 0.4 && est < 2 {
		est = 2
	}
	if est > maxSelect {
		est = maxSelect
	}
	out := make([]Scored[int], 0, maxSelect)
	for n := 1; n <= maxSelect; n++ {
		d := float64(n - est)
		out = append(out, Scored[int]{Class: n, Prob: math.Exp(-0.9 * d * d)})
	}
	return temper(out)
}

// SelectColumn scores candidate columns (plus * for COUNT(*)), excluding
// already-projected ones. Columns containing a tagged literal are likely
// predicate targets, not projections ("publications in conference SIGMOD"
// filters on conference.name rather than projecting it).
func (m *LexicalModel) SelectColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	mm := ctx.memo(keySelectColumn)
	mm.keyTables(ctx.Query)
	if ctx.Query != nil {
		for i, s := range ctx.Query.Select {
			if i < idx && s.ColSet {
				mm.keyColumn(s.Col)
			}
		}
	}
	return memoised(mm, func() []Scored[sqlir.ColumnRef] { return m.selectColumn(ctx, idx) })
}

func (m *LexicalModel) selectColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	f := ctx.features
	projected := func(ref sqlir.ColumnRef) bool {
		if ctx.Query != nil {
			for i, s := range ctx.Query.Select {
				if i < idx && s.ColSet && s.Col == ref {
					return true
				}
			}
		}
		return false
	}
	tables := candidateTables(ctx)
	out := make([]Scored[sqlir.ColumnRef], 0, f.columns(tables)+1)
	for _, t := range tables {
		for _, c := range f.tables[t] {
			if projected(c.ref) {
				continue
			}
			p := c.score
			if c.lits > 0 && c.typ == sqlir.TypeText {
				p *= 0.25
			}
			out = append(out, Scored[sqlir.ColumnRef]{Class: c.ref, Prob: p})
		}
	}
	if !projected(sqlir.Star) {
		out = append(out, Scored[sqlir.ColumnRef]{Class: sqlir.Star, Prob: f.count * 0.8})
	}
	return temper(out)
}

// SelectAgg scores the aggregate for a projection: * forces COUNT; numeric
// aggregates are suppressed on text columns (they would be pruned anyway).
func (m *LexicalModel) SelectAgg(ctx *Context, idx int, col sqlir.ColumnRef) []Scored[sqlir.AggFunc] {
	mm := ctx.memo(keySelectAgg)
	if col.IsStar() {
		mm.key = append(mm.key, '*')
	} else {
		mm.key = append(mm.key, byte(col.Type()))
	}
	return memoised(mm, func() []Scored[sqlir.AggFunc] { return m.selectAgg(ctx, idx, col) })
}

func (m *LexicalModel) selectAgg(ctx *Context, idx int, col sqlir.ColumnRef) []Scored[sqlir.AggFunc] {
	if col.IsStar() {
		// One class, not normalised: its Log is log 1, as Normalize would store.
		return []Scored[sqlir.AggFunc]{{Class: sqlir.AggCount, Prob: 1, Log: 0}}
	}
	f := ctx.features
	ty := col.Type()
	out := make([]Scored[sqlir.AggFunc], 0, len(sqlir.AllAggs))
	maxCue := 0.0
	for _, agg := range []sqlir.AggFunc{sqlir.AggMax, sqlir.AggMin, sqlir.AggCount, sqlir.AggSum, sqlir.AggAvg} {
		if agg.NumericOnly() && ty == sqlir.TypeText {
			continue
		}
		cue := f.agg[agg]
		if cue > maxCue {
			maxCue = cue
		}
		out = append(out, Scored[sqlir.AggFunc]{Class: agg, Prob: 0.9 * cue})
	}
	// The unaggregated prior yields to strong aggregate cues.
	nonePrior := 0.9 - 0.8*maxCue
	if nonePrior < 0.15 {
		nonePrior = 0.15
	}
	out = append(out, Scored[sqlir.AggFunc]{Class: sqlir.AggNone, Prob: nonePrior})
	return temper(out)
}

// WhereCount peaks at the number of tagged literals.
func (m *LexicalModel) WhereCount(ctx *Context) []Scored[int] {
	return memoised(ctx.memo(keyWhereCount), func() []Scored[int] { return m.whereCount(ctx) })
}

func (m *LexicalModel) whereCount(ctx *Context) []Scored[int] {
	est := len(ctx.Literals)
	if est < 1 {
		est = 1
	}
	if est > maxWhere {
		est = maxWhere
	}
	out := make([]Scored[int], 0, maxWhere)
	for n := 1; n <= maxWhere; n++ {
		d := float64(n - est)
		out = append(out, Scored[int]{Class: n, Prob: math.Exp(-1.1 * d * d)})
	}
	return temper(out)
}

// WhereConj prefers AND unless an "or"/"either" cue appears. "and" in an
// NLQ is notoriously ambiguous (the §2 example), so OR keeps real mass.
func (m *LexicalModel) WhereConj(ctx *Context) []Scored[sqlir.LogicalOp] {
	return memoised(ctx.memo(keyWhereConj), func() []Scored[sqlir.LogicalOp] { return m.whereConj(ctx) })
}

func (m *LexicalModel) whereConj(ctx *Context) []Scored[sqlir.LogicalOp] {
	or := 0.25
	if ctx.features.orConj {
		or = 0.6
	}
	return temper([]Scored[sqlir.LogicalOp]{
		{Class: sqlir.LogicAnd, Prob: 1 - or},
		{Class: sqlir.LogicOr, Prob: or},
	})
}

// WhereColumn scores predicate columns: lexical score plus a boost when the
// column's type matches a still-unused literal.
func (m *LexicalModel) WhereColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	mm := ctx.memo(keyWhereColumn)
	mm.keyTables(ctx.Query)
	if ctx.Query != nil {
		for i, p := range ctx.Query.Where.Preds {
			if i < idx && p.ColSet {
				mm.keyColumn(p.Col)
			}
		}
	}
	return memoised(mm, func() []Scored[sqlir.ColumnRef] { return m.whereColumn(ctx, idx) })
}

func (m *LexicalModel) whereColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef] {
	f := ctx.features
	used := func(ref sqlir.ColumnRef) bool {
		if ctx.Query != nil {
			for i, p := range ctx.Query.Where.Preds {
				if i < idx && p.ColSet && p.Col == ref {
					return true
				}
			}
		}
		return false
	}
	numLits := len(f.numLits)
	tables := candidateTables(ctx)
	out := make([]Scored[sqlir.ColumnRef], 0, f.columns(tables))
	for _, t := range tables {
		for _, c := range f.tables[t] {
			s := c.score
			if c.typ == sqlir.TypeText && f.textLits > 0 {
				s *= 1.6
			}
			if c.typ == sqlir.TypeNumber && numLits > 0 {
				s *= 1.3
			}
			// Autocomplete grounding (§4): a tagged literal that actually
			// occurs in this column is strong evidence for the predicate.
			if c.lits > 0 {
				if c.typ == sqlir.TypeText {
					s *= 3.5 * float64(c.lits)
				} else {
					s *= 1.4
				}
			}
			// Re-using a column is allowed (ranges) but discounted.
			if used(c.ref) {
				s *= 0.5
			}
			out = append(out, Scored[sqlir.ColumnRef]{Class: c.ref, Prob: s})
		}
	}
	return temper(out)
}

// WhereOp scores operators with cue words, masking type-invalid choices.
func (m *LexicalModel) WhereOp(ctx *Context, col sqlir.ColumnRef) []Scored[sqlir.Op] {
	mm := ctx.memo(keyWhereOp)
	mm.key = append(mm.key, byte(col.Type()))
	return memoised(mm, func() []Scored[sqlir.Op] { return m.whereOp(ctx, col) })
}

func (m *LexicalModel) whereOp(ctx *Context, col sqlir.ColumnRef) []Scored[sqlir.Op] {
	f := ctx.features
	ty := col.Type()
	out := make([]Scored[sqlir.Op], 0, len(sqlir.AllOps))
	for _, op := range sqlir.AllOps {
		if ty == sqlir.TypeText && op.Ordering() {
			continue
		}
		if ty == sqlir.TypeNumber && op == sqlir.OpLike {
			continue
		}
		out = append(out, Scored[sqlir.Op]{Class: op, Prob: f.op[op]})
	}
	return temper(out)
}

// WhereValue proposes type-compatible tagged literals, discounting ones
// already used in earlier predicates.
func (m *LexicalModel) WhereValue(ctx *Context, col sqlir.ColumnRef, op sqlir.Op) []Scored[sqlir.Value] {
	mm := ctx.memo(keyWhereValue)
	ty := col.Type()
	like := byte(0)
	if op == sqlir.OpLike {
		like = 1
	}
	mm.key = append(mm.key, byte(ty), like)
	if ctx.Query != nil {
		for _, p := range ctx.Query.Where.Preds {
			if p.ValSet {
				mm.keyValue(p.Val)
			}
		}
	}
	return memoised(mm, func() []Scored[sqlir.Value] { return m.whereValue(ctx, col, op) })
}

func (m *LexicalModel) whereValue(ctx *Context, col sqlir.ColumnRef, op sqlir.Op) []Scored[sqlir.Value] {
	ty := col.Type()
	var used []string
	if ctx.Query != nil {
		for _, p := range ctx.Query.Where.Preds {
			if p.ValSet {
				used = append(used, p.Val.String())
			}
		}
	}
	var out []Scored[sqlir.Value]
	for _, l := range ctx.Literals {
		if op == sqlir.OpLike {
			if l.Kind != sqlir.KindText {
				continue
			}
		} else if l.Type() != ty {
			continue
		}
		v := l
		if op == sqlir.OpLike {
			v = sqlir.NewText("%" + l.Text + "%")
		}
		p := 1.0
		if len(used) > 0 && slices.Contains(used, v.String()) {
			p = 0.3
		}
		out = append(out, Scored[sqlir.Value]{Class: v, Prob: p})
	}
	return temper(out)
}

// HavingPresent uses comparative cues plus unused numeric literals.
func (m *LexicalModel) HavingPresent(ctx *Context) []Scored[bool] {
	return memoised(ctx.memo(keyHavingPresent), func() []Scored[bool] { return m.havingPresent(ctx) })
}

func (m *LexicalModel) havingPresent(ctx *Context) []Scored[bool] {
	h := ctx.features.having
	return temper([]Scored[bool]{
		{Class: false, Prob: 1 - h},
		{Class: true, Prob: h},
	})
}

// HavingAggCol favours COUNT(*) (the overwhelmingly common case), with
// numeric-column aggregates as alternatives.
func (m *LexicalModel) HavingAggCol(ctx *Context) []Scored[AggCol] {
	mm := ctx.memo(keyHavingAggCol)
	mm.keyTables(ctx.Query)
	return memoised(mm, func() []Scored[AggCol] { return m.havingAggCol(ctx) })
}

func (m *LexicalModel) havingAggCol(ctx *Context) []Scored[AggCol] {
	f := ctx.features
	out := []Scored[AggCol]{{Class: AggCol{Agg: sqlir.AggCount, Col: sqlir.Star}, Prob: 0.7}}
	for _, t := range candidateTables(ctx) {
		for _, c := range f.tables[t] {
			if c.typ != sqlir.TypeNumber {
				continue
			}
			for _, agg := range []sqlir.AggFunc{sqlir.AggSum, sqlir.AggAvg, sqlir.AggMax, sqlir.AggMin} {
				out = append(out, Scored[AggCol]{
					Class: AggCol{Agg: agg, Col: c.ref},
					Prob:  0.3 * c.score * f.agg[agg],
				})
			}
		}
	}
	return temper(out)
}

// HavingOp reuses the operator cues; equality is rare in HAVING.
func (m *LexicalModel) HavingOp(ctx *Context) []Scored[sqlir.Op] {
	return memoised(ctx.memo(keyHavingOp), func() []Scored[sqlir.Op] { return m.havingOp(ctx) })
}

func (m *LexicalModel) havingOp(ctx *Context) []Scored[sqlir.Op] {
	f := ctx.features
	out := make([]Scored[sqlir.Op], 0, len(sqlir.AllOps))
	for _, op := range []sqlir.Op{sqlir.OpEq, sqlir.OpNe, sqlir.OpLt, sqlir.OpGt, sqlir.OpLe, sqlir.OpGe} {
		p := f.op[op]
		if op == sqlir.OpEq {
			p *= 0.3
		}
		out = append(out, Scored[sqlir.Op]{Class: op, Prob: p})
	}
	return temper(out)
}

// HavingValue proposes numeric literals.
func (m *LexicalModel) HavingValue(ctx *Context) []Scored[sqlir.Value] {
	return memoised(ctx.memo(keyHavingValue), func() []Scored[sqlir.Value] { return m.havingValue(ctx) })
}

func (m *LexicalModel) havingValue(ctx *Context) []Scored[sqlir.Value] {
	var out []Scored[sqlir.Value]
	for _, l := range ctx.features.numLits {
		out = append(out, Scored[sqlir.Value]{Class: l, Prob: 1})
	}
	return temper(out)
}

// OrderKey proposes projected columns, COUNT(*) under grouping, aggregated
// projections, and lexical matches among join-path columns.
func (m *LexicalModel) OrderKey(ctx *Context) []Scored[AggCol] {
	mm := ctx.memo(keyOrderKey)
	mm.keyTables(ctx.Query)
	if q := ctx.Query; q != nil {
		grouped := byte(0)
		if q.GroupByState != sqlir.ClauseAbsent {
			grouped = 1
		}
		mm.key = append(mm.key, grouped)
		for _, s := range q.Select {
			if s.Complete() {
				mm.key = append(mm.key, byte(s.Agg))
				mm.keyColumn(s.Col)
			}
		}
	}
	return memoised(mm, func() []Scored[AggCol] { return m.orderKey(ctx) })
}

func (m *LexicalModel) orderKey(ctx *Context) []Scored[AggCol] {
	f := ctx.features
	tables := candidateTables(ctx)
	out := make([]Scored[AggCol], 0, f.columns(tables)+len(sqlir.AllAggs))
	grouped := ctx.Query != nil && ctx.Query.GroupByState != sqlir.ClauseAbsent
	add := func(ac AggCol, p float64) {
		for _, o := range out {
			if o.Class == ac {
				return
			}
		}
		out = append(out, Scored[AggCol]{Class: ac, Prob: p})
	}
	if ctx.Query != nil {
		for _, s := range ctx.Query.Select {
			if !s.Complete() {
				continue
			}
			p := 0.5
			if s.Agg != sqlir.AggNone {
				p = 0.7 // "most publications" usually orders by the count
			}
			add(AggCol{Agg: s.Agg, Col: s.Col}, p)
		}
	}
	if grouped {
		add(AggCol{Agg: sqlir.AggCount, Col: sqlir.Star}, 0.45)
	} else {
		for _, t := range tables {
			for _, c := range f.tables[t] {
				add(AggCol{Agg: sqlir.AggNone, Col: c.ref}, 0.4*c.score)
			}
		}
	}
	return temper(out)
}

// OrderDir decides direction and limit together: limit candidates come from
// small numeric literals plus 1 when a superlative cue appears.
func (m *LexicalModel) OrderDir(ctx *Context) []Scored[DirLimit] {
	return memoised(ctx.memo(keyOrderDir), func() []Scored[DirLimit] { return m.orderDir(ctx) })
}

func (m *LexicalModel) orderDir(ctx *Context) []Scored[DirLimit] {
	f := ctx.features
	d := f.desc
	limits := []int{0}
	if f.superlative {
		limits = append(limits, 1)
	}
	for _, l := range f.numLits {
		n := int(l.Num)
		if float64(n) == l.Num && n >= 1 && n <= 100 && !slices.Contains(limits, n) {
			limits = append(limits, n)
		}
	}
	hasLimitCue := f.limitWord && len(limits) > 1
	var out []Scored[DirLimit]
	for _, lim := range limits {
		pl := 0.75
		if lim > 0 {
			pl = 0.25 / float64(len(limits)-1)
			if hasLimitCue {
				pl = 0.6 / float64(len(limits)-1)
			}
		} else if hasLimitCue {
			pl = 0.4
		}
		out = append(out,
			Scored[DirLimit]{Class: DirLimit{Desc: true, Limit: lim}, Prob: pl * d},
			Scored[DirLimit]{Class: DirLimit{Desc: false, Limit: lim}, Prob: pl * (1 - d)},
		)
	}
	return temper(out)
}

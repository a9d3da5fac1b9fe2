package guidance

import (
	"encoding/binary"
	"math"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// features is everything the lexical model reads that is a function of the
// request alone — NLQ tokens, tagged literals, schema, database — and not
// of the partial query: every cue detector's value, every column's lexical
// score and literal grounding, the literal counts. It is computed once,
// attached to the Context by pointer and shared by every WithQuery copy, so
// a module call is arithmetic over this table. Besides, it holds the
// answers the request's modules have given (lexMemo), so that a question
// asked again is answered without arithmetic; nothing else here is written
// after newFeatures returns.
type features struct {
	// Cue detector values (lexical.go) over the NLQ tokens.
	count, where, group, order, having, desc float64
	agg                                      [sqlir.AggAvg + 1]float64
	op                                       [sqlir.OpLike + 1]float64
	orConj, limitWord, superlative           bool

	// ands counts "and" tokens and coords the coordination phrases
	// ("together with" …): SelectCount's projection estimate.
	ands, coords int

	numLits  []sqlir.Value // the numeric tagged literals, in order
	textLits int           // how many tagged literals are text

	// tables holds each table's per-column features, aligned with
	// Table.Columns.
	tables map[*storage.Table][]columnFeature
	// litCols is the literal→column grounding as LiteralColumns reports it:
	// nil without a database or without literals.
	litCols map[sqlir.ColumnRef]int
	// memo holds the lexical model's answers in this request: the one part
	// of features written after newFeatures returns.
	memo lexMemo
}

// columnFeature is one schema column as the request sees it.
type columnFeature struct {
	ref   sqlir.ColumnRef
	typ   sqlir.Type
	score float64 // columnScore: how strongly the NLQ evokes the column
	lits  int     // tagged literals of the column's type that occur in it
}

func newFeatures(tok []string, literals []sqlir.Value, schema *storage.Schema, db *storage.Database) *features {
	f := &features{
		memo:        lexMemo{answers: map[string]any{}},
		count:       countCue(tok),
		group:       groupCue(tok),
		order:       orderCue(tok),
		desc:        descCue(tok),
		orConj:      orWords.in(tok),
		limitWord:   limitWords.in(tok),
		superlative: superlativeWords.in(tok),
	}
	for _, l := range literals {
		if l.Kind == sqlir.KindNumber {
			f.numLits = append(f.numLits, l)
		} else if l.Kind == sqlir.KindText {
			f.textLits++
		}
	}
	f.where = whereCue(tok, len(literals))
	f.having = havingCue(tok, len(f.numLits))
	for _, agg := range sqlir.AllAggs {
		f.agg[agg] = aggCue(tok, f.count, agg)
	}
	for _, op := range sqlir.AllOps {
		f.op[op] = opCue(tok, op)
	}
	for _, t := range tok {
		if t == "and" {
			f.ands++
		}
	}
	for _, cue := range coordinationPhrases {
		if containsWords(tok, cue) {
			f.coords++
		}
	}
	if schema == nil {
		return f
	}
	if db != nil && len(literals) > 0 {
		f.litCols = map[sqlir.ColumnRef]int{}
	}
	cat := schema.Catalog()
	f.tables = make(map[*storage.Table][]columnFeature, len(schema.Tables))
	for o := range cat.NumTables() {
		t := schema.TableAt(o)
		tblScore := tokenSetScore(tok, Tokenize(t.Name))
		display := nameColumn(t)
		cols := make([]columnFeature, len(t.Columns))
		for i, c := range t.Columns {
			cf := columnFeature{
				ref:   cat.Column(o, i),
				typ:   c.Type,
				score: columnScore(tok, f.count, t, c, tblScore, display),
			}
			if f.litCols != nil {
				if cf.lits = groundedLiterals(db, t, i, cf.ref, literals); cf.lits > 0 {
					f.litCols[cf.ref] = cf.lits
				}
			}
			cols[i] = cf
		}
		f.tables[t] = cols
	}
	return f
}

// columns is the total number of columns in tables: a module's output size.
func (f *features) columns(tables []*storage.Table) int {
	n := 0
	for _, t := range tables {
		n += len(f.tables[t])
	}
	return n
}

// groundedLiterals counts the tagged literals of the column's type that
// occur in column ci of t: a text literal when the column's dictionary
// holds it (every dictionary entry is referenced by some row), a numeric
// literal when it lies within the column's [min, max].
func groundedLiterals(db *storage.Database, t *storage.Table, ci int, ref sqlir.ColumnRef, literals []sqlir.Value) int {
	col := t.Columns[ci]
	n := 0
	for _, lit := range literals {
		if lit.Type() != col.Type {
			continue
		}
		if col.Type == sqlir.TypeText {
			if dict := t.VectorAt(ci).Dict(); dict != nil {
				if _, ok := dict.Lookup(lit.Text); ok {
					n++
				}
			}
		} else if st := db.Stats(ref); st.NonNull > 0 &&
			lit.Num >= st.Min.Num && lit.Num <= st.Max.Num {
			n++
		}
	}
	return n
}

// lexMemo is the lexical model's answers in one request. A module's answer
// is a function of the request and of what the module reads of
// Context.Query, so it is filed under exactly that, as a value — never a
// pointer into the query, of which a model that is not a Borrower is handed
// a copy at every expansion:
//   - nothing, for Keywords, SelectCount, WhereCount, WhereConj,
//     HavingPresent, HavingOp, HavingValue and OrderDir;
//   - the column's type, for WhereOp, and for SelectAgg, which answers *
//     apart;
//   - the candidate tables plus the earlier slots' columns, for
//     SelectColumn, WhereColumn and HavingAggCol (which has no earlier
//     slot), and for OrderKey the complete projections and whether the
//     query is grouped;
//   - the column's type, LIKE or not and the values already used, for
//     WhereValue.
//
// Tables and columns are keyed by their catalog ordinals. The entries are
// bounded by the distinct questions the request asks.
type lexMemo struct {
	// answers holds each answer, a []Scored of its module's class type,
	// under its key: the module, then what the module read.
	answers map[string]any
	key     []byte // the key being built, reused
}

// The modules, as the first byte of a key.
const (
	keyKeywords byte = iota
	keySelectCount
	keySelectColumn
	keySelectAgg
	keyWhereCount
	keyWhereConj
	keyWhereColumn
	keyWhereOp
	keyWhereValue
	keyHavingPresent
	keyHavingAggCol
	keyHavingOp
	keyHavingValue
	keyOrderKey
	keyOrderDir
)

// memo returns the request's memo with a key begun for module.
func (c *Context) memo(module byte) *lexMemo {
	mm := &c.features.memo
	mm.key = append(mm.key[:0], module)
	return mm
}

// memoised returns the answer filed under mm's key, computing and filing
// it on a miss.
func memoised[T any](mm *lexMemo, compute func() []Scored[T]) []Scored[T] {
	if v, ok := mm.answers[string(mm.key)]; ok {
		return v.([]Scored[T])
	}
	v := compute()
	mm.answers[string(mm.key)] = v
	return v
}

// keyTables appends the tables candidateTables returns: a marker for the
// whole schema before FROM is decided, else the join path's tables in
// order.
func (mm *lexMemo) keyTables(q *sqlir.Query) {
	if q == nil || q.From == nil {
		mm.key = append(mm.key, 0)
		return
	}
	k := binary.AppendUvarint(append(mm.key, 1), uint64(q.From.Len()))
	for _, t := range q.From.Tables() {
		k = binary.AppendUvarint(k, uint64(t))
	}
	mm.key = k
}

// keyColumn appends a decided column c: 0 for *, else 1 + its table's
// ordinal and then its own.
func (mm *lexMemo) keyColumn(c sqlir.ColumnRef) {
	if c.IsStar() {
		mm.key = append(mm.key, 0)
		return
	}
	mm.key = binary.AppendUvarint(binary.AppendUvarint(mm.key, uint64(c.Table())+1), uint64(c.Column()))
}

// keyValue appends v: its kind, text and number bits.
func (mm *lexMemo) keyValue(v sqlir.Value) {
	k := appendText(append(mm.key, byte(v.Kind)), v.Text)
	mm.key = binary.LittleEndian.AppendUint64(k, math.Float64bits(v.Num))
}

func appendText(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

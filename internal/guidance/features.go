package guidance

import (
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// features is everything the lexical model reads that is a function of the
// request alone — NLQ tokens, tagged literals, schema, database — and not
// of the partial query: every cue detector's value, every column's lexical
// score and literal grounding, the literal counts. It is computed once,
// attached to the Context by pointer and shared by every WithQuery copy, so
// a module call is arithmetic over this table; nothing here is written
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
	f.tables = make(map[*storage.Table][]columnFeature, len(schema.Tables))
	for _, t := range schema.Tables {
		tblScore := tokenSetScore(tok, Tokenize(t.Name))
		display := nameColumn(t)
		cols := make([]columnFeature, len(t.Columns))
		for i, c := range t.Columns {
			cf := columnFeature{
				ref:   sqlir.ColumnRef{Table: t.Name, Column: c.Name},
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
		} else if st, err := db.Stats(ref); err == nil && st.NonNull > 0 &&
			lit.Num >= st.Min.Num && lit.Num <= st.Max.Num {
			n++
		}
	}
	return n
}

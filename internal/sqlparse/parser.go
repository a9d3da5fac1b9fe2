package sqlparse

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Parse parses one SQL statement against a schema, resolving table aliases
// and unqualified column names, and returns a complete sqlir.Query.
//
// Supported grammar (case-insensitive keywords):
//
//	SELECT [DISTINCT] item (, item)*
//	FROM table [AS alias] (JOIN table [AS alias] ON col = col)*
//	[WHERE pred ((AND|OR) pred)*]
//	[GROUP BY col (, col)* [HAVING agg(col) op value]]
//	[ORDER BY key [ASC|DESC]] [LIMIT n]
//
// where item is col or AGG(col|*). Mixed AND/OR, set operations and
// subqueries are outside the paper's task scope and are rejected.
func Parse(schema *storage.Schema, input string) (*sqlir.Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{schema: schema, toks: toks, aliases: map[string]string{}}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	schema     *storage.Schema
	toks       []token
	pos        int
	aliases    map[string]string // alias (lower) -> table name
	fromTables []string          // tables in FROM, for unqualified resolution
}

// MustParse parses or panics; for tests and dataset construction where the
// SQL is a compile-time constant.
func MustParse(schema *storage.Schema, input string) *sqlir.Query {
	q, err := Parse(schema, input)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// acceptKw consumes the token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tokIdent && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqlparse: expected %q at %d, got %q", kw, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("sqlparse: expected %q at %d, got %q", s, p.cur().pos, p.cur().text)
	}
	return nil
}

var aggNames = map[string]sqlir.AggFunc{
	"max": sqlir.AggMax, "min": sqlir.AggMin, "count": sqlir.AggCount,
	"sum": sqlir.AggSum, "avg": sqlir.AggAvg,
}

func (p *parser) parseQuery() (*sqlir.Query, error) {
	q := sqlir.NewQuery()
	q.KWSet = true
	q.LimitSet = true
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	if p.acceptKw("distinct") {
		q.Distinct = true
	}

	// Projections are parsed before FROM (so aliases are not yet known);
	// collect raw refs and resolve afterwards.
	type rawItem struct {
		agg  sqlir.AggFunc
		qual string // table or alias, "" if unqualified
		col  string // "*" for star
	}
	var rawSel []rawItem
	for {
		it := rawItem{agg: sqlir.AggNone}
		if p.cur().kind == tokIdent {
			if agg, ok := aggNames[p.cur().text]; ok && p.peekSym(1, "(") {
				it.agg = agg
				p.pos += 2 // ident + (
				if p.acceptSym("*") {
					it.col = "*"
				} else {
					var err error
					it.qual, it.col, err = p.parseRawRef()
					if err != nil {
						return nil, err
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				rawSel = append(rawSel, it)
				if !p.acceptSym(",") {
					break
				}
				continue
			}
		}
		if p.acceptSym("*") {
			it.col = "*"
		} else {
			var err error
			it.qual, it.col, err = p.parseRawRef()
			if err != nil {
				return nil, err
			}
		}
		rawSel = append(rawSel, it)
		if !p.acceptSym(",") {
			break
		}
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	rawEdges, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	// Resolve the ON conditions now that aliases exist. Each must join one
	// FROM table not yet joined to the tables joined before it — the order
	// sqlir.JoinPath promises and its String relies on — so a self-join
	// condition, a condition between tables already joined and one naming a
	// table outside FROM fail here, not when the query runs.
	joined := map[string]bool{p.fromTables[0]: true}
	ons := make([]sqlir.JoinOn, 0, len(rawEdges))
	for _, re := range rawEdges {
		a, err := p.resolveRef(re[0], re[1])
		if err != nil {
			return nil, err
		}
		b, err := p.resolveRef(re[2], re[3])
		if err != nil {
			return nil, err
		}
		on := sqlir.JoinOn{Left: a, Right: b}
		cat := p.schema.Catalog()
		ta, tb := cat.Name(a.Table()), cat.Name(b.Table())
		next := ta
		if joined[next] {
			next = tb
		}
		switch {
		case joined[next]:
			return nil, fmt.Errorf("sqlparse: join edge %s joins tables already joined", on)
		case !joined[ta] && !joined[tb]:
			return nil, fmt.Errorf("sqlparse: join edge %s joins no table joined before it", on)
		case !slices.Contains(p.fromTables, next):
			return nil, fmt.Errorf("sqlparse: join edge %s names table %s, which is not in FROM", on, next)
		}
		joined[next] = true
		ons = append(ons, on)
	}
	if q.From, err = p.schema.Catalog().Path(p.fromTables[0], ons...); err != nil {
		return nil, err
	}

	// Resolve projections.
	q.SelectCountSet = true
	for _, it := range rawSel {
		si := sqlir.SelectItem{Agg: it.agg, AggSet: true, ColSet: true}
		if it.col == "*" {
			if it.agg != sqlir.AggCount {
				return nil, fmt.Errorf("sqlparse: bare * only supported under COUNT")
			}
			si.Col = sqlir.Star
		} else {
			ref, err := p.resolveRef(it.qual, it.col)
			if err != nil {
				return nil, err
			}
			si.Col = ref
		}
		q.Select = append(q.Select, si)
	}

	if p.acceptKw("where") {
		q.WhereState = sqlir.ClausePresent
		q.Where.CountSet = true
		conjSeen := ""
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where.Preds = append(q.Where.Preds, pred)
			if p.acceptKw("and") {
				if conjSeen == "or" {
					return nil, fmt.Errorf("sqlparse: mixed AND/OR not in task scope")
				}
				conjSeen = "and"
				continue
			}
			if p.acceptKw("or") {
				if conjSeen == "and" {
					return nil, fmt.Errorf("sqlparse: mixed AND/OR not in task scope")
				}
				conjSeen = "or"
				continue
			}
			break
		}
		q.Where.ConjSet = true
		if conjSeen == "or" {
			q.Where.Conj = sqlir.LogicOr
		} else {
			q.Where.Conj = sqlir.LogicAnd
		}
	}

	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		q.GroupByState = sqlir.ClausePresent
		for {
			qual, col, err := p.parseRawRef()
			if err != nil {
				return nil, err
			}
			ref, err := p.resolveRef(qual, col)
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, ref)
			if !p.acceptSym(",") {
				break
			}
		}
		if p.acceptKw("having") {
			q.HavingState = sqlir.ClausePresent
			h := sqlir.HavingExpr{AggSet: true, ColSet: true, OpSet: true, ValSet: true}
			aggName := p.cur().text
			agg, ok := aggNames[aggName]
			if p.cur().kind != tokIdent || !ok {
				return nil, fmt.Errorf("sqlparse: HAVING requires an aggregate at %d", p.cur().pos)
			}
			p.pos++
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			h.Agg = agg
			if p.acceptSym("*") {
				h.Col = sqlir.Star
			} else {
				qual, col, err := p.parseRawRef()
				if err != nil {
					return nil, err
				}
				ref, err := p.resolveRef(qual, col)
				if err != nil {
					return nil, err
				}
				h.Col = ref
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			op, err := p.parseOp()
			if err != nil {
				return nil, err
			}
			h.Op = op
			val, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			h.Val = val
			q.Having = &h
		}
	}

	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		q.OrderByState = sqlir.ClausePresent
		key := sqlir.OrderKey{Agg: sqlir.AggNone}
		if agg, ok := aggNames[p.cur().text]; ok && p.cur().kind == tokIdent && p.peekSym(1, "(") {
			key.Agg = agg
			p.pos += 2
			if p.acceptSym("*") {
				key.Col = sqlir.Star
			} else {
				qual, col, err := p.parseRawRef()
				if err != nil {
					return nil, err
				}
				ref, err := p.resolveRef(qual, col)
				if err != nil {
					return nil, err
				}
				key.Col = ref
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		} else {
			qual, col, err := p.parseRawRef()
			if err != nil {
				return nil, err
			}
			ref, err := p.resolveRef(qual, col)
			if err != nil {
				return nil, err
			}
			key.Col = ref
		}
		q.OrderBy = &sqlir.OrderBy{Key: key, KeySet: true, DirSet: true}
		if p.acceptKw("desc") {
			q.OrderBy.Desc = true
		} else {
			p.acceptKw("asc")
		}
	}

	if p.acceptKw("limit") {
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("sqlparse: LIMIT requires a number at %d", p.cur().pos)
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sqlparse: bad LIMIT value")
		}
		q.Limit = n
	}

	p.acceptSym(";")
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sqlparse: trailing input at %d: %q", p.cur().pos, p.cur().text)
	}
	return q, nil
}

// peekSym reports whether the token at offset d is the given symbol.
func (p *parser) peekSym(d int, s string) bool {
	if p.pos+d >= len(p.toks) {
		return false
	}
	t := p.toks[p.pos+d]
	return t.kind == tokSymbol && t.text == s
}

// parseRawRef reads [qual .] name without resolving.
func (p *parser) parseRawRef() (qual, col string, err error) {
	if p.cur().kind != tokIdent {
		return "", "", fmt.Errorf("sqlparse: expected column reference at %d, got %q", p.cur().pos, p.cur().text)
	}
	first := p.next().text
	if p.acceptSym(".") {
		if p.cur().kind != tokIdent {
			return "", "", fmt.Errorf("sqlparse: expected column after '.' at %d", p.cur().pos)
		}
		return first, p.next().text, nil
	}
	return "", first, nil
}

// resolveRef maps an alias-or-table qualifier and column name to a concrete
// schema column through the schema's catalog, which rejects an unknown
// column with its one text. Unqualified names are resolved if unambiguous
// across the tables in the FROM clause.
func (p *parser) resolveRef(qual, col string) (sqlir.ColumnRef, error) {
	if qual != "" {
		tbl := qual
		if real, ok := p.aliases[qual]; ok {
			tbl = real
		}
		if p.schema.Table(tbl) == nil {
			return sqlir.ColumnRef{}, fmt.Errorf("sqlparse: unknown table %q", qual)
		}
		return p.schema.Catalog().Col(tbl, col)
	}
	// Unqualified: search FROM tables.
	var found []string
	for _, tbl := range p.fromTables {
		t := p.schema.Table(tbl)
		if t != nil && t.ColumnIndex(col) >= 0 {
			found = append(found, tbl)
		}
	}
	switch len(found) {
	case 1:
		return p.schema.Catalog().Col(found[0], col)
	case 0:
		return sqlir.ColumnRef{}, fmt.Errorf("sqlparse: column %q not found in FROM tables", col)
	default:
		return sqlir.ColumnRef{}, fmt.Errorf("sqlparse: column %q is ambiguous (%v)", col, found)
	}
}

// parseFrom reads the FROM clause into p.fromTables, registering aliases.
// Join ON conditions are returned raw because later aliases may be
// referenced.
func (p *parser) parseFrom() ([][4]string, error) {
	var rawEdges [][4]string
	readTable := func() error {
		if p.cur().kind != tokIdent {
			return fmt.Errorf("sqlparse: expected table name at %d", p.cur().pos)
		}
		name := p.next().text
		if p.schema.Table(name) == nil {
			return fmt.Errorf("sqlparse: unknown table %q", name)
		}
		if slices.Contains(p.fromTables, name) {
			return fmt.Errorf("sqlparse: table %q joined twice (self-joins out of scope)", name)
		}
		p.fromTables = append(p.fromTables, name)
		if p.acceptKw("as") {
			if p.cur().kind != tokIdent {
				return fmt.Errorf("sqlparse: expected alias at %d", p.cur().pos)
			}
			p.aliases[p.next().text] = name
		} else if p.cur().kind == tokIdent && !reserved[p.cur().text] {
			p.aliases[p.next().text] = name
		}
		return nil
	}
	if err := readTable(); err != nil {
		return nil, err
	}
	for p.acceptKw("join") {
		if err := readTable(); err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		q1, c1, err := p.parseRawRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		q2, c2, err := p.parseRawRef()
		if err != nil {
			return nil, err
		}
		rawEdges = append(rawEdges, [4]string{q1, c1, q2, c2})
	}
	return rawEdges, nil
}

var reserved = map[string]bool{
	"join": true, "on": true, "where": true, "group": true, "order": true,
	"having": true, "limit": true, "as": true, "and": true, "or": true,
	"select": true, "from": true, "by": true, "asc": true, "desc": true,
}

func (p *parser) parsePredicate() (sqlir.Predicate, error) {
	pred := sqlir.Predicate{ColSet: true, OpSet: true, ValSet: true}
	qual, col, err := p.parseRawRef()
	if err != nil {
		return pred, err
	}
	ref, err := p.resolveRef(qual, col)
	if err != nil {
		return pred, err
	}
	pred.Col = ref
	op, err := p.parseOp()
	if err != nil {
		return pred, err
	}
	pred.Op = op
	val, err := p.parseValue()
	if err != nil {
		return pred, err
	}
	pred.Val = val
	return pred, nil
}

func (p *parser) parseOp() (sqlir.Op, error) {
	t := p.cur()
	if t.kind == tokIdent && t.text == "like" {
		p.pos++
		return sqlir.OpLike, nil
	}
	if t.kind == tokSymbol {
		switch t.text {
		case "=":
			p.pos++
			return sqlir.OpEq, nil
		case "!=", "<>":
			p.pos++
			return sqlir.OpNe, nil
		case "<":
			p.pos++
			return sqlir.OpLt, nil
		case ">":
			p.pos++
			return sqlir.OpGt, nil
		case "<=":
			p.pos++
			return sqlir.OpLe, nil
		case ">=":
			p.pos++
			return sqlir.OpGe, nil
		}
	}
	return sqlir.OpEq, fmt.Errorf("sqlparse: expected operator at %d, got %q", t.pos, t.text)
}

func (p *parser) parseValue() (sqlir.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.pos++
		return sqlir.NewText(t.text), nil
	case tokNumber:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return sqlir.Null(), fmt.Errorf("sqlparse: bad number %q", t.text)
		}
		return sqlir.NewNumber(f), nil
	default:
		return sqlir.Null(), fmt.Errorf("sqlparse: expected literal at %d, got %q", t.pos, t.text)
	}
}

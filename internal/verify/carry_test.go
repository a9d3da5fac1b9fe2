package verify

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// carryStar is a star around grp, shaped like the executor's single-group
// decision tests: fact and note join grp on grp_id, grp.name repeats,
// grp.score is given NaN (stored as NULL), ±Inf (a SUM or AVG over both is
// NaN, which reads NULL), -0 and +0, fact.v runs negative so a SUM can fall,
// the fact and note columns are about 40 % NULL and a twentieth of their
// foreign keys are NULL. Foreign keys also point a few ids past grp's last
// row, so an appended grp row can complete joins that existed only on one
// side. Two thirds of the appended rows' foreign keys name one of the first
// three groups, which the grouped questions mostly pin, so appends keep
// moving their counts.
type carryStar struct {
	r    *rand.Rand
	live *storage.Database
	rows map[string]int // rows per table so far: the next id
}

func newCarryStar(seed int64) *carryStar {
	grp := storage.NewTable("grp", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "score", Type: sqlir.TypeNumber},
	)
	fact := storage.NewTable("fact", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "grp_id", Type: sqlir.TypeNumber},
		storage.Column{Name: "v", Type: sqlir.TypeNumber},
		storage.Column{Name: "tag", Type: sqlir.TypeText},
	)
	note := storage.NewTable("note", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "grp_id", Type: sqlir.TypeNumber},
		storage.Column{Name: "w", Type: sqlir.TypeText},
	)
	s := storage.NewSchema(grp, fact, note)
	s.AddForeignKey("fact", "grp_id", "grp", "id")
	s.AddForeignKey("note", "grp_id", "grp", "id")
	st := &carryStar{r: rand.New(rand.NewSource(seed)), live: storage.NewDatabase("carry", s), rows: map[string]int{}}
	for _, tn := range []struct {
		table string
		n     int
	}{{"grp", 30}, {"fact", 150}, {"note", 60}} {
		for range tn.n {
			st.live.Table(tn.table).MustInsert(st.row(tn.table, false)...)
		}
	}
	return st
}

// row draws the next row of table. A hot row, one appended after the start,
// names one of the first three groups two times in three — a hot grp row
// repeats its id, doubling the group's joins — and half the time carries a
// number below every stored one, so a SUM or a MIN of its group falls.
func (st *carryStar) row(table string, hot bool) []sqlir.Value {
	r := st.r
	n := st.rows[table]
	st.rows[table]++
	nullable := func(v sqlir.Value) sqlir.Value {
		if r.Intn(5) < 2 {
			return sqlir.Null()
		}
		return v
	}
	group := func() sqlir.Value {
		switch {
		case r.Intn(20) == 0:
			return sqlir.Null()
		case hot && r.Intn(3) > 0:
			return sqlir.NewInt(r.Intn(3))
		}
		return sqlir.NewInt(r.Intn(st.rows["grp"] + 4))
	}
	number := func(nums []sqlir.Value) sqlir.Value {
		if hot && r.Intn(2) == 0 {
			return sqlir.NewInt(-4 - r.Intn(6))
		}
		return nullable(nums[r.Intn(len(nums))])
	}
	switch table {
	case "grp":
		id := sqlir.NewInt(n)
		if hot && r.Intn(3) > 0 {
			id = sqlir.NewInt(r.Intn(3))
		}
		return []sqlir.Value{id, sqlir.NewText(fmt.Sprintf("g%d", n%25)), number(carryNums)}
	case "fact":
		return []sqlir.Value{sqlir.NewInt(n), group(), number(carryNums[3:]), nullable(sqlir.NewText(fmt.Sprintf("t%d", r.Intn(6))))}
	default:
		return []sqlir.Value{sqlir.NewInt(n), group(), nullable(sqlir.NewText(fmt.Sprintf("w%d", r.Intn(4))))}
	}
}

// carryNums are the numbers given to storage: grp.score draws NaN and ±Inf
// too, fact.v neither, so that a fact group's SUM is finite and can fall.
var carryNums = []sqlir.Value{sqlir.NewNumber(math.NaN()), sqlir.NewNumber(math.Inf(1)), sqlir.NewNumber(math.Inf(-1)),
	sqlir.NewNumber(math.Copysign(0, -1)), sqlir.NewNumber(0), sqlir.NewNumber(2.5), sqlir.NewInt(-3), sqlir.NewInt(1), sqlir.NewInt(3)}

// appendBatch appends one to three rows to a random table, as one epoch.
func (st *carryStar) appendBatch(t *testing.T) {
	table := []string{"grp", "fact", "note"}[st.r.Intn(3)]
	tb := st.live.Table(table)
	cols := make([]storage.ColumnData, len(tb.Columns))
	for range 1 + st.r.Intn(3) {
		for ci, v := range st.row(table, true) {
			c := &cols[ci]
			c.Nulls = append(c.Nulls, v.IsNull())
			if tb.Columns[ci].Type == sqlir.TypeText {
				c.Texts = append(c.Texts, v.Text)
			} else {
				c.Nums = append(c.Nums, v.Num)
			}
		}
	}
	if _, err := st.live.Append(table, cols); err != nil {
		t.Fatal(err)
	}
}

func (st *carryStar) col(table, column string) sqlir.ColumnRef {
	return st.live.Schema.Catalog().MustCol(table, column)
}

// path is one of the star's paths: grp alone, grp with fact, the whole star
// rooted at each table, or fact or note alone (which an append to the other
// leaves unchanged).
func (st *carryStar) path() *sqlir.JoinPath {
	cat := st.live.Schema.Catalog()
	fg := sqlir.JoinOn{Left: st.col("fact", "grp_id"), Right: st.col("grp", "id")}
	ng := sqlir.JoinOn{Left: st.col("note", "grp_id"), Right: st.col("grp", "id")}
	shapes := []struct {
		root string
		ons  []sqlir.JoinOn
	}{
		{"grp", nil}, {"fact", nil}, {"note", nil},
		{"grp", []sqlir.JoinOn{fg}},
		{"grp", []sqlir.JoinOn{fg, ng}},
		{"fact", []sqlir.JoinOn{fg, ng}},
		{"note", []sqlir.JoinOn{ng, fg}},
	}
	sh := shapes[st.r.Intn(len(shapes))]
	jp, err := cat.Path(sh.root, sh.ons...)
	if err != nil {
		panic(err)
	}
	return jp
}

// column picks a column of a table on the path.
func (st *carryStar) column(jp *sqlir.JoinPath) sqlir.ColumnRef {
	tb := jp.Tables()[st.r.Intn(jp.Len())]
	return jp.Catalog().Column(tb, st.r.Intn(len(st.live.Schema.TableAt(tb).Columns)))
}

// groupIDs is the path's columns that hold a grp id.
func (st *carryStar) groupIDs(jp *sqlir.JoinPath) []sqlir.ColumnRef {
	var ids []sqlir.ColumnRef
	for _, tb := range jp.Tables() {
		name := jp.Catalog().Name(tb)
		col := "grp_id"
		if name == "grp" {
			col = "id"
		}
		ids = append(ids, st.col(name, col))
	}
	return ids
}

// value is a number or text c might hold: ±Inf, ±0 and small counts
// included.
func (st *carryStar) value(c sqlir.ColumnRef) sqlir.Value {
	if c.Type() == sqlir.TypeText {
		return sqlir.NewText(fmt.Sprintf("%c%d", "gtw"[st.r.Intn(3)], st.r.Intn(6)))
	}
	return sqlir.NewNumber(carryKs[st.r.Intn(len(carryKs))])
}

var carryKs = []float64{0, 1, 2, 3, 4, 6, 12, -3, 2.5, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

func pred(c sqlir.ColumnRef, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{Col: c, ColSet: true, Op: op, OpSet: true, Val: v, ValSet: true}
}

// having is COUNT(*), COUNT(col), SUM over a number or MIN of any column,
// compared by any operator with a number.
func (st *carryStar) having(jp *sqlir.JoinPath) sqlir.HavingExpr {
	h := sqlir.HavingExpr{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
		Op: sqlir.AllOps[st.r.Intn(6)], OpSet: true, Val: sqlir.NewNumber(carryKs[st.r.Intn(len(carryKs))]), ValSet: true}
	switch st.r.Intn(5) {
	case 0, 1:
		h.Col = st.column(jp)
	case 2:
		h.Agg, h.Col = sqlir.AggSum, st.measure(jp)
		h.Val = st.value(h.Col)
	case 3:
		h.Agg, h.Col = sqlir.AggMin, st.measure(jp)
		h.Val = st.value(h.Col)
	}
	return h
}

// measure is a numeric column of the path, mostly fact.v or grp.score,
// whose appended values can lower a SUM or a MIN.
func (st *carryStar) measure(jp *sqlir.JoinPath) sqlir.ColumnRef {
	c := st.column(jp)
	for c.Type() != sqlir.TypeNumber {
		c = st.column(jp)
	}
	for _, tb := range jp.Tables() {
		switch name := jp.Catalog().Name(tb); {
		case name == "fact" && st.r.Intn(2) == 0:
			return st.col("fact", "v")
		case name == "grp" && st.r.Intn(2) == 0:
			return st.col("grp", "score")
		}
	}
	return c
}

// question draws an exists question: plain (shape 0), with HAVING over the
// implicit single group (1), grouped with the key pinned, mostly to one of
// the groups appends favour (2 and 3), or grouped freely (4).
func (st *carryStar) question(shape int) sqlexec.ExistsQuery {
	jp := st.path()
	eq := sqlexec.ExistsQuery{From: jp, Conj: sqlir.LogicAnd}
	if st.r.Intn(4) == 0 {
		eq.Conj = sqlir.LogicOr
	}
	for range st.r.Intn(3) {
		if shape == 2 || shape == 3 {
			break
		}
		c := st.column(jp)
		eq.Preds = append(eq.Preds, pred(c, sqlir.AllOps[st.r.Intn(6)], st.value(c)))
	}
	switch shape {
	case 2, 3:
		// Mostly a group id, pinned to a group appends favour.
		c, v := st.column(jp), sqlir.NewInt(st.r.Intn(3))
		if ids := st.groupIDs(jp); st.r.Intn(4) > 0 {
			c = ids[st.r.Intn(len(ids))]
		} else if c.Type() == sqlir.TypeText {
			v = st.value(c)
		}
		eq.GroupBy = []sqlir.ColumnRef{c}
		eq.AndPreds = append(eq.AndPreds, pred(c, sqlir.OpEq, v))
	case 4:
		eq.GroupBy = []sqlir.ColumnRef{st.column(jp)}
	}
	if shape == 0 {
		return eq
	}
	for range 1 + st.r.Intn(2) {
		eq.Havings = append(eq.Havings, st.having(jp))
	}
	// Over one group, most counts compare with that group's count or one
	// or two above it: where =, <=, < and != are about to change.
	for i, h := range eq.Havings {
		if shape < 4 && h.Agg == sqlir.AggCount && st.r.Intn(4) > 0 {
			eq.Havings[i].Val = sqlir.NewInt(st.count(eq, h) + st.r.Intn(3))
		}
	}
	return eq
}

// count is the count h reads in eq's one group now, or 0 if there is no
// such group: the largest k for which HAVING COUNT(..) >= k holds.
func (st *carryStar) count(eq sqlexec.ExistsQuery, h sqlir.HavingExpr) int {
	db := st.live.Snapshot()
	h.Op = sqlir.OpGe
	eq.Havings = []sqlir.HavingExpr{h}
	atLeast := func(k int) bool {
		h.Val = sqlir.NewInt(k)
		eq.Havings[0] = h
		ok, err := sqlexec.ExistsCtx(context.Background(), db, eq)
		return err == nil && ok
	}
	lo, hi := 0, 1
	for atLeast(hi) {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 { // atLeast(lo), !atLeast(hi)
		if mid := (lo + hi) / 2; atLeast(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestCarriedAnswersAreFresh: every answer the memo reuses across epochs is
// the answer a fresh probe of the snapshot that asked gives, in both
// directions. Generated exists questions are asked through the by-row memo
// path of one snapshot's Cache; then, round after round, one random batch is
// appended to one random table and the new snapshot's Cache is At the old
// one's. Twenty new questions are drawn, every question is asked on the new
// snapshot — reusing the old one's answers — and then again on the old one,
// which reuses what the new one computed first over tables the append left
// alone. Each reused answer is checked against sqlexec.ExistsCtx on the
// snapshot that asked.
func TestCarriedAnswersAreFresh(t *testing.T) {
	ctx := context.Background()
	st := newCarryStar(42)
	// qs are distinct questions, so that a question drawn in a round is
	// first computed by whichever snapshot asks it first.
	var qs []sqlexec.ExistsQuery
	var keys []memoKey
	seen := map[memoKey]bool{}
	draw := func(n int) {
		for len(qs) < n {
			eq := st.question(len(qs) % 5)
			if k := existsKey(eq); !seen[k] {
				seen[k] = true
				qs, keys = append(qs, eq), append(keys, k)
			}
		}
	}
	draw(480)
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	// ask asks question i through v's memo, and checks a reused answer
	// against a fresh probe of v's snapshot.
	ask := func(round int, v *Verifier, i int) (answer, reused bool) {
		eq := qs[i]
		ok, hit, err := v.rowCache.do(v.db, eq.From.Set(), keys[i], func() (bool, bool, error) { return v.probe(ctx, eq) })
		if err != nil {
			t.Fatalf("round %d question %d: %v\n%+v", round, i, err, eq)
		}
		if hit {
			fresh, err := sqlexec.ExistsCtx(ctx, v.db, eq)
			if err != nil {
				t.Fatalf("round %d question %d: %v\n%+v", round, i, err, eq)
			}
			if ok != fresh {
				t.Fatalf("round %d question %d: reused %v on epoch %d, fresh probe %v\n%+v", round, i, ok, v.db.Epoch(), fresh, eq)
			}
		}
		return ok, hit
	}
	db := st.live.Snapshot()
	cache := NewCache(db)
	prev := make([]bool, len(qs))
	for i := range qs {
		prev[i], _ = ask(-1, NewWithCache(db, nil, nil, nil, cache), i)
	}
	// kept counts reused true answers whose tables changed under a HAVING:
	// what the classification lets survive. older counts the old snapshot's
	// reuses of answers the new one computed. missed counts, per near miss,
	// the true answers a later epoch made false that it would have kept.
	kept, older, missed := 0, 0, make([]int, len(nearMisses))
	for round := range rounds {
		st.appendBatch(t)
		next := st.live.Snapshot()
		changed := changedTables(db, next)
		nextCache := cache.At(next)
		drawn := len(qs)
		draw(drawn + 20)
		nv, ov := NewWithCache(next, nil, nil, nil, nextCache), NewWithCache(db, nil, nil, nil, cache)
		answers := make([]bool, len(qs))
		for i, eq := range qs {
			answer, reused := ask(round, nv, i)
			answers[i] = answer
			if i >= drawn {
				continue
			}
			for m, nm := range nearMisses {
				if prev[i] && !answer && !slices.ContainsFunc(eq.Havings, func(h sqlir.HavingExpr) bool { return !nm.staysTrue(h) }) {
					missed[m]++
				}
			}
			if reused && answer && len(eq.Havings) > 0 && eq.From.Set()&changed != 0 {
				kept++
			}
		}
		for i := range qs {
			if _, reused := ask(round, ov, i); reused && i >= drawn {
				older++
			}
		}
		db, cache, prev = next, nextCache, answers
	}
	t.Logf("%d HAVING answers reused across a change; %d answers reused by the older snapshot; answers a near miss would have kept wrongly: %v", kept, older, missed)
	if kept == 0 {
		t.Error("no HAVING answer was reused across a change of its tables")
	}
	if older == 0 {
		t.Error("the older snapshot reused no answer the newer one computed")
	}
	for m, nm := range nearMisses {
		if missed[m] == 0 {
			t.Errorf("no true answer turned false that %q would have kept: the generator could not tell it from the rule", nm.name)
		}
	}
}

// nearMisses are rules one step wider than the classification, each of which
// would carry some true answer that appended rows make false.
var nearMisses = []struct {
	name      string
	staysTrue func(h sqlir.HavingExpr) bool
}{
	{"COUNT != as stays-true", func(h sqlir.HavingExpr) bool {
		return h.Agg == sqlir.AggCount && h.Val.Kind == sqlir.KindNumber && (h.Op == sqlir.OpGt || h.Op == sqlir.OpGe || h.Op == sqlir.OpNe)
	}},
	{"COUNT = as stays-true", func(h sqlir.HavingExpr) bool {
		return h.Agg == sqlir.AggCount && h.Val.Kind == sqlir.KindNumber && (h.Op == sqlir.OpGt || h.Op == sqlir.OpGe || h.Op == sqlir.OpEq)
	}},
	{"any aggregate's > and >= as stays-true", func(h sqlir.HavingExpr) bool {
		return h.Val.Kind == sqlir.KindNumber && (h.Op == sqlir.OpGt || h.Op == sqlir.OpGe)
	}},
}

// changedTables is the set of tables whose frozen contents differ between
// two snapshots of one database.
func changedTables(a, b *storage.Database) sqlir.TableSet {
	var s sqlir.TableSet
	for t := range a.Schema.Catalog().NumTables() {
		if a.Schema.TableAt(t) != b.Schema.TableAt(t) {
			s = s.With(t)
		}
	}
	return s
}

package sqlexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Tests of the single-group early exit (groupDecider): a grouped probe that
// can have only one group and asks only COUNT bounds stops once its answer is
// settled, and answers exactly as the reference does. Internal, so the
// generator can also check which probes the decider takes.

// decideDB is a star around grp: fact and note both join grp on grp_id, so
// a three-table path multiplies them per group (the shape of scale_ingest's
// slow probe). grp.name repeats, so pinning it can match two grp rows of one
// group; grp.score holds -0, +0, ±Inf and NaN (stored as NULL); the fact
// and note columns are about 40 % NULL.
func decideDB() *storage.Database {
	r := rand.New(rand.NewSource(25))
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
	nullable := func(v sqlir.Value) sqlir.Value {
		if r.Intn(5) < 2 {
			return sqlir.Null()
		}
		return v
	}
	scores := []sqlir.Value{sqlir.NewNumber(math.NaN()), sqlir.NewNumber(math.Copysign(0, -1)), sqlir.NewNumber(0),
		sqlir.NewNumber(2.5), sqlir.Null(), sqlir.NewInt(1), sqlir.NewInt(3), sqlir.NewNumber(math.Inf(1)), sqlir.NewNumber(math.Inf(-1))}
	for i := 0; i < 40; i++ {
		grp.MustInsert(sqlir.NewInt(i), sqlir.NewText(fmt.Sprintf("g%d", i%25)), scores[r.Intn(len(scores))])
	}
	for i := 0; i < 240; i++ {
		gid := sqlir.NewInt(r.Intn(40))
		if r.Intn(20) == 0 {
			gid = sqlir.Null()
		}
		fact.MustInsert(sqlir.NewInt(i), gid, nullable(sqlir.NewInt(r.Intn(5))), nullable(sqlir.NewText(fmt.Sprintf("t%d", r.Intn(6)))))
	}
	for i := 0; i < 80; i++ {
		note.MustInsert(sqlir.NewInt(i), sqlir.NewInt(r.Intn(40)), nullable(sqlir.NewText(fmt.Sprintf("w%d", r.Intn(4)))))
	}
	return storage.NewDatabase("decide", s)
}

// decideGen draws single-group probe shapes over decideDB.
type decideGen struct {
	r  *rand.Rand
	db *storage.Database
}

func cmpPred(c sqlir.ColumnRef, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{Col: c, ColSet: true, Op: op, OpSet: true, Val: v, ValSet: true}
}

// path is one of the star's paths, rooted at any of its tables: a pin on a
// non-root table leaves the scan unseeded, so it runs over the root's rows.
func (g *decideGen) path() *sqlir.JoinPath {
	const fg, ng = "fact.grp_id = grp.id", "note.grp_id = grp.id"
	paths := []*sqlir.JoinPath{
		MustPath(g.db, "grp", fg),
		MustPath(g.db, "grp", fg, ng),
		MustPath(g.db, "fact", fg, ng),
		MustPath(g.db, "note", ng, fg),
	}
	return paths[g.r.Intn(len(paths))]
}

// column picks a column of a table on the path.
func (g *decideGen) column(jp *sqlir.JoinPath) sqlir.ColumnRef {
	tb := jp.Tables()[g.r.Intn(jp.Len())]
	return jp.Catalog().Column(tb, g.r.Intn(len(g.db.Schema.TableAt(tb).Columns)))
}

// pin is an equality on c with a value c holds, or +Inf / -0 on a numeric
// column.
func (g *decideGen) pin(c sqlir.ColumnRef) sqlir.Predicate {
	vs, _ := DistinctValues(g.db, c, 40)
	v := sqlir.NewText("absent")
	if len(vs) > 0 {
		v = vs[g.r.Intn(len(vs))]
	}
	if c.Type() == sqlir.TypeNumber {
		switch g.r.Intn(5) {
		case 0:
			v = sqlir.NewNumber(math.Inf(1))
		case 1:
			v = sqlir.NewNumber(math.Copysign(0, -1))
		}
	}
	return cmpPred(c, sqlir.OpEq, v)
}

var decideKs = []float64{0, 1, 2, 3, 4, 6, 12, 1e6, 2.5, math.Inf(1), math.Inf(-1)}

// count is a COUNT(*) or COUNT(col) condition with any comparison and any k.
func (g *decideGen) count(jp *sqlir.JoinPath) sqlir.HavingExpr {
	col := sqlir.Star
	if g.r.Intn(2) == 0 {
		col = g.column(jp)
	}
	return sqlir.HavingExpr{
		Agg: sqlir.AggCount, AggSet: true, Col: col, ColSet: true,
		Op: sqlir.AllOps[g.r.Intn(6)], OpSet: true, Val: sqlir.NewNumber(decideKs[g.r.Intn(len(decideKs))]), ValSet: true,
	}
}

// probe returns a probe of the given shape and whether the decider must take
// it:
//
//	0: no GROUP BY
//	1: one GROUP BY column, pinned
//	2: two GROUP BY columns, both pinned
//	3: two GROUP BY columns, one pinned — may have many groups
//	4: one GROUP BY column pinned only inside an OR — may have many groups
//
// A fifth of the probes also carry SUM over a text column, before or after
// the counts, which no decider may take: it errs exactly when evaluated.
func (g *decideGen) probe(shape int) (ExistsQuery, bool) {
	jp := g.path()
	eq := ExistsQuery{From: jp, Conj: sqlir.LogicAnd}
	decidable := true
	switch shape {
	case 1:
		c := g.column(jp)
		eq.GroupBy = []sqlir.ColumnRef{c}
		if g.r.Intn(2) == 0 {
			eq.Preds = []sqlir.Predicate{g.pin(c)}
		} else {
			eq.AndPreds = []sqlir.Predicate{g.pin(c)}
		}
	case 2, 3:
		c1, c2 := g.column(jp), g.column(jp)
		for c2 == c1 {
			c2 = g.column(jp)
		}
		eq.GroupBy = []sqlir.ColumnRef{c1, c2}
		eq.AndPreds = []sqlir.Predicate{g.pin(c1)}
		if shape == 2 {
			eq.AndPreds = append(eq.AndPreds, g.pin(c2))
		} else {
			decidable = false
		}
	case 4:
		c := g.column(jp)
		eq.GroupBy = []sqlir.ColumnRef{c}
		eq.Conj = sqlir.LogicOr
		eq.Preds = []sqlir.Predicate{g.pin(c), cmpPred(g.column(jp), sqlir.OpGe, sqlir.NewInt(1))}
		decidable = false
	}
	if g.r.Intn(3) == 0 {
		// A non-equality filter pins nothing.
		eq.AndPreds = append(eq.AndPreds, cmpPred(g.column(jp), sqlir.AllOps[1+g.r.Intn(5)], sqlir.NewInt(g.r.Intn(4))))
	}
	for i := 1 + g.r.Intn(2); i > 0; i-- {
		eq.Havings = append(eq.Havings, g.count(jp))
	}
	if g.r.Intn(5) == 0 {
		text := Col(g.db, "grp", "name")
		if fact, _ := jp.Catalog().Ordinal("fact"); jp.Set().Has(fact) {
			text = Col(g.db, "fact", "tag")
		}
		sum := sqlir.HavingExpr{Agg: sqlir.AggSum, AggSet: true, Col: text, ColSet: true,
			Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(0), ValSet: true}
		if g.r.Intn(2) == 0 {
			eq.Havings = append([]sqlir.HavingExpr{sum}, eq.Havings...)
		} else {
			eq.Havings = append(eq.Havings, sum)
		}
		decidable = false
	}
	return eq, decidable
}

// TestSingleGroupDecisionDifferential: every generated single-group probe
// answers, and errs, exactly as the materializing reference, and the decider
// takes exactly the probes whose shape allows it. Settled scans must occur
// both ways, or the early exit is not being exercised.
func TestSingleGroupDecisionDifferential(t *testing.T) {
	db := decideDB()
	g := &decideGen{r: rand.New(rand.NewSource(25)), db: db}
	n := 1000
	if testing.Short() {
		n = 300
	}
	var settledTrue, settledFalse, errs int
	for i := 0; i < n; i++ {
		eq, decidable := g.probe(i % 5)
		plan, err := buildStreamPlan(db, eq, false)
		if err != nil {
			t.Fatalf("probe %d: plan: %v\n%+v", i, err, eq)
		}
		spec, err := bindGrouped(plan, eq)
		if err != nil {
			t.Fatalf("probe %d: grouping did not bind: %v\n%+v", i, err, eq)
		}
		// Half the probes move their counts' k onto, or next to, the first
		// group's final count: that is where = is true, != is false, and an
		// exit taken one tuple early gives the wrong answer.
		if g.r.Intn(2) == 0 {
			full, _, _ := plan.scanGroups(context.Background(), &discardCounters, spec, nil)
			if len(full.order) > 0 {
				st := full.order[0]
				for hi, h := range eq.Havings {
					if h.Agg != sqlir.AggCount {
						continue
					}
					c := st.rows
					if !h.Col.IsStar() {
						c = st.accs[spec.colAt[h.Col]].count
					}
					eq.Havings[hi].Val = sqlir.NewInt(c + g.r.Intn(3) - 1)
				}
			}
		}
		want, werr := ExistsReference(db, eq)
		if werr != nil {
			errs++
		}

		dec := newGroupDecider(eq, spec)
		if (dec != nil) != decidable {
			t.Fatalf("probe %d (shape %d): decider %v, want decidable=%v\n%+v", i, i%5, dec != nil, decidable, eq)
		}
		if dec != nil {
			if _, settled, _ := plan.scanGroups(context.Background(), &discardCounters, spec, dec); settled && dec.lower {
				settledTrue++
			} else if settled {
				settledFalse++
			}
		}

		got, gerr := Exists(db, eq)
		if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("probe %d: error %v, reference %v\n%+v", i, gerr, werr, eq)
		}
		if gerr == nil && got != want {
			t.Fatalf("probe %d: %v, reference %v\n%+v", i, got, want, eq)
		}
	}
	if settledTrue < n/40 || settledFalse < n/40 || errs == 0 {
		t.Errorf("settled true %d, settled false %d, errors %d of %d probes: the generator no longer exercises the early exit both ways and the lazy SUM error", settledTrue, settledFalse, errs, n)
	}
}

// TestGroupedProbeStopsAtKPlusOne: a group pinned by an equality has 10 000
// joined tuples, and every tuple costs one join probe (c is looked up per b
// row). HAVING COUNT(*) = 3 is false and >= 3 true, and either is known by
// the fourth tuple: the scan must stop there — a handful of index probes, not
// ten thousand — whichever table roots the path.
func TestGroupedProbeStopsAtKPlusOne(t *testing.T) {
	const rows = 10_000
	a := storage.NewTable("a", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
	)
	b := storage.NewTable("b", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "a_id", Type: sqlir.TypeNumber},
	)
	c := storage.NewTable("c", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "b_id", Type: sqlir.TypeNumber},
	)
	a.MustInsert(sqlir.NewInt(0), sqlir.NewText("x"))
	a.MustInsert(sqlir.NewInt(1), sqlir.NewText("y"))
	for i := 0; i < rows; i++ {
		b.MustInsert(sqlir.NewInt(i), sqlir.NewInt(0))
		c.MustInsert(sqlir.NewInt(i), sqlir.NewInt(i))
	}
	s := storage.NewSchema(a, b, c)
	s.AddForeignKey("b", "a_id", "a", "id")
	s.AddForeignKey("c", "b_id", "b", "id")
	db := storage.NewDatabase("stop", s)

	// Rooted at a, the scan is seeded by the pin: one probe finds a's b rows
	// and each tuple up to the fourth probes c, at most 5 in all. Rooted at
	// b, the scan walks b's rows unseeded and each tuple up to the fourth
	// probes a and then c, at most 8 in all.
	for _, tc := range []struct {
		op     sqlir.Op
		want   bool
		tables []string // root first
		bound  int64
	}{
		{sqlir.OpEq, false, []string{"a", "b", "c"}, 5},
		{sqlir.OpGe, true, []string{"a", "b", "c"}, 5},
		{sqlir.OpEq, false, []string{"b", "a", "c"}, 8},
		{sqlir.OpGe, true, []string{"b", "a", "c"}, 8},
	} {
		eq := ExistsQuery{
			From:     MustPath(db, tc.tables[0], "b.a_id = a.id", "c.b_id = b.id"),
			AndPreds: []sqlir.Predicate{cmpPred(Col(db, "a", "name"), sqlir.OpEq, sqlir.NewText("x"))},
			GroupBy:  []sqlir.ColumnRef{Col(db, "a", "name")},
			Havings: []sqlir.HavingExpr{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: tc.op, OpSet: true, Val: sqlir.NewInt(3), ValSet: true}},
		}
		jc := NewJoinCache(db)
		got, err := jc.Exists(eq)
		if err != nil {
			t.Fatal(err)
		}
		if refOK, _ := ExistsReference(db, eq); got != tc.want || refOK != tc.want {
			t.Fatalf("%v COUNT(*) %s 3: got %v, reference %v, want %v", tc.tables, tc.op, got, refOK, tc.want)
		}
		if st := jc.Stats(); st.IndexProbes > tc.bound {
			t.Errorf("%v COUNT(*) %s 3: %d index probes for a question settled by the fourth tuple (bound %d)", tc.tables, tc.op, st.IndexProbes, tc.bound)
		}
	}
}

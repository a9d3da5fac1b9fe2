package sqlexec_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// Paired executor benchmarks: the same existence-probe workload over a
// multi-edge join path, answered by the materialize-then-filter reference
// path and by the streaming/index pipeline. Each streaming benchmark first
// asserts answer-for-answer equivalence with the reference executor, so the
// speedup can never come from changed semantics. BenchmarkExecute{Reference,
// Compiled} at the end of the file are the same pairing for complete
// queries. Run them with `go test ./internal/sqlexec -run '^$' -bench
// 'BenchmarkExists|BenchmarkExecute' -benchmem`.

var (
	benchOnce sync.Once
	benchDB   *storage.Database
)

// benchStore builds a three-table FK chain (cust ⋈ ord ⋈ prod) big enough
// that materializing the join dominates a naive probe: 4k customers, 1k
// products, 20k orders.
func benchStore() *storage.Database {
	benchOnce.Do(func() {
		r := rand.New(rand.NewSource(7))
		cust := storage.NewTable("cust", "cid",
			storage.Column{Name: "cid", Type: sqlir.TypeNumber},
			storage.Column{Name: "name", Type: sqlir.TypeText},
			storage.Column{Name: "city", Type: sqlir.TypeText},
		)
		prod := storage.NewTable("prod", "pid",
			storage.Column{Name: "pid", Type: sqlir.TypeNumber},
			storage.Column{Name: "pname", Type: sqlir.TypeText},
			storage.Column{Name: "price", Type: sqlir.TypeNumber},
		)
		ord := storage.NewTable("ord", "oid",
			storage.Column{Name: "oid", Type: sqlir.TypeNumber},
			storage.Column{Name: "cid", Type: sqlir.TypeNumber},
			storage.Column{Name: "pid", Type: sqlir.TypeNumber},
			storage.Column{Name: "qty", Type: sqlir.TypeNumber},
		)
		s := storage.NewSchema(cust, ord, prod)
		s.AddForeignKey("ord", "cid", "cust", "cid")
		s.AddForeignKey("ord", "pid", "prod", "pid")
		for i := 0; i < 4000; i++ {
			cust.MustInsert(sqlir.NewInt(i), sqlir.NewText(fmt.Sprintf("cust-%d", i)),
				sqlir.NewText(fmt.Sprintf("city-%d", i%50)))
		}
		for i := 0; i < 1000; i++ {
			prod.MustInsert(sqlir.NewInt(i), sqlir.NewText(fmt.Sprintf("prod-%d", i)),
				sqlir.NewInt(1+r.Intn(500)))
		}
		for i := 0; i < 20000; i++ {
			ord.MustInsert(sqlir.NewInt(i), sqlir.NewInt(r.Intn(4000)),
				sqlir.NewInt(r.Intn(1000)), sqlir.NewInt(1+r.Intn(9)))
		}
		benchDB = storage.NewDatabase("bench", s)
	})
	return benchDB
}

func benchPath() *sqlir.JoinPath {
	return &sqlir.JoinPath{
		Tables: []string{"cust", "ord", "prod"},
		Edges: []sqlir.JoinEdge{
			{FromTable: "ord", FromColumn: "cid", ToTable: "cust", ToColumn: "cid"},
			{FromTable: "ord", FromColumn: "pid", ToTable: "prod", ToColumn: "pid"},
		},
	}
}

func benchPred(table, col string, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{
		Col: sqlir.ColumnRef{Table: table, Column: col}, ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

// benchProbes is the shared workload: selective by-row-style probes over
// the two-edge join path, roughly half of them misses.
func benchProbes() []sqlexec.ExistsQuery {
	r := rand.New(rand.NewSource(11))
	probes := make([]sqlexec.ExistsQuery, 0, 200)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("cust-%d", r.Intn(8000)) // half miss the table
		probes = append(probes, sqlexec.ExistsQuery{
			From: benchPath(),
			Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{
				benchPred("cust", "name", sqlir.OpEq, sqlir.NewText(name)),
				benchPred("prod", "price", sqlir.OpGt, sqlir.NewInt(r.Intn(500))),
			},
		})
	}
	return probes
}

// benchGroupedProbes is the RV2-style workload: grouped existence with
// HAVING range constraints.
func benchGroupedProbes() []sqlexec.ExistsQuery {
	r := rand.New(rand.NewSource(13))
	probes := make([]sqlexec.ExistsQuery, 0, 50)
	for i := 0; i < 50; i++ {
		city := fmt.Sprintf("city-%d", r.Intn(60))
		probes = append(probes, sqlexec.ExistsQuery{
			From:  benchPath(),
			Conj:  sqlir.LogicAnd,
			Preds: []sqlir.Predicate{benchPred("cust", "city", sqlir.OpEq, sqlir.NewText(city))},
			GroupBy: []sqlir.ColumnRef{
				{Table: "cust", Column: "cid"},
			},
			Havings: []sqlir.HavingExpr{{
				Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(8 + r.Intn(4)), ValSet: true,
			}},
		})
	}
	return probes
}

// benchPinnedProbes is the by-row shape of a grouped query's check (RV2 with
// the grouping column's example cell as an equality): GROUP BY cust.city
// pinned to one city, whose ~80 customers fan out to ~400 orders, HAVING
// COUNT(..) against a small k — mostly =, the shape whose answer is settled
// by the (k+1)-th tuple. A fifth of the cities are absent.
func benchPinnedProbes() []sqlexec.ExistsQuery {
	r := rand.New(rand.NewSource(17))
	ops := []sqlir.Op{sqlir.OpEq, sqlir.OpEq, sqlir.OpEq, sqlir.OpLe, sqlir.OpGe, sqlir.OpNe}
	probes := make([]sqlexec.ExistsQuery, 0, 50)
	for i := 0; i < 50; i++ {
		col := sqlir.Star
		if i%2 == 1 {
			col = sqlir.ColumnRef{Table: "ord", Column: "qty"}
		}
		probes = append(probes, sqlexec.ExistsQuery{
			From:     benchPath(),
			Conj:     sqlir.LogicAnd,
			AndPreds: []sqlir.Predicate{benchPred("cust", "city", sqlir.OpEq, sqlir.NewText(fmt.Sprintf("city-%d", r.Intn(60))))},
			GroupBy:  []sqlir.ColumnRef{{Table: "cust", Column: "city"}},
			Havings: []sqlir.HavingExpr{{
				Agg: sqlir.AggCount, AggSet: true, Col: col, ColSet: true,
				Op: ops[r.Intn(len(ops))], OpSet: true, Val: sqlir.NewInt(r.Intn(10)), ValSet: true,
			}},
		})
	}
	return probes
}

// referenceAnswers runs a probe set through the materializing reference
// executor (join memoized once, scan per probe — the pre-streaming
// JoinCache behavior).
func referenceAnswers(b *testing.B, db *storage.Database, probes []sqlexec.ExistsQuery) (*sqlexec.ReferenceRelation, []bool) {
	b.Helper()
	rel, err := sqlexec.MaterializeReference(db, benchPath())
	if err != nil {
		b.Fatal(err)
	}
	out := make([]bool, len(probes))
	for i, eq := range probes {
		ok, err := rel.ExistsOnReference(eq)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = ok
	}
	return rel, out
}

// checkStreamingEquivalence asserts the streaming pipeline agrees with the
// reference on every probe before any timing begins.
func checkStreamingEquivalence(b *testing.B, jc *sqlexec.JoinCache, probes []sqlexec.ExistsQuery, want []bool) {
	b.Helper()
	for i, eq := range probes {
		ok, err := jc.Exists(eq)
		if err != nil {
			b.Fatal(err)
		}
		if ok != want[i] {
			b.Fatalf("probe %d: streaming=%v reference=%v", i, ok, want[i])
		}
	}
}

// BenchmarkExistsMaterialized is the baseline: the join path is
// materialized once (memoized, as the pre-streaming JoinCache did) and
// every probe scans the joined tuples.
func BenchmarkExistsMaterialized(b *testing.B) {
	db := benchStore()
	probes := benchProbes()
	rel, _ := referenceAnswers(b, db, probes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := rel.ExistsOnReference(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExistsStreaming is the paired measurement: the same probes
// answered by the pushdown + first-witness streaming pipeline.
func BenchmarkExistsStreaming(b *testing.B) {
	db := benchStore()
	probes := benchProbes()
	_, want := referenceAnswers(b, db, probes)
	jc := sqlexec.NewJoinCache(db)
	checkStreamingEquivalence(b, jc, probes, want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := jc.Exists(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExistsGroupedMaterialized: grouped existence probes (GROUP BY +
// HAVING) against the materialized join.
func BenchmarkExistsGroupedMaterialized(b *testing.B) {
	db := benchStore()
	probes := benchGroupedProbes()
	rel, _ := referenceAnswers(b, db, probes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := rel.ExistsOnReference(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExistsGroupedStreaming: the same grouped probes streamed into
// per-group aggregate states with predicate pushdown, no tuple buffering.
func BenchmarkExistsGroupedStreaming(b *testing.B) {
	db := benchStore()
	probes := benchGroupedProbes()
	_, want := referenceAnswers(b, db, probes)
	jc := sqlexec.NewJoinCache(db)
	checkStreamingEquivalence(b, jc, probes, want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := jc.Exists(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExistsGroupedPinnedMaterialized: pinned-group COUNT probes
// against the materialized join.
func BenchmarkExistsGroupedPinnedMaterialized(b *testing.B) {
	db := benchStore()
	probes := benchPinnedProbes()
	rel, _ := referenceAnswers(b, db, probes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := rel.ExistsOnReference(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExistsGroupedPinnedStreaming: the same probes streamed, each
// stopping as soon as its one group's count settles the answer.
func BenchmarkExistsGroupedPinnedStreaming(b *testing.B) {
	db := benchStore()
	probes := benchPinnedProbes()
	_, want := referenceAnswers(b, db, probes)
	jc := sqlexec.NewJoinCache(db)
	checkStreamingEquivalence(b, jc, probes, want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range probes {
			if _, err := jc.Exists(eq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchQueries is the complete-query workload the paired Execute benchmarks
// share, over the same cust ⋈ ord ⋈ prod path: a flat filtered projection
// (the by-order shape whose result is join-sized), a grouped aggregate with
// HAVING, and an ORDER BY ... LIMIT top-k.
func benchQueries(b *testing.B, shape string) []*sqlir.Query {
	b.Helper()
	const from = " FROM cust JOIN ord ON ord.cid = cust.cid JOIN prod ON ord.pid = prod.pid"
	var sqls []string
	switch shape {
	case "flat":
		for _, price := range []int{100, 250, 400} {
			sqls = append(sqls, fmt.Sprintf("SELECT cust.name, prod.pname, ord.qty"+from+" WHERE prod.price > %d AND ord.qty > 2", price))
		}
	case "grouped":
		sqls = []string{
			"SELECT cust.city, COUNT(*), SUM(ord.qty)" + from + " GROUP BY cust.city HAVING COUNT(*) > 300",
			"SELECT prod.pname, AVG(ord.qty), MAX(prod.price)" + from + " WHERE ord.qty > 1 GROUP BY prod.pname",
		}
	case "topk":
		sqls = []string{
			"SELECT cust.name, prod.price" + from + " ORDER BY prod.price DESC LIMIT 10",
			"SELECT cust.name, ord.qty" + from + " WHERE prod.price < 50 ORDER BY ord.qty ASC LIMIT 5",
		}
	}
	db := benchStore()
	out := make([]*sqlir.Query, len(sqls))
	for i, sql := range sqls {
		q, err := sqlparse.Parse(db.Schema, sql)
		if err != nil {
			b.Fatalf("parse %q: %v", sql, err)
		}
		out[i] = q
	}
	return out
}

var executeShapes = []string{"flat", "grouped", "topk"}

// BenchmarkExecuteReference is the baseline: every query materializes the
// whole join, then filters, groups and orders it.
func BenchmarkExecuteReference(b *testing.B) {
	db := benchStore()
	for _, shape := range executeShapes {
		queries := benchQueries(b, shape)
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := sqlexec.ExecuteReference(db, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkExecuteCompiled is the paired measurement: the same queries
// compiled onto the streaming pipeline — after asserting, before any timing,
// that each gives exactly the reference's result, one piece or fanned out.
func BenchmarkExecuteCompiled(b *testing.B) {
	db := benchStore()
	for _, shape := range executeShapes {
		queries := benchQueries(b, shape)
		for _, q := range queries {
			if d := sqlexec.DiffExecute(db, q); d != "" {
				b.Fatalf("%s: %s\n%s", shape, d, q)
			}
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			jc := sqlexec.NewJoinCache(db)
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := jc.Execute(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

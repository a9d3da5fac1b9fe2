package schemagraph_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/schemagraph"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/verify"
)

// orderedLists returns every ordered list of 1–3 distinct names.
func orderedLists(names []string) [][]string {
	var out [][]string
	var grow func(list []string)
	grow = func(list []string) {
		if len(list) > 0 {
			out = append(out, slices.Clone(list))
		}
		if len(list) == 3 {
			return
		}
		for _, n := range names {
			if !slices.Contains(list, n) {
				grow(append(list, n))
			}
		}
	}
	grow(nil)
	return out
}

// sameAnswer reports whether two join path answers are equal, errors by text.
func sameAnswer(got, want []*sqlir.JoinPath, gotErr, wantErr error) bool {
	return reflect.DeepEqual(got, want) && fmt.Sprint(gotErr) == fmt.Sprint(wantErr)
}

// dualRequest runs one spider_dual request: the full TSQ, ten candidates
// under a 3000-state cap, default rules and the lexical model. It returns
// the candidate list as text.
func dualRequest(t *testing.T, task *dataset.Task, seed int64) string {
	sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, seed)
	if err != nil {
		t.Errorf("%s: %v", task.ID, err)
		return ""
	}
	v := verify.New(task.DB, semrules.Default(), sketch, task.Literals)
	en := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{MaxCandidates: 10, MaxStates: 3000})
	res, err := en.Enumerate(context.Background(), task.NLQ, task.Literals, nil)
	if err != nil {
		t.Errorf("%s: %v", task.ID, err)
		return ""
	}
	var b strings.Builder
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, "%d %v %d %s\n", c.Rank, c.Confidence, c.States, c.Query.Canonical())
	}
	return b.String()
}

// The shared memo answers what a private graph computes: for every ordered
// list of 1–3 tables of every Spider and loadgen catalog (so a permuted list
// that hits another order's entry is checked too), and for every entry a
// spider_dual-style search left behind, which shows no caller wrote through
// a shared path.
func TestSharedJoinPathsAreTheComputation(t *testing.T) {
	dev := dataset.SpiderDev()
	dbs := slices.Clone(dev.Databases)
	if !testing.Short() {
		dbs = append(dbs, dataset.SpiderTest().Databases...)
	}
	for _, n := range []int{4, 6, 8} {
		gen, err := loadgen.Generate(loadgen.Spec{Tables: n, Rows: 200}, 1)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, gen.DB)
	}
	for _, db := range dbs {
		g, private := schemagraph.New(db.Schema), schemagraph.Private(db.Schema)
		var names []string
		for _, tb := range db.Schema.Tables {
			names = append(names, tb.Name)
		}
		for _, list := range orderedLists(names) {
			got, gotErr := g.ConstructJoinPaths(schemagraph.RefQuery(list...))
			want, wantErr := private.JoinPathsFor(list)
			if !sameAnswer(got, want, gotErr, wantErr) {
				t.Fatalf("%s %v: memo %v (%v), computed %v (%v)", db.Name, list, got, gotErr, want, wantErr)
			}
		}
	}

	// Every third benchmark task (every 24th under -short) on two
	// goroutines, so the memo is filled while it is read.
	stride := 3
	if testing.Short() {
		stride = 24
	}
	schemagraph.ForgetCatalogs()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * stride; i < len(dev.Tasks); i += 2 * stride {
				dualRequest(t, dev.Tasks[i], int64(1+i/stride))
			}
		}()
	}
	wg.Wait()
	entries := 0
	for _, db := range dev.Databases {
		private := schemagraph.Private(db.Schema)
		schemagraph.New(db.Schema).EachMemoized(func(tables []string, paths []*sqlir.JoinPath, err error) {
			entries++
			want, wantErr := private.JoinPathsFor(tables)
			if !sameAnswer(paths, want, err, wantErr) {
				t.Errorf("%s %v: after the search the memo holds %v (%v), computed %v (%v)", db.Name, tables, paths, err, want, wantErr)
			}
		})
	}
	if entries == 0 {
		t.Fatal("the search left no memoized join paths")
	}
}

// One catalog, one graph: a database and its frozen epoch share it, a
// catalog differing in one foreign key column or one table name does not,
// and concurrent searches over the shared graph return what a sequential
// run does.
func TestCatalogSharesOneGraph(t *testing.T) {
	dev := dataset.SpiderDev()
	db := dev.Databases[0]
	g := schemagraph.New(db.Schema)
	if snap := db.Snapshot(); snap.Schema == db.Schema || schemagraph.New(snap.Schema) != g {
		t.Error("a database and its epoch snapshot do not share one graph")
	}
	catalog := func(tables []*storage.Table, fks []storage.ForeignKey) *storage.Schema {
		s := storage.NewSchema(tables...)
		s.ForeignKeys = fks
		return s
	}
	if schemagraph.New(catalog(db.Schema.Tables, slices.Clone(db.Schema.ForeignKeys))) != g {
		t.Error("a copy of the catalog got another graph")
	}
	fks := slices.Clone(db.Schema.ForeignKeys)
	fks[0].Column += "_x"
	if schemagraph.New(catalog(db.Schema.Tables, fks)) == g {
		t.Error("a catalog with another foreign key column shares the graph")
	}
	tables := slices.Clone(db.Schema.Tables)
	last := tables[len(tables)-1]
	tables[len(tables)-1] = storage.NewTable(last.Name+"_x", last.PrimaryKey, last.Columns...)
	if schemagraph.New(catalog(tables, db.Schema.ForeignKeys)) == g {
		t.Error("a catalog with another table name shares the graph")
	}

	var tasks []*dataset.Task
	for _, task := range dev.Tasks {
		if task.DB == db && len(tasks) < 8 {
			tasks = append(tasks, task)
		}
	}
	runAll := func() []string {
		out := make([]string, len(tasks))
		for i, task := range tasks {
			out[i] = dualRequest(t, task, int64(i+1))
		}
		return out
	}
	schemagraph.ForgetCatalogs()
	want := runAll()
	schemagraph.ForgetCatalogs()
	got := make([][]string, 2)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = runAll()
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range tasks {
			if got[w][i] != want[i] {
				t.Errorf("goroutine %d, %s: candidates\n%s\nsequential run\n%s", w, tasks[i].ID, got[w][i], want[i])
			}
		}
	}
}

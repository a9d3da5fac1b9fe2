package dataset

import (
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/tsq"
)

func TestMASSchemaShape(t *testing.T) {
	db := MAS()
	if err := db.Schema.Validate(); err != nil {
		t.Fatalf("MAS schema invalid: %v", err)
	}
	if got := len(db.Schema.Tables); got != 15 {
		t.Errorf("tables = %d, want 15 (Table 5)", got)
	}
	if got := len(db.Schema.ForeignKeys); got != 19 {
		t.Errorf("foreign keys = %d, want 19 (Table 5)", got)
	}
	if db.TotalRows() == 0 {
		t.Error("MAS is empty")
	}
}

func TestMASDeterministic(t *testing.T) {
	a, b := MAS(), MAS()
	if a.TotalRows() != b.TotalRows() {
		t.Fatal("MAS not deterministic in size")
	}
	ta, tb := a.Table("publication"), b.Table("publication")
	for i := 0; i < ta.NumRows(); i++ {
		for j := range ta.Columns {
			if !ta.VectorAt(j).Value(i).Equal(tb.VectorAt(j).Value(i)) {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

// TestMASTasksGold: every Appendix A task parses, passes the semantic rules,
// and yields a non-empty result with the expected interesting shape.
func TestMASTasksGold(t *testing.T) {
	tasks, db := MASTasks()
	if len(tasks) != 14 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	rules := semrules.Default()
	for _, task := range tasks {
		if v := rules.Check(task.Gold, db.Schema); v != nil {
			t.Errorf("%s: gold violates %v", task.ID, v)
		}
		res, err := task.GoldResult()
		if err != nil {
			t.Errorf("%s: %v", task.ID, err)
			continue
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: empty gold result", task.ID)
		}
	}
}

// TestMASTaskAnswers pins the task semantics to the synthetic data.
func TestMASTaskAnswers(t *testing.T) {
	tasks, _ := MASTasks()
	byID := map[string]*Task{}
	for _, task := range tasks {
		byID[task.ID] = task
	}
	// A4: exactly TODS (60) and VLDB Journal (55) exceed 50 publications.
	res, err := byID["A4"].GoldResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("A4 rows = %v", res.Rows)
	}
	// B3: Michigan (12) and Oxford (10) exceed 8 authors.
	res, _ = byID["B3"].GoldResult()
	if len(res.Rows) != 2 {
		t.Errorf("B3 rows = %v", res.Rows)
	}
	// D3: only Alice Johnson has more than 8 SIGMOD papers.
	res, _ = byID["D3"].GoldResult()
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(text("Alice Johnson")) {
		t.Errorf("D3 rows = %v", res.Rows)
	}
	// C3: Alice (9) and Bob (6) have more than 5.
	res, _ = byID["C3"].GoldResult()
	if len(res.Rows) != 2 {
		t.Errorf("C3 rows = %v", res.Rows)
	}
	// D2: Europe has 4 organizations.
	res, _ = byID["D2"].GoldResult()
	if len(res.Rows) != 4 {
		t.Errorf("D2 rows = %v", res.Rows)
	}
}

func TestStudySplits(t *testing.T) {
	nli, _ := NLIStudyTasks()
	if len(nli) != 8 || nli[0].ID != "A1" || nli[7].ID != "B4" {
		t.Errorf("NLI study tasks = %v", ids(nli))
	}
	pbeT, _ := PBEStudyTasks()
	if len(pbeT) != 6 || pbeT[0].ID != "C1" || pbeT[5].ID != "D3" {
		t.Errorf("PBE study tasks = %v", ids(pbeT))
	}
}

func ids(tasks []*Task) []string {
	var out []string
	for _, t := range tasks {
		out = append(out, t.ID)
	}
	return out
}

func TestClassifyDifficulty(t *testing.T) {
	tasks, _ := MASTasks()
	want := map[string]Difficulty{
		"A1": Medium, "A2": Hard, "A3": Hard, "A4": Hard,
		"B1": Medium, "B2": Medium, "B3": Hard, "B4": Hard,
		"C1": Medium, "C2": Medium, "C3": Hard, "D1": Medium,
		"D2": Medium, "D3": Hard,
	}
	for _, task := range tasks {
		if task.Difficulty != want[task.ID] {
			t.Errorf("%s difficulty = %v, want %v", task.ID, task.Difficulty, want[task.ID])
		}
	}
}

func TestSynthesizeTSQLevels(t *testing.T) {
	tasks, _ := MASTasks()
	task := tasks[0] // A1: title, year

	full, err := SynthesizeTSQ(task, DetailFull, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("full TSQ invalid: %v", err)
	}
	if len(full.Types) != 2 || len(full.Tuples) != 2 {
		t.Errorf("full TSQ = %v", full)
	}
	res, _ := task.GoldResult()
	if !full.Satisfies(res) {
		t.Error("full TSQ must satisfy the gold result")
	}

	partial, err := SynthesizeTSQ(task, DetailPartial, 42)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for _, tp := range partial.Tuples {
		for _, c := range tp {
			if c.Kind == tsq.CellEmpty {
				empties++
			}
		}
	}
	if empties < 2 {
		t.Errorf("partial TSQ should erase one column: %v", partial)
	}
	if !partial.Satisfies(res) {
		t.Error("partial TSQ must satisfy the gold result")
	}

	minimal, err := SynthesizeTSQ(task, DetailMinimal, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal.Tuples) != 0 || len(minimal.Types) != 2 {
		t.Errorf("minimal TSQ = %v", minimal)
	}
}

func TestSynthesizeTSQSortedRespectsOrder(t *testing.T) {
	tasks, _ := MASTasks()
	var a2 *Task
	for _, task := range tasks {
		if task.ID == "A2" {
			a2 = task
		}
	}
	sk, err := SynthesizeTSQ(a2, DetailFull, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !sk.Sorted {
		t.Error("A2 is ordered; TSQ must carry τ=⊤")
	}
	res, _ := a2.GoldResult()
	if !sk.Satisfies(res) {
		t.Error("sorted TSQ must satisfy gold in order")
	}
}

func TestFactBank(t *testing.T) {
	tasks, _ := MASTasks()
	facts, err := FactBank(tasks[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) == 0 || len(facts) > 10 {
		t.Errorf("fact bank size = %d", len(facts))
	}
	res, _ := tasks[0].GoldResult()
	if got := VerifyAgainstFacts(res, facts); got != len(facts) {
		t.Errorf("all facts should verify against gold: %d/%d", got, len(facts))
	}
}

func TestSpiderDevShape(t *testing.T) {
	dev := SpiderDev()
	if len(dev.Databases) != 20 {
		t.Errorf("dev dbs = %d", len(dev.Databases))
	}
	if len(dev.Tasks) != 589 {
		t.Errorf("dev tasks = %d, want 589", len(dev.Tasks))
	}
	counts := map[Difficulty]int{}
	for _, task := range dev.Tasks {
		counts[task.Difficulty]++
	}
	if counts[Easy] != 239 || counts[Medium] != 252 || counts[Hard] != 98 {
		t.Errorf("dev difficulty mix = %v, want 239/252/98", counts)
	}
}

func TestSpiderTestShape(t *testing.T) {
	ts := SpiderTest()
	if len(ts.Databases) != 40 {
		t.Errorf("test dbs = %d", len(ts.Databases))
	}
	if len(ts.Tasks) != 1247 {
		t.Errorf("test tasks = %d, want 1247", len(ts.Tasks))
	}
	counts := map[Difficulty]int{}
	for _, task := range ts.Tasks {
		counts[task.Difficulty]++
	}
	if counts[Easy] != 524 || counts[Medium] != 481 || counts[Hard] != 242 {
		t.Errorf("test difficulty mix = %v, want 524/481/242", counts)
	}
}

// TestSpiderTasksWellFormed: all gold queries execute non-empty, pass the
// semantic rules, and every predicate literal is in the task's literal list.
func TestSpiderTasksWellFormed(t *testing.T) {
	dev := SpiderDev()
	rules := semrules.Default()
	for _, task := range dev.Tasks {
		res, err := sqlexec.Execute(task.DB, task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: empty result", task.ID)
		}
		if v := rules.Check(task.Gold, task.DB.Schema); v != nil {
			t.Errorf("%s: %v", task.ID, v)
		}
		used := task.Gold.Literals()
		for _, lit := range used {
			found := false
			for _, l := range task.Literals {
				if l.Equal(lit) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: literal %s missing from task literals", task.ID, lit)
			}
		}
		if task.NLQ == "" {
			t.Errorf("%s: empty NLQ", task.ID)
		}
		// Names round-trip through the boundary: the gold's text parses to
		// the very same columns.
		sql := task.Gold.String()
		back, err := sqlparse.Parse(task.DB.Schema, sql)
		if err != nil {
			t.Fatalf("%s: %s: %v", task.ID, sql, err)
		}
		if back.String() != sql || !slices.Equal(columnRefs(back), columnRefs(task.Gold)) {
			t.Errorf("%s: %s parsed back to %s, columns %v, want %v", task.ID, sql, back, columnRefs(back), columnRefs(task.Gold))
		}
	}
}

// columnRefs lists every column q reads, its join path's included, in
// clause order.
func columnRefs(q *sqlir.Query) []sqlir.ColumnRef {
	var out []sqlir.ColumnRef
	for _, e := range q.From.Edges() {
		out = append(out, e.Joined, e.New)
	}
	for _, s := range q.Select {
		out = append(out, s.Col)
	}
	for _, p := range q.Where.Preds {
		out = append(out, p.Col)
	}
	out = append(out, q.GroupBy...)
	if q.HavingState == sqlir.ClausePresent {
		out = append(out, q.Having.Col)
	}
	if q.OrderByState == sqlir.ClausePresent {
		out = append(out, q.OrderBy.Key.Col)
	}
	return out
}

func TestSpiderDeterministic(t *testing.T) {
	a := SpiderDev()
	b := SpiderDev()
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i].SQL != b.Tasks[i].SQL || a.Tasks[i].NLQ != b.Tasks[i].NLQ {
			t.Fatalf("task %d differs between runs", i)
		}
	}
}

func TestSpiderDevTestDistinct(t *testing.T) {
	dev, ts := SpiderDev(), SpiderTest()
	// Same domain cycled, but different seeds produce different data sizes
	// or literals; check the first concert database differs.
	a := dev.Databases[0].Table("concert")
	b := ts.Databases[0].Table("concert")
	if a.NumRows() == b.NumRows() {
		// Same size is possible; require some row to differ then.
		same := true
		for i := 0; i < a.NumRows() && same; i++ {
			for j := range a.Columns {
				if !a.VectorAt(j).Value(i).Equal(b.VectorAt(j).Value(i)) {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("dev and test databases are identical")
		}
	}
}

func TestSynthesizeTSQEmptyGold(t *testing.T) {
	tasks, db := MASTasks()
	bad := &Task{
		ID: "X", DB: db,
		Gold: tasks[0].Gold.Clone(),
	}
	// Make the gold query produce nothing.
	bad.Gold.Where.Preds[0].Val = sqlir.NewText("No Such Conference")
	if _, err := SynthesizeTSQ(bad, DetailFull, 1); err == nil {
		t.Error("empty gold result should error")
	}
	if _, err := FactBank(bad, 1); err == nil {
		t.Error("empty gold result should error for fact bank")
	}
}

func TestDifficultyString(t *testing.T) {
	if Easy.String() != "easy" || Medium.String() != "medium" || Hard.String() != "hard" {
		t.Error("difficulty names")
	}
	if DetailFull.String() != "Full" || DetailPartial.String() != "Partial" || DetailMinimal.String() != "Minimal" {
		t.Error("detail names")
	}
}

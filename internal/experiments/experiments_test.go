package experiments

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
)

func TestTable5MatchesPaperCounts(t *testing.T) {
	rows := Table5()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's filtered task counts are reproduced exactly.
	if rows[2].Total != 589 || rows[2].Easy != 239 || rows[2].Medium != 252 || rows[2].Hard != 98 {
		t.Errorf("dev row = %+v", rows[2])
	}
	if rows[3].Total != 1247 || rows[3].Easy != 524 || rows[3].Medium != 481 || rows[3].Hard != 242 {
		t.Errorf("test row = %+v", rows[3])
	}
	if rows[0].AvgTables != 15 || rows[0].AvgFKs != 19 {
		t.Errorf("MAS row = %+v", rows[0])
	}
	out := RenderTable5(rows)
	for _, want := range []string{"spider-dev", "spider-test", "MAS", "589", "1247"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTaskList(t *testing.T) {
	out := RenderTaskList()
	for _, want := range []string{"A1", "D3", "SIGMOD", "University of Michigan"} {
		if !strings.Contains(out, want) {
			t.Errorf("task list missing %q", want)
		}
	}
}

// TestSimulationSample runs the Figure 10/11 pipeline on a thin sample and
// asserts the paper's relationships: Dq ≥ NLI on top-1 and top-10, PBE far
// behind with a large unsupported share.
func TestSimulationSample(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	cfg := QuickConfig()
	acc, err := Simulation(dataset.SpiderDev(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Tasks == 0 {
		t.Fatal("no tasks sampled")
	}
	if acc.DqTop1 < acc.NLITop1 {
		t.Errorf("Dq top-1 (%d) below NLI (%d)", acc.DqTop1, acc.NLITop1)
	}
	if acc.DqTop10 < acc.NLITop10 {
		t.Errorf("Dq top-10 (%d) below NLI (%d)", acc.DqTop10, acc.NLITop10)
	}
	if acc.PBEOK+acc.PBEUnsup > acc.Tasks {
		t.Errorf("PBE counts inconsistent: %+v", acc)
	}
	if acc.PBEUnsup == 0 {
		t.Error("PBE should find some tasks unsupported")
	}
	out := RenderFigure10(acc) + RenderFigure11(acc)
	for _, want := range []string{"Top-1", "Top-10", "easy", "hard"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAblationSample checks Figure 12's relationship on a thin sample: GPQE
// solves at least as many tasks within the state budget as either ablation.
func TestAblationSample(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	cfg := QuickConfig()
	cfg.SampleEvery = 50
	curves, err := Ablation(dataset.SpiderDev(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	var gpqe, nopq, noguide *AblationCurve
	for i := range curves {
		switch curves[i].Mode {
		case enumerate.ModeGPQE:
			gpqe = &curves[i]
		case enumerate.ModeNoPQ:
			nopq = &curves[i]
		case enumerate.ModeNoGuide:
			noguide = &curves[i]
		}
	}
	if gpqe.SolvedWithin(StateBudget) < nopq.SolvedWithin(StateBudget) {
		t.Errorf("GPQE (%d) below NoPQ (%d)", gpqe.SolvedWithin(StateBudget), nopq.SolvedWithin(StateBudget))
	}
	if gpqe.SolvedWithin(StateBudget) < noguide.SolvedWithin(StateBudget) {
		t.Errorf("GPQE (%d) below NoGuide (%d)", gpqe.SolvedWithin(StateBudget), noguide.SolvedWithin(StateBudget))
	}
	out := RenderFigure12(curves)
	if !strings.Contains(out, "GPQE") || !strings.Contains(out, "NoPQ") || !strings.Contains(out, "NoGuide") {
		t.Errorf("render missing modes:\n%s", out)
	}
}

// TestSpecificationDetailSample checks Table 6's monotonicity on a thin
// sample: more TSQ detail never hurts top-10 accuracy, and every TSQ level
// beats the NLI baseline.
func TestSpecificationDetailSample(t *testing.T) {
	if testing.Short() {
		t.Skip("detail sweep is slow")
	}
	cfg := QuickConfig()
	cfg.SampleEvery = 50
	rows, err := SpecificationDetail(dataset.SpiderDev(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	byLevel := map[string]DetailRow{}
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	if byLevel["Full"].Top10 < byLevel["Minimal"].Top10 {
		t.Errorf("Full (%v) below Minimal (%v)", byLevel["Full"].Top10, byLevel["Minimal"].Top10)
	}
	if byLevel["Minimal"].Top10 < byLevel["NLI"].Top10 {
		t.Errorf("Minimal (%v) below NLI (%v)", byLevel["Minimal"].Top10, byLevel["NLI"].Top10)
	}
	out := RenderTable6("dev", rows)
	if !strings.Contains(out, "Full") || !strings.Contains(out, "Minimal") {
		t.Errorf("render missing levels:\n%s", out)
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	q := QuickConfig()
	if d.SampleEvery != 1 || q.SampleEvery <= 1 {
		t.Error("sampling configs wrong")
	}
	if q.Users >= d.Users {
		t.Error("quick config should use fewer users")
	}
}

// TestNoisyExamplesSample quantifies the §7 limitation: a corrupted example
// prunes the gold query (soundness works against wrong examples).
func TestNoisyExamplesSample(t *testing.T) {
	if testing.Short() {
		t.Skip("noise sweep is slow")
	}
	cfg := QuickConfig()
	cfg.SampleEvery = 60
	rep, err := NoisyExamples(dataset.SpiderDev(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks == 0 {
		t.Fatal("no tasks")
	}
	if rep.NoisyTop10 > rep.CleanTop10 {
		t.Errorf("noise should not help: clean %d, noisy %d", rep.CleanTop10, rep.NoisyTop10)
	}
	if rep.CleanTop10 == 0 {
		t.Error("clean accuracy collapsed")
	}
}

// TestDesignAblationsSample validates the §3.3.3 design discussion: the
// paper's product confidence is at least as accurate as the geometric-mean
// alternative, and semantic rules do not hurt accuracy while reducing
// search effort.
func TestDesignAblationsSample(t *testing.T) {
	if testing.Short() {
		t.Skip("design sweep is slow")
	}
	cfg := QuickConfig()
	cfg.SampleEvery = 60
	rows, err := DesignAblations(dataset.SpiderDev(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	byName := map[string]DesignRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	paper := byName["product+rules (paper)"]
	if paper.Top10 < byName["geometric mean"].Top10 {
		t.Errorf("product (%v) below geometric mean (%v)", paper.Top10, byName["geometric mean"].Top10)
	}
	out := RenderDesignAblations("dev", rows)
	if !strings.Contains(out, "geometric mean") {
		t.Errorf("render: %s", out)
	}
}

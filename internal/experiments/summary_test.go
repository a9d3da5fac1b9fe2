package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/simulate"
)

var updateSummary = flag.Bool("update", false, "rewrite testdata/paper.golden from this build")

const summaryPath = "testdata/paper.golden"

// summaryConfig is the configuration EXPERIMENTS.md records: every 4th
// Spider task and 8 simulated subjects (`cmd/experiments -sample 4 -users 8`).
func summaryConfig() Config {
	cfg := DefaultConfig()
	cfg.SampleEvery = 4
	cfg.Users = 8
	return cfg
}

// paperSummary runs every experiment of the evaluation and prints one line
// per artefact row, as counts. Every search is bounded by StateBudget, so
// the summary is a function of the code alone.
func paperSummary(cfg Config) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# stride %d, %d users, %d states per search, TSQ seed %d\n",
		cfg.SampleEvery, cfg.Users, StateBudget, cfg.TSQSeed)
	for _, r := range Table5() {
		fmt.Fprintf(&b, "table5 %q %s dbs=%d easy=%d medium=%d hard=%d total=%d tables=%.1f columns=%.1f fks=%.1f\n",
			r.Experiment, r.Dataset, r.Databases, r.Easy, r.Medium, r.Hard, r.Total, r.AvgTables, r.AvgColumns, r.AvgFKs)
	}
	studies := []struct {
		name string
		run  func(Config) (*simulate.StudyResult, error)
	}{{"fig5-6", NLIStudy}, {"fig7-9", PBEStudy}}
	for _, st := range studies {
		sr, err := st.run(cfg)
		if err != nil {
			return "", err
		}
		for _, task := range sr.Tasks {
			for _, sys := range sr.Systems {
				var trials, ok, examples int
				var spent time.Duration
				for _, tr := range sr.Trials {
					if tr.TaskID != task || tr.System != sys {
						continue
					}
					trials++
					if tr.Success {
						ok++
						spent += tr.Duration
						examples += tr.Examples
					}
				}
				fmt.Fprintf(&b, "%s %s %s trials=%d ok=%d ok_ms=%d ok_examples=%d\n",
					st.name, task, sys, trials, ok, spent.Milliseconds(), examples)
			}
		}
	}
	for _, bench := range []*dataset.Benchmark{dataset.SpiderDev(), dataset.SpiderTest()} {
		acc, err := Simulation(bench, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "fig10 %s Dq tasks=%d top1=%d top10=%d\n", bench.Name, acc.Tasks, acc.DqTop1, acc.DqTop10)
		fmt.Fprintf(&b, "fig10 %s NLI tasks=%d top1=%d top10=%d\n", bench.Name, acc.Tasks, acc.NLITop1, acc.NLITop10)
		fmt.Fprintf(&b, "fig10 %s PBE tasks=%d correct=%d unsupported=%d\n", bench.Name, acc.Tasks, acc.PBEOK, acc.PBEUnsup)
		for _, d := range []dataset.Difficulty{dataset.Easy, dataset.Medium, dataset.Hard} {
			c := acc.ByDiff[d]
			fmt.Fprintf(&b, "fig11 %s %s tasks=%d dq_top10=%d nli_top10=%d pbe_correct=%d pbe_unsupported=%d\n",
				bench.Name, d, c.Total, c.DqTop10, c.NLITop10, c.PBECorrect, c.PBEUnsupp)
		}

		curves, err := Ablation(bench, cfg)
		if err != nil {
			return "", err
		}
		for _, c := range curves {
			fmt.Fprintf(&b, "fig12 %s %s tasks=%d explored=%d solved_within", bench.Name, c.Mode, c.Total, c.Explored)
			for _, n := range figure12Buckets {
				fmt.Fprintf(&b, " %d:%d", n, c.SolvedWithin(n))
			}
			b.WriteString("\n")
		}

		rows, err := SpecificationDetail(bench, cfg)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "table6 %s %s tasks=%d top1=%d top10=%d top100=%d\n",
				bench.Name, r.Level, r.Tasks, r.Top1, r.Top10, r.Top100)
		}

		design, err := DesignAblations(bench, cfg)
		if err != nil {
			return "", err
		}
		for _, r := range design {
			fmt.Fprintf(&b, "design %s %q tasks=%d top1=%d top10=%d states=%d\n",
				bench.Name, r.Variant, r.Tasks, r.Top1, r.Top10, r.States)
		}

		noise, err := NoisyExamples(bench, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "noise %s tasks=%d clean_top10=%d noisy_top10=%d\n",
			bench.Name, noise.Tasks, noise.CleanTop10, noise.NoisyTop10)
	}
	return b.String(), nil
}

// TestPaperSummary pins the evaluation: it reruns every experiment at the
// configuration EXPERIMENTS.md records and compares each artefact row with
// testdata/paper.golden. A change that moves the search moves rows here;
// regenerate the file with `go test ./internal/experiments -run
// TestPaperSummary -update` only from a commit whose numbers are the
// intended reference, and name every row that moved.
func TestPaperSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper summary reruns the whole evaluation")
	}
	got, err := paperSummary(summaryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *updateSummary {
		if err := os.MkdirAll(filepath.Dir(summaryPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(summaryPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Fatalf("summary has %d lines, %s has %d", len(have), summaryPath, len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, have[i], want[i])
		}
	}
}

// Command experiments regenerates the paper's tables and figures on the
// synthetic substrates. See EXPERIMENTS.md for the recorded results and
// DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig10 -dataset dev
//	experiments -exp table6 -sample 3
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table5|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table6|noise|design|tasks|all")
		ds      = flag.String("dataset", "both", "benchmark for simulation experiments: dev|test|both")
		sampleN = flag.Int("sample", 1, "run every k-th task")
		users   = flag.Int("users", 16, "simulated user count")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.SampleEvery = *sampleN
	cfg.Users = *users

	if err := run(*exp, *ds, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func benches(ds string) []*dataset.Benchmark {
	switch ds {
	case "dev":
		return []*dataset.Benchmark{dataset.SpiderDev()}
	case "test":
		return []*dataset.Benchmark{dataset.SpiderTest()}
	default:
		return []*dataset.Benchmark{dataset.SpiderDev(), dataset.SpiderTest()}
	}
}

func run(exp, ds string, cfg experiments.Config) error {
	section := func(title string) {
		fmt.Printf("\n=== %s ===\n", title)
	}
	want := func(names ...string) bool {
		if exp == "all" {
			return true
		}
		for _, n := range names {
			if exp == n {
				return true
			}
		}
		return false
	}

	if want("table5") {
		section("Table 5: dataset statistics")
		fmt.Print(experiments.RenderTable5(experiments.Table5()))
	}
	if want("tasks") {
		section("Tables 7 & 8: user-study tasks")
		fmt.Print(experiments.RenderTaskList())
	}
	if want("fig5", "fig6") {
		section("Figures 5 & 6: user study vs. NLI")
		start := time.Now()
		sr, err := experiments.NLIStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderStudySuccess(sr, "Figure 5"))
		fmt.Println()
		fmt.Print(experiments.RenderStudyTimes(sr, "Figure 6"))
		fmt.Printf("(%d trials, %v)\n", len(sr.Trials), time.Since(start).Round(time.Second))
	}
	if want("fig7", "fig8", "fig9") {
		section("Figures 7, 8 & 9: user study vs. PBE")
		start := time.Now()
		sr, err := experiments.PBEStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderStudySuccess(sr, "Figure 7"))
		fmt.Println()
		fmt.Print(experiments.RenderStudyTimes(sr, "Figure 8"))
		fmt.Println()
		fmt.Print(experiments.RenderStudyExamples(sr, "Figure 9"))
		fmt.Printf("(%d trials, %v)\n", len(sr.Trials), time.Since(start).Round(time.Second))
	}
	if want("fig10", "fig11") {
		for _, bench := range benches(ds) {
			section(fmt.Sprintf("Figures 10 & 11: simulation on %s", bench.Name))
			start := time.Now()
			acc, err := experiments.Simulation(bench, cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure10(acc))
			fmt.Println()
			fmt.Print(experiments.RenderFigure11(acc))
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Second))
		}
	}
	if want("fig12") {
		for _, bench := range benches(ds) {
			section(fmt.Sprintf("Figure 12: GPQE ablation on %s", bench.Name))
			start := time.Now()
			curves, err := experiments.Ablation(bench, cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure12(curves))
			// Time per state is the section's one machine-dependent
			// figure besides its timer: printed beside the curves, never
			// part of them.
			elapsed, explored := time.Since(start), 0
			for _, c := range curves {
				explored += c.Explored
			}
			fmt.Printf("wall time per explored state: %.1f µs (%d states)\n",
				float64(elapsed.Microseconds())/float64(explored), explored)
			fmt.Printf("(%v)\n", elapsed.Round(time.Second))
		}
	}
	if want("table6") {
		for _, bench := range benches(ds) {
			section(fmt.Sprintf("Table 6: specification detail on %s", bench.Name))
			start := time.Now()
			rows, err := experiments.SpecificationDetail(bench, cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable6(bench.Name, rows))
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Second))
		}
	}
	if want("design") {
		for _, bench := range benches(ds) {
			section(fmt.Sprintf("Design-choice ablations on %s", bench.Name))
			rows, err := experiments.DesignAblations(bench, cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderDesignAblations(bench.Name, rows))
		}
	}
	if want("noise") {
		for _, bench := range benches(ds) {
			section(fmt.Sprintf("Noisy-example ablation (§7) on %s", bench.Name))
			rep, err := experiments.NoisyExamples(bench, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%d tasks: clean top-10 %d (%.1f%%), one corrupted cell -> top-10 %d (%.1f%%)\n",
				rep.Tasks,
				rep.CleanTop10, 100*float64(rep.CleanTop10)/float64(rep.Tasks),
				rep.NoisyTop10, 100*float64(rep.NoisyTop10)/float64(rep.Tasks))
		}
	}
	return nil
}

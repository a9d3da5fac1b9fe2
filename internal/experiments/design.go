package experiments

import (
	"fmt"
	"strings"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/semrules"
)

// DesignRow is one design-choice variant's accuracy over a benchmark sample:
// how many of Tasks put gold at rank 1 and within the top 10, and the states
// explored over all of them — the search-effort cost of the variant.
type DesignRow struct {
	Variant string
	Tasks   int
	Top1    int
	Top10   int
	States  int
}

// DesignAblations validates two design choices the paper discusses:
//
//   - §3.3.3: product-of-softmax confidence vs the geometric-mean
//     alternative (the paper kept the product after observing no accuracy
//     harm from its short-query preference);
//   - §3.4 / Table 4: semantic pruning rules on vs off.
func DesignAblations(bench *dataset.Benchmark, cfg Config) ([]DesignRow, error) {
	tasks := cfg.sample(bench)
	variants := []struct {
		name   string
		search enumerate.Options
		rules  *semrules.RuleSet
	}{
		{"product+rules (paper)", paper, semrules.Default()},
		{"geometric mean", enumerate.Options{Mode: enumerate.ModeGPQE, GeoMeanPriority: true}, semrules.Default()},
		{"no semantic rules", paper, semrules.Empty()},
	}
	var rows []DesignRow
	for _, v := range variants {
		row := DesignRow{Variant: v.name, Tasks: len(tasks)}
		for _, st := range tasks {
			sketch, err := dataset.SynthesizeTSQ(st.Task, dataset.DetailFull, st.seed)
			if err != nil {
				return nil, err
			}
			out, err := runRanked(st.Task, sketch, v.rules, v.search, cfg)
			if err != nil {
				return nil, err
			}
			if out.rank == 1 {
				row.Top1++
			}
			if out.rank >= 1 && out.rank <= 10 {
				row.Top10++
			}
			row.States += out.states
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDesignAblations prints the variant comparison.
func RenderDesignAblations(name string, rows []DesignRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — design-choice ablations (top-k %%, mean states/task)\n", name)
	fmt.Fprintf(&b, "%-24s %8s %8s %12s\n", "Variant", "T1", "T10", "states")
	for _, r := range rows {
		n := float64(r.Tasks)
		fmt.Fprintf(&b, "%-24s %8.1f %8.1f %12.0f\n", r.Variant,
			100*float64(r.Top1)/n, 100*float64(r.Top10)/n, float64(r.States)/n)
	}
	return b.String()
}

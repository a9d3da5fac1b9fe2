// Command duoquest is an interactive command-line stand-in for the paper's
// front-end interface (§4): it loads the bundled MAS database (or a Spider
// benchmark database), accepts an NLQ plus an optional table sketch query,
// and prints the ranked candidate SQL with result previews.
//
// Usage:
//
//	duoquest -db mas -nlq "List the names of organizations in continent Europe" -lit "Europe"
//	duoquest -db mas -nlq "journals with more than 50 publications" -lit 50 \
//	         -types text,number -tuple "TODS,60" -tuple "VLDB Journal,_"
//	duoquest -db mas -complete "SIG"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ";") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes one CLI action,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("duoquest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbName   = fs.String("db", "mas", "database: mas | movies | spider-dev:<i> | spider-test:<i>")
		nlq      = fs.String("nlq", "", "natural language query")
		types    = fs.String("types", "", "TSQ type annotations, e.g. text,number")
		sorted   = fs.Bool("sorted", false, "TSQ sorted flag (results must be ordered)")
		limit    = fs.Int("limit", 0, "TSQ top-k limit (0 = none)")
		topk     = fs.Int("k", 5, "candidates to display")
		budget   = fs.Duration("budget", 3*time.Second, "search deadline")
		complete = fs.String("complete", "", "run autocomplete for a prefix and exit")
		lits     stringList
		tuples   stringList
	)
	fs.Var(&lits, "lit", "tagged literal (repeatable); numbers are parsed as numeric")
	fs.Var(&tuples, "tuple", "TSQ example tuple, comma-separated cells (repeatable); _ = empty, [a;b] = range")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	db, err := loadDB(*dbName)
	if err != nil {
		fmt.Fprintln(stderr, "duoquest:", err)
		return 1
	}
	cfg := duoquest.DefaultConfig()
	cfg.DefaultDeadline = *budget
	cfg.MaxCandidates = *topk
	syn := duoquest.New(db, cfg)

	if *complete != "" {
		for _, hit := range syn.Autocomplete(*complete, 10) {
			fmt.Fprintf(stdout, "%-40s %s.%s\n", hit.Value, hit.Table, hit.Column)
		}
		return 0
	}
	if *nlq == "" {
		fmt.Fprintln(stderr, "duoquest: -nlq is required (or use -complete)")
		return 2
	}

	input := duoquest.Input{NLQ: *nlq}
	for _, l := range lits {
		input.Literals = append(input.Literals, parseValue(l))
	}
	sketch, err := parseSketch(*types, tuples, *sorted, *limit)
	if err != nil {
		fmt.Fprintln(stderr, "duoquest:", err)
		return 2
	}
	input.Sketch = sketch

	res, err := syn.Synthesize(context.Background(), input)
	if err != nil {
		fmt.Fprintln(stderr, "duoquest:", err)
		return 1
	}
	if len(res.Candidates) == 0 {
		fmt.Fprintln(stdout, "no candidate queries found within budget")
		return 0
	}
	for _, c := range res.Candidates {
		fmt.Fprintf(stdout, "#%d (%.4f) %s\n", c.Rank, c.Confidence, c.Query)
		preview, err := syn.Preview(context.Background(), c.Query, 5)
		if err != nil {
			continue
		}
		for _, row := range preview.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Display()
			}
			fmt.Fprintf(stdout, "    %s\n", strings.Join(cells, " | "))
		}
	}
	fmt.Fprintf(stdout, "(%d states in %v)\n", res.States, res.Elapsed.Round(time.Millisecond))
	return 0
}

// loadDB resolves the -db flag.
func loadDB(name string) (*duoquest.Database, error) {
	if name == "mas" {
		return dataset.MAS(), nil
	}
	if name == "movies" {
		return dataset.Movies(), nil
	}
	for _, prefix := range []string{"spider-dev:", "spider-test:"} {
		if strings.HasPrefix(name, prefix) {
			i, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
			if err != nil {
				return nil, fmt.Errorf("bad database index in %q", name)
			}
			var bench *dataset.Benchmark
			if prefix == "spider-dev:" {
				bench = dataset.SpiderDev()
			} else {
				bench = dataset.SpiderTest()
			}
			if i < 0 || i >= len(bench.Databases) {
				return nil, fmt.Errorf("database index %d out of range [0,%d)", i, len(bench.Databases))
			}
			return bench.Databases[i], nil
		}
	}
	return nil, fmt.Errorf("unknown database %q", name)
}

// parseValue reads a literal as a number when possible, else text.
func parseValue(s string) duoquest.Value {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return duoquest.Number(f)
	}
	return duoquest.Text(s)
}

// parseSketch assembles a TSQ from flags; returns nil if unspecified.
func parseSketch(types string, tuples []string, sorted bool, limit int) (*duoquest.TSQ, error) {
	if types == "" && len(tuples) == 0 && !sorted && limit == 0 {
		return nil, nil
	}
	sk := &duoquest.TSQ{Sorted: sorted, Limit: limit}
	if types != "" {
		for _, t := range strings.Split(types, ",") {
			switch strings.TrimSpace(t) {
			case "text":
				sk.Types = append(sk.Types, duoquest.TypeText)
			case "number":
				sk.Types = append(sk.Types, duoquest.TypeNumber)
			default:
				return nil, fmt.Errorf("bad type %q (want text|number)", t)
			}
		}
	}
	for _, tp := range tuples {
		var tuple duoquest.Tuple
		for _, cell := range strings.Split(tp, ",") {
			cell = strings.TrimSpace(cell)
			switch {
			case cell == "_" || cell == "":
				tuple = append(tuple, duoquest.Empty())
			case strings.HasPrefix(cell, "[") && strings.HasSuffix(cell, "]") && strings.Contains(cell, ";"):
				parts := strings.SplitN(strings.Trim(cell, "[]"), ";", 2)
				lo, err1 := strconv.ParseFloat(parts[0], 64)
				hi, err2 := strconv.ParseFloat(parts[1], 64)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("bad range cell %q (want [lo;hi])", cell)
				}
				tuple = append(tuple, duoquest.Range(lo, hi))
			default:
				tuple = append(tuple, duoquest.Exact(parseValue(cell)))
			}
		}
		sk.Tuples = append(sk.Tuples, tuple)
	}
	if err := sk.Validate(); err != nil {
		return nil, err
	}
	return sk, nil
}

package main

import (
	"strings"
	"testing"
)

// runCLI invokes run with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"help flag exits zero", []string{"-h"}, 0},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"missing nlq", []string{"-db", "movies"}, 2},
		{"unknown db", []string{"-db", "nope", "-nlq", "anything"}, 1},
		{"bad db index", []string{"-db", "spider-dev:x", "-nlq", "anything"}, 1},
		{"db index out of range", []string{"-db", "spider-dev:9999", "-nlq", "anything"}, 1},
		{"bad type annotation", []string{"-db", "movies", "-nlq", "x", "-types", "bool"}, 2},
		{"bad range cell", []string{"-db", "movies", "-nlq", "x", "-tuple", "[a;b]"}, 2},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit code = %d (stderr %q), want %d", tc.name, code, stderr, tc.code)
		}
		if stderr == "" {
			t.Errorf("%s: expected a diagnostic on stderr", tc.name)
		}
	}
}

func TestRunAutocomplete(t *testing.T) {
	code, stdout, stderr := runCLI("-db", "movies", "-complete", "For")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "Forrest Gump") || !strings.Contains(stdout, "movie.title") {
		t.Errorf("autocomplete output missing expected hit:\n%s", stdout)
	}
}

// TestRunEndToEndMovies drives a full dual-specification synthesis against
// the built-in movies schema: NLQ + literal + a one-cell sketch.
func TestRunEndToEndMovies(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-db", "movies",
		"-nlq", "titles of movies before 1995",
		"-lit", "1995",
		"-types", "text",
		"-tuple", "Forrest Gump",
		"-k", "3",
		"-budget", "10s",
	)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "#1 ") || !strings.Contains(stdout, "SELECT") {
		t.Errorf("no ranked candidates in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "Forrest Gump") {
		t.Errorf("preview should include the sketch tuple:\n%s", stdout)
	}
	if !strings.Contains(stdout, "states in") {
		t.Errorf("missing search summary line:\n%s", stdout)
	}
}

// TestRunEndToEndRangeCell exercises the [lo;hi] range-cell syntax.
func TestRunEndToEndRangeCell(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-db", "movies",
		"-nlq", "movie years after 2000",
		"-lit", "2000",
		"-types", "number",
		"-tuple", "[2010;2017]",
		"-k", "2",
		"-budget", "10s",
	)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "SELECT") {
		t.Errorf("no candidates in output:\n%s", stdout)
	}
}

func TestParseValue(t *testing.T) {
	if v := parseValue("1995"); v.Num != 1995 {
		t.Errorf("numeric literal parsed as %v", v)
	}
	if v := parseValue("Europe"); v.Text != "Europe" {
		t.Errorf("text literal parsed as %v", v)
	}
}

func TestParseSketchEmpty(t *testing.T) {
	sk, err := parseSketch("", nil, false, 0)
	if err != nil || sk != nil {
		t.Errorf("unspecified sketch should be nil, got %v, %v", sk, err)
	}
}

func TestParseSketchCells(t *testing.T) {
	sk, err := parseSketch("text,number", []string{"Gravity,_", "_,[2010;2017]"}, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.Types) != 2 || len(sk.Tuples) != 2 || !sk.Sorted || sk.Limit != 2 {
		t.Errorf("sketch shape wrong: %+v", sk)
	}
}

// TestRunRefusesNaN: strconv.ParseFloat reads "nan", but no value is NaN,
// so a NaN literal and a NaN range bound are refused with a non-zero exit
// and a diagnostic naming the literal or the cell.
func TestRunRefusesNaN(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		names []string
	}{
		{"literal", []string{"-db", "movies", "-nlq", "x", "-lit", "1995", "-lit", "nan"}, []string{"literal 1", "NaN"}},
		{"exact cell", []string{"-db", "movies", "-nlq", "x", "-tuple", "Up,NaN"}, []string{"tuple 0 cell 1", "NaN"}},
		{"range bound", []string{"-db", "movies", "-nlq", "x", "-tuple", "[nan;1]"}, []string{"tuple 0 cell 0", "NaN"}},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(tc.args...)
		if code == 0 {
			t.Errorf("%s: exit code 0, want non-zero", tc.name)
		}
		for _, s := range tc.names {
			if !strings.Contains(stderr, s) {
				t.Errorf("%s: stderr %q does not name %q", tc.name, stderr, s)
			}
		}
	}
}

package tsq

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
)

func TestRowsDecide(t *testing.T) {
	negZero := num(math.Copysign(0, -1))
	a, b := Tuple{Exact(text("Gump")), Empty()}, Tuple{Exact(text("Up")), Empty()}
	cases := []struct {
		name string
		t    TSQ
		want bool
	}{
		{"no tuples", TSQ{Types: []sqlir.Type{sqlir.TypeText}}, false},
		{"one tuple", TSQ{Tuples: []Tuple{a}}, true},
		{"separated texts", TSQ{Tuples: []Tuple{a, b}}, true},
		{"sorted", TSQ{Tuples: []Tuple{a, b}, Sorted: true}, false},
		{"limited", TSQ{Tuples: []Tuple{a, b}, Limit: 2}, false},
		{"equal tuples", TSQ{Tuples: []Tuple{a, a}}, false},
		{"case-folded texts", TSQ{Tuples: []Tuple{a, {Exact(text("gUMP")), Exact(num(1))}}}, false},
		{"±0", TSQ{Tuples: []Tuple{{Exact(num(0))}, {Exact(negZero)}}}, false},
		{"two NULLs", TSQ{Tuples: []Tuple{{Exact(sqlir.Null())}, {Exact(sqlir.Null())}}}, false},
		{"text and number", TSQ{Tuples: []Tuple{{Exact(text("1"))}, {Exact(num(1))}}}, true},
		{"text and range", TSQ{Tuples: []Tuple{{Exact(text("1"))}, {Range(0, 2)}}}, true},
		{"number in range", TSQ{Tuples: []Tuple{{Exact(num(2))}, {Range(0, 2)}}}, false},
		{"number outside range", TSQ{Tuples: []Tuple{{Exact(num(3))}, {Range(0, 2)}}}, true},
		{"touching ranges", TSQ{Tuples: []Tuple{{Range(0, 2)}, {Range(2, 4)}}}, false},
		{"disjoint ranges", TSQ{Tuples: []Tuple{{Range(0, 2)}, {Range(3, 4)}}}, true},
		{"a NaN-bound range", TSQ{Tuples: []Tuple{{Range(math.NaN(), 1)}}}, false},
		{"a range bound above by NaN", TSQ{Tuples: []Tuple{{Exact(text("Gump")), Range(0, math.NaN())}}}, false},
		{"infinite bounds", TSQ{Tuples: []Tuple{{Range(math.Inf(-1), 0)}, {Range(1, math.Inf(1))}}}, true},
		{"empty against exact", TSQ{Tuples: []Tuple{{Empty(), Exact(num(1))}, {Exact(num(2)), Empty()}}}, false},
		{"an all-empty tuple", TSQ{Tuples: []Tuple{{Empty(), Empty()}}}, false},
		{"a short tuple", TSQ{Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber}, Tuples: []Tuple{{Exact(text("Gump"))}}}, false},
		{"a long tuple", TSQ{Tuples: []Tuple{{Exact(text("Gump"))}, {Exact(text("Up")), Empty()}}}, false},
	}
	for _, c := range cases {
		if got := c.t.RowsDecide(); got != c.want {
			t.Errorf("%s: RowsDecide() = %v, want %v", c.name, got, c.want)
		}
	}
}

// rowsValues are the values the RowsDecide property draws cells and rows
// from: NULL, NaN, both zeros, and texts equal under case folding.
var rowsValues = []sqlir.Value{
	sqlir.Null(), sqlir.NewNumber(math.NaN()), sqlir.NewNumber(0), sqlir.NewNumber(math.Copysign(0, -1)),
	sqlir.NewNumber(1), sqlir.NewNumber(2), sqlir.NewText("ab"), sqlir.NewText("AB"), sqlir.NewText("Ab"),
	sqlir.NewText("x"),
}

// rowsBounds are the range bounds it draws: both zeros, infinities and NaN
// among them.
var rowsBounds = []float64{math.Copysign(0, -1), 0, 1, 2, 3, math.Inf(-1), math.Inf(1), math.NaN()}

func randomCell(r *rand.Rand) Cell {
	switch r.Intn(4) {
	case 0:
		return Empty()
	case 1:
		lo := rowsBounds[r.Intn(len(rowsBounds))]
		hi := rowsBounds[r.Intn(len(rowsBounds))]
		return Range(min(lo, hi), max(lo, hi))
	default:
		return Exact(rowsValues[r.Intn(len(rowsValues))])
	}
}

// matchingValue returns a value that a passing by-row question admits for
// c (byRowAdmits) — a case-flipped text, the other zero, a range's bound or
// midpoint or any number its NaN bound lets through — or false when it
// admits none.
func matchingValue(r *rand.Rand, c Cell) (sqlir.Value, bool) {
	switch c.Kind {
	case CellEmpty:
		return rowsValues[r.Intn(len(rowsValues))], true
	case CellRange:
		nums := []float64{c.Lo.Num, c.Hi.Num, (c.Lo.Num + c.Hi.Num) / 2, 1, -1}
		r.Shuffle(len(nums), func(i, j int) { nums[i], nums[j] = nums[j], nums[i] })
		for _, f := range nums {
			if v := sqlir.NewNumber(f); byRowAdmits(&c, v) {
				return v, true
			}
		}
		return sqlir.Value{}, false
	}
	v := c.Val
	switch {
	case v.Kind == sqlir.KindText && r.Intn(2) == 0:
		v.Text = strings.ToUpper(v.Text)
	case v.Kind == sqlir.KindText:
		v.Text = strings.ToLower(v.Text)
	case v.Kind == sqlir.KindNumber && v.Num == 0 && r.Intn(2) == 0:
		v.Num = -v.Num
	}
	return v, c.Matches(v)
}

// byRowAdmits reports whether a by-row question's predicates on c's column
// can hold of v, or more. An exact cell's equality holds at most where
// Matches does (exact text equality implies EqualFold, and NULL equals
// nothing), so Matches stands in for it. A range's bounds are col >= lo AND
// col <= hi, which the executor evaluates as !(v < lo) && !(v > hi): that
// holds of every number when a bound is NaN. A range is asked only over a
// column without NaN, so a NaN value is not admitted.
func byRowAdmits(c *Cell, v sqlir.Value) bool {
	if c.Kind != CellRange {
		return c.Matches(v)
	}
	return v.Kind == sqlir.KindNumber && !math.IsNaN(v.Num) && !(v.Num < c.Lo.Num) && !(v.Num > c.Hi.Num)
}

// rowsMatch is what a passing by-row question shows of a row: every cell of
// tp that falls inside the row's width admits its value (byRowAdmits) — a
// short tuple's question reads only its cells, a long tuple's only the
// row's width.
func rowsMatch(tp Tuple, row []sqlir.Value) bool {
	for i := range min(len(tp), len(row)) {
		if !byRowAdmits(&tp[i], row[i]) {
			return false
		}
	}
	return true
}

// Property: when RowsDecide holds, any result of the sketch's width in which
// every example tuple matches some row (as by-row shows it) satisfies the
// sketch. The sketches have one to three tuples of one to three cells —
// sometimes a tuple of another width, sometimes a repeated tuple — over
// rowsValues and rowsBounds; the results hold a row built for each of some of the tuples,
// then one for each tuple still unmatched, then a few random rows, so one
// row often serves several tuples.
func TestRowsDecideImpliesSatisfies(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	decided := 0
	for range 200_000 {
		w := 1 + r.Intn(3)
		var sk TSQ
		for n := 1 + r.Intn(3); len(sk.Tuples) < n; {
			if len(sk.Tuples) > 0 && r.Intn(6) == 0 {
				sk.Tuples = append(sk.Tuples, sk.Tuples[r.Intn(len(sk.Tuples))])
				continue
			}
			tw := w
			if len(sk.Tuples) > 0 && r.Intn(8) == 0 {
				tw = w - 1 + 2*r.Intn(2)
			}
			tp := make(Tuple, tw)
			for i := range tp {
				tp[i] = randomCell(r)
			}
			sk.Tuples = append(sk.Tuples, tp)
		}
		if !sk.RowsDecide() {
			continue
		}
		res := &sqlexec.Result{Types: make([]sqlir.Type, w)}
		addRowFor := func(tp Tuple) bool {
			row := make([]sqlir.Value, w)
			for i := range row {
				c := Empty()
				if i < len(tp) {
					c = tp[i]
				}
				v, ok := matchingValue(r, c)
				if !ok {
					return false
				}
				row[i] = v
			}
			res.Rows = append(res.Rows, row)
			return true
		}
		possible := true
		for _, tp := range sk.Tuples {
			if r.Intn(2) == 0 {
				possible = possible && addRowFor(tp)
			}
		}
		for _, tp := range sk.Tuples {
			if !possible {
				break
			}
			matched := false
			for _, row := range res.Rows {
				matched = matched || rowsMatch(tp, row)
			}
			if !matched {
				possible = addRowFor(tp)
			}
		}
		if !possible {
			continue // some tuple admits no value (an exact NaN)
		}
		for range r.Intn(3) {
			row := make([]sqlir.Value, w)
			for i := range row {
				row[i] = rowsValues[r.Intn(len(rowsValues))]
			}
			res.Rows = append(res.Rows, row)
		}
		r.Shuffle(len(res.Rows), func(i, j int) { res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i] })
		decided++
		if !sk.Satisfies(res) {
			t.Fatalf("RowsDecide() holds for %s and every tuple matches a row of %v, but the result does not satisfy it", &sk, res.Rows)
		}
	}
	if decided < 1000 {
		t.Fatalf("only %d decided sketches had a result to check", decided)
	}
	t.Logf("%d decided sketches checked", decided)
}

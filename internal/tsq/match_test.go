package tsq

import (
	"math"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
)

// satisfiesWhole is Definition 2.4 over a whole result, as Satisfies decided
// it before the Matcher: the oracle the streamed answer is checked against.
func satisfiesWhole(t *TSQ, res *sqlexec.Result) bool {
	if w := t.Width(); w > 0 && len(res.Types) != w {
		return false
	}
	for i, ty := range t.Types {
		if ty != sqlir.TypeUnknown && res.Types[i] != ty {
			return false
		}
	}
	if t.Limit > 0 && len(res.Rows) > t.Limit {
		return false
	}
	if len(t.Tuples) == 0 {
		return true
	}
	if t.Sorted {
		return matchInOrder(t.Tuples, res.Rows)
	}
	return matchDistinct(t.Tuples, res.Rows)
}

// matchInOrder greedily assigns each example tuple the earliest matching row
// after the previous assignment (order-respecting distinct matching; greedy
// earliest-match is exact for subsequence matching).
func matchInOrder(tuples []Tuple, rows [][]sqlir.Value) bool {
	next := 0
	for _, tp := range tuples {
		found := -1
		for i := next; i < len(rows); i++ {
			if tupleMatchesRow(tp, rows[i]) {
				found = i
				break
			}
		}
		if found < 0 {
			return false
		}
		next = found + 1
	}
	return true
}

// matchDistinct finds a perfect matching of example tuples onto distinct
// result rows via augmenting paths over every candidate row.
func matchDistinct(tuples []Tuple, rows [][]sqlir.Value) bool {
	cand := make([][]int, len(tuples))
	for i, tp := range tuples {
		for j, row := range rows {
			if tupleMatchesRow(tp, row) {
				cand[i] = append(cand[i], j)
			}
		}
		if len(cand[i]) == 0 {
			return false
		}
	}
	rowOwner := map[int]int{} // row -> tuple
	var try func(i int, visited map[int]bool) bool
	try = func(i int, visited map[int]bool) bool {
		for _, r := range cand[i] {
			if visited[r] {
				continue
			}
			visited[r] = true
			owner, taken := rowOwner[r]
			if !taken || try(owner, visited) {
				rowOwner[r] = i
				return true
			}
		}
		return false
	}
	for i := range tuples {
		if !try(i, map[int]bool{}) {
			return false
		}
	}
	return true
}

// streamed asks m, fresh or just reset, the way the question sink does:
// columns, then rows until the answer settles (only the Relevant ones when
// sieved), then the answer for the whole row count.
func streamed(m *Matcher, res *sqlexec.Result, sieved bool) bool {
	if !m.Columns(res.Types) {
		for _, row := range res.Rows {
			if sieved && !m.Relevant(row) {
				continue
			}
			if m.Row(row) {
				break
			}
		}
	}
	return m.Answer(len(res.Rows))
}

// fuzzInput decodes fuzz bytes, reading zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

var (
	// fuzzValues are the cells' values; rows draw all but the last, NaN,
	// which no value is.
	fuzzValues = []sqlir.Value{
		sqlir.Null(), sqlir.NewText("a"), sqlir.NewText("A"), sqlir.NewText("b"),
		sqlir.NewNumber(0), sqlir.NewNumber(1), sqlir.NewNumber(2), sqlir.NewNumber(math.NaN()),
	}
	fuzzTypes = []sqlir.Type{sqlir.TypeUnknown, sqlir.TypeText, sqlir.TypeNumber}
)

// decodeMatch builds a sketch and a result from fuzz bytes: width 1–3,
// 0–4 tuples of exact, empty and range cells, 0–15 rows over a small value
// alphabet (so matches and duplicates are common, and NaN cells too), either
// sort flag, a limit of 0–5, and type annotations that may disagree with
// the result's.
func decodeMatch(data []byte) (*TSQ, *sqlexec.Result) {
	in := fuzzInput(data)
	width := 1 + in.next(3)
	sk := &TSQ{Sorted: in.next(2) == 1, Limit: in.next(6)}
	res := &sqlexec.Result{Types: make([]sqlir.Type, width)}
	for i := range res.Types {
		res.Types[i] = fuzzTypes[in.next(3)]
	}
	if in.next(2) == 1 {
		sk.Types = make([]sqlir.Type, width+in.next(4)/3)
		for i := range sk.Types {
			sk.Types[i] = fuzzTypes[in.next(3)]
		}
	}
	for n := in.next(5); n > 0; n-- {
		tp := make(Tuple, width)
		for i := range tp {
			switch in.next(4) {
			case 0:
				tp[i] = Empty()
			case 1:
				lo := float64(in.next(3))
				tp[i] = Range(lo, lo+float64(in.next(3)))
			default:
				tp[i] = Exact(fuzzValues[in.next(len(fuzzValues))])
			}
		}
		sk.Tuples = append(sk.Tuples, tp)
	}
	for n := in.next(16); n > 0; n-- {
		row := make([]sqlir.Value, width)
		for i := range row {
			row[i] = fuzzValues[in.next(len(fuzzValues)-1)]
		}
		res.Rows = append(res.Rows, row)
	}
	return sk, res
}

// FuzzTSQMatch: Validate refuses every sketch holding a NaN; for a sketch
// it accepts, the streamed answer — stopped wherever it settles, with or
// without the rows Relevant rejects, from a fresh matcher or one reset
// after use — equals Definition 2.4 decided over the whole result.
func FuzzTSQMatch(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0, 0, 0, 0, 2, 2, 3, 5, 3, 5, 3, 5, 3},
		{1, 1, 0, 1, 2, 0, 2, 1, 0, 2, 9, 1, 4, 6, 4, 5, 1, 4, 2, 1},
		{2, 0, 3, 1, 2, 0, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 15, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		{0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 12, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, res := decodeMatch(data)
		err := sk.Validate()
		if err == nil && holdsNaN(sk) {
			t.Fatalf("%s holds a NaN and passes Validate", sk)
		}
		if err != nil {
			return // only a sketch Validate accepts reaches a matcher
		}
		want := satisfiesWhole(sk, res)
		m := sk.Matcher()
		if got := streamed(m, res, false); got != want {
			t.Fatalf("streamed %v, whole result %v: %s over %v %v", got, want, sk, res.Types, res.Rows)
		}
		if m.Reset(sk); streamed(m, res, true) != want {
			t.Fatalf("sieved from a reset matcher %v, whole result %v: %s over %v %v", !want, want, sk, res.Types, res.Rows)
		}
		if got := sk.Satisfies(res); got != want {
			t.Fatalf("Satisfies %v, whole result %v: %s over %v %v", got, want, sk, res.Types, res.Rows)
		}
	})
}

// TestMatcherSettles pins where the streamed answer stops: at the row that
// completes an unsorted matching, at the row past the limit, and never on
// true while a limit can still be exceeded.
func TestMatcherSettles(t *testing.T) {
	rows := func(vals ...string) [][]sqlir.Value {
		out := make([][]sqlir.Value, len(vals))
		for i, v := range vals {
			out[i] = []sqlir.Value{text(v)}
		}
		return out
	}
	settleAt := func(sk *TSQ, rs [][]sqlir.Value) int {
		m := sk.Matcher()
		if m.Columns([]sqlir.Type{sqlir.TypeText}) {
			return 0
		}
		for i, row := range rs {
			if m.Row(row) {
				return i + 1
			}
		}
		return -1
	}
	ab := []Tuple{{Exact(text("a"))}, {Exact(text("b"))}}
	for _, c := range []struct {
		name string
		sk   *TSQ
		rows [][]sqlir.Value
		at   int
	}{
		{"no tuples", &TSQ{}, rows("x"), 0},
		{"type mismatch", &TSQ{Types: []sqlir.Type{sqlir.TypeNumber}}, rows("x"), 0},
		{"unsorted", &TSQ{Tuples: ab}, rows("x", "b", "x", "a", "x"), 4},
		{"sorted waits for order", &TSQ{Sorted: true, Tuples: ab}, rows("b", "a", "x", "b", "x"), 4},
		{"past the limit", &TSQ{Limit: 2, Tuples: ab}, rows("a", "b", "x"), 3},
		{"limit keeps true open", &TSQ{Limit: 3, Tuples: ab}, rows("a", "b", "x"), -1},
		{"duplicates need two rows", &TSQ{Tuples: []Tuple{ab[0], ab[0]}}, rows("a", "x", "a"), 3},
		// Tuple 0 takes row 0; tuple 1 can only use row 0, so the matching
		// must be re-routed when row 1 arrives.
		{"augmenting", &TSQ{Tuples: []Tuple{{Empty()}, ab[0]}}, rows("a", "c"), 2},
	} {
		if got := settleAt(c.sk, c.rows); got != c.at {
			t.Errorf("%s: settled at row %d, want %d", c.name, got, c.at)
		}
	}
}

// TestMatcherBoundedState: however many rows match, an unsorted matcher
// keeps at most |tuples| candidates per tuple.
func TestMatcherBoundedState(t *testing.T) {
	sk := &TSQ{Limit: 1 << 20, Tuples: []Tuple{{Empty()}, {Empty()}, {Exact(text("z"))}}}
	m := sk.Matcher()
	for i := 0; i < 10000; i++ {
		m.Row([]sqlir.Value{text("a")})
	}
	if len(m.adj) > len(sk.Tuples)*len(sk.Tuples) {
		t.Errorf("%d rows kept for %d tuples", len(m.adj), len(sk.Tuples))
	}
	if m.Row([]sqlir.Value{text("z")}); !m.Answer(10001) {
		t.Error("a late match for the last tuple must complete the matching")
	}
}

// TestMatcherReset: a matcher reset for another sketch answers as a fresh
// one, whatever the first sketch left behind — more tuples, a matching
// routed through augmenting paths, a settled answer.
func TestMatcherReset(t *testing.T) {
	a, b, c := Exact(text("a")), Exact(text("b")), Exact(text("c"))
	rows := &sqlexec.Result{Types: []sqlir.Type{sqlir.TypeText}}
	for _, v := range []string{"b", "a", "c", "a", "b"} {
		rows.Rows = append(rows.Rows, []sqlir.Value{text(v)})
	}
	sketches := []*TSQ{
		{Tuples: []Tuple{{Empty()}, {a}, {a}, {c}}},
		{Tuples: []Tuple{{b}, {b}}},
		{Sorted: true, Tuples: []Tuple{{a}, {b}}},
		{Tuples: []Tuple{{c}, {Empty()}, {b}}},
		{Limit: 4, Tuples: []Tuple{{a}}},
		{Tuples: []Tuple{{b}, {b}, {b}}},
	}
	m := sketches[0].Matcher()
	for round := range 2 {
		for i, sk := range sketches {
			want := satisfiesWhole(sk, rows)
			m.Reset(sk)
			if got := streamed(m, rows, round == 1); got != want {
				t.Errorf("round %d, sketch %d %s: reset matcher %v, whole result %v", round, i, sk, got, want)
			}
		}
	}
}

package sqlir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if v := NewText("abc"); v.Kind != KindText || v.Text != "abc" {
		t.Errorf("NewText: got %+v", v)
	}
	if v := NewNumber(3.5); v.Kind != KindNumber || v.Num != 3.5 {
		t.Errorf("NewNumber: got %+v", v)
	}
	if v := NewInt(7); v.Kind != KindNumber || v.Num != 7 {
		t.Errorf("NewInt: got %+v", v)
	}
}

func TestValueType(t *testing.T) {
	cases := []struct {
		v    Value
		want Type
	}{
		{Null(), TypeUnknown},
		{NewText("x"), TypeText},
		{NewInt(1), TypeNumber},
	}
	for _, c := range cases {
		if got := c.v.Type(); got != c.want {
			t.Errorf("%v.Type() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewText("a"), NewText("a"), true},
		{NewText("a"), NewText("b"), false},
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewNumber(1.5), false},
		{Null(), Null(), true},
		{Null(), NewInt(0), false},
		{NewText("1"), NewInt(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewText("a"), NewText("b"), -1},
		{NewText("b"), NewText("a"), 1},
		{Null(), NewInt(5), -1},       // null sorts first
		{NewText("a"), NewInt(5), -1}, // text kind < number kind
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(3) {
		case 0:
			return Null()
		case 1:
			return NewNumber(float64(r.Intn(10)))
		default:
			return NewText(string(rune('a' + r.Intn(5))))
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := gen(r), gen(r)
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
		if (a.Compare(b) == 0) != (b.Compare(a) == 0) {
			t.Fatalf("Compare zero not symmetric for %v, %v", a, b)
		}
	}
}

// Value.Compare is a total preorder over every value that exists — NULL,
// both zeros, both infinities, ordinary numbers and texts; no stored or
// computed value is NaN. Every pair compares antisymmetrically (so it is
// total: one of a <= b, b <= a holds), every value equals itself, and
// every triple is transitive, so a run of equal keys is an equivalence
// class.
func TestCompareIsATotalPreorder(t *testing.T) {
	alphabet := []Value{
		Null(), NewNumber(0), NewNumber(math.Copysign(0, -1)), NewNumber(math.Inf(1)), NewNumber(math.Inf(-1)),
		NewNumber(-2.5), NewNumber(1), NewNumber(1e300), NewNumber(-1e-300),
		NewText(""), NewText("a"), NewText("A"), NewText("ab"), NewText("b"),
	}
	for _, a := range alphabet {
		if a.Compare(a) != 0 {
			t.Errorf("%v.Compare(itself) = %d", a, a.Compare(a))
		}
		for _, b := range alphabet {
			if ab, ba := a.Compare(b), b.Compare(a); ab != -ba || ab < -1 || ab > 1 {
				t.Errorf("%v.Compare(%v) = %d, reversed %d", a, b, ab, ba)
			}
			for _, c := range alphabet {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("%v <= %v <= %v, but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l", false},
		{"hello", "%x%", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"Hello", "hello", true}, // case-insensitive
		{"MiXeD CaSe", "mixed%CASE", true},
		{"Émile", "émile", false}, // only ASCII letters fold, as in SQLite
		{"Émile", "Émile", true},
		{"Émile", "_mile", true}, // _ is one character, not one byte
		{"Émile", "__mile", false},
		{"naïve", "na_ve", true},
		{"naïve", "%ï%", true},
		{"50%", "%", true},
		{"%a", "%", true},
		{"abc", "a%c", true},
		{"ac", "a%c", true},
		{"abcdc", "a%c", true},
		{"abcd", "a%c", false},
	}
	for _, c := range cases {
		if got := NewText(c.s).Like(c.p); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if NewInt(5).Like("5") {
		t.Error("numbers should not match LIKE")
	}
	if Null().Like("%") {
		t.Error("NULL should not match LIKE")
	}
	zola := NewText("Émile ZOLA")
	if n := testing.AllocsPerRun(100, func() { zola.Like("%_mile%zola") }); n != 0 {
		t.Errorf("LIKE allocates %v times a match, want 0", n)
	}
}

func TestLikePercentMatchesEverything(t *testing.T) {
	f := func(s string) bool { return NewText(s).Like("%") }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeExactSelfMatch(t *testing.T) {
	// A pattern with no wildcards matches exactly itself (case-folded).
	f := func(s string) bool {
		for _, r := range s {
			if r == '%' || r == '_' {
				return true // skip wildcard-bearing inputs
			}
		}
		return NewText(s).Like(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewText("ab"), "'ab'"},
		{NewText("a'b"), "'a''b'"},
		{NewInt(42), "42"},
		{NewNumber(2.5), "2.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueDisplay(t *testing.T) {
	if got := NewText("ab").Display(); got != "ab" {
		t.Errorf("Display = %q", got)
	}
	if got := NewInt(3).Display(); got != "3" {
		t.Errorf("Display = %q", got)
	}
	if got := Null().Display(); got != "NULL" {
		t.Errorf("Display = %q", got)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{0, "0"},
		{-3, "-3"},
		{1995, "1995"},
		{2.5, "2.5"},
	}
	for _, c := range cases {
		if got := FormatNumber(c.f); got != c.want {
			t.Errorf("FormatNumber(%v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		l, r Value
		want bool
	}{
		{OpEq, NewInt(1), NewInt(1), true},
		{OpEq, NewInt(1), NewInt(2), false},
		{OpNe, NewInt(1), NewInt(2), true},
		{OpLt, NewInt(1), NewInt(2), true},
		{OpGt, NewInt(3), NewInt(2), true},
		{OpLe, NewInt(2), NewInt(2), true},
		{OpGe, NewInt(2), NewInt(3), false},
		{OpLike, NewText("forrest gump"), NewText("%gump%"), true},
		{OpEq, Null(), Null(), false}, // NULL comparisons are false
		{OpEq, Null(), NewInt(1), false},
		{OpLt, NewText("a"), NewInt(1), false}, // cross-kind ordering is false
	}
	for _, c := range cases {
		if got := c.op.Eval(c.l, c.r); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpEq: "=", OpNe: "!=", OpLt: "<", OpGt: ">",
		OpLe: "<=", OpGe: ">=", OpLike: "LIKE",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestOpOrdering(t *testing.T) {
	for _, op := range []Op{OpLt, OpGt, OpLe, OpGe} {
		if !op.Ordering() {
			t.Errorf("%v should be ordering", op)
		}
	}
	for _, op := range []Op{OpEq, OpNe, OpLike} {
		if op.Ordering() {
			t.Errorf("%v should not be ordering", op)
		}
	}
}

func TestAggResultType(t *testing.T) {
	cases := []struct {
		a    AggFunc
		in   Type
		want Type
	}{
		{AggNone, TypeText, TypeText},
		{AggCount, TypeText, TypeNumber},
		{AggSum, TypeNumber, TypeNumber},
		{AggAvg, TypeNumber, TypeNumber},
		{AggMax, TypeNumber, TypeNumber},
		{AggMin, TypeText, TypeText},
	}
	for _, c := range cases {
		if got := c.a.ResultType(c.in); got != c.want {
			t.Errorf("%v.ResultType(%v) = %v, want %v", c.a, c.in, got, c.want)
		}
	}
}

func TestAggNumericOnly(t *testing.T) {
	for _, a := range []AggFunc{AggMin, AggMax, AggSum, AggAvg} {
		if !a.NumericOnly() {
			t.Errorf("%v should be numeric-only", a)
		}
	}
	for _, a := range []AggFunc{AggNone, AggCount} {
		if a.NumericOnly() {
			t.Errorf("%v should not be numeric-only", a)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindNull.String() != "null" || KindText.String() != "text" || KindNumber.String() != "number" {
		t.Error("kind names wrong")
	}
}

func TestTypeString(t *testing.T) {
	if TypeText.String() != "text" || TypeNumber.String() != "number" || TypeUnknown.String() != "unknown" {
		t.Error("type names wrong")
	}
}

func TestLogicalOpString(t *testing.T) {
	if LogicAnd.String() != "AND" || LogicOr.String() != "OR" {
		t.Error("logical op names wrong")
	}
}

func TestClauseStateString(t *testing.T) {
	if ClauseAbsent.String() != "absent" || ClausePending.String() != "pending" || ClausePresent.String() != "present" {
		t.Error("clause state names wrong")
	}
}

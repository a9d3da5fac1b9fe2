package sqlir

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genQuery builds a random complete single-table query over a toy schema
// for property tests.
func genQuery(r *rand.Rand) *Query {
	cols := []ColumnRef{
		{"t", "a"}, {"t", "b"}, {"t", "c"}, {"t", "d"},
	}
	q := NewQuery()
	q.KWSet = true
	q.LimitSet = true
	q.SelectCountSet = true
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		q.Select = append(q.Select, SelectItem{
			Agg: AggNone, AggSet: true, Col: cols[r.Intn(len(cols))], ColSet: true,
		})
	}
	q.From = &JoinPath{Tables: []string{"t"}}
	if r.Intn(2) == 0 {
		q.WhereState = ClausePresent
		q.Where.CountSet = true
		q.Where.ConjSet = true
		if r.Intn(2) == 0 {
			q.Where.Conj = LogicOr
		}
		np := 1 + r.Intn(3)
		for i := 0; i < np; i++ {
			q.Where.Preds = append(q.Where.Preds, Predicate{
				Col: cols[r.Intn(len(cols))], ColSet: true,
				Op: AllOps[r.Intn(len(AllOps))], OpSet: true,
				Val: NewInt(r.Intn(10)), ValSet: true,
			})
		}
	}
	return q
}

// Property: Canonical is invariant under predicate permutation.
func TestQuickCanonicalPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		q := genQuery(r)
		if len(q.Where.Preds) < 2 {
			continue
		}
		p := q.Clone()
		i, j := r.Intn(len(p.Where.Preds)), r.Intn(len(p.Where.Preds))
		p.Where.Preds[i], p.Where.Preds[j] = p.Where.Preds[j], p.Where.Preds[i]
		if q.Canonical() != p.Canonical() {
			t.Fatalf("permutation changed canonical:\n%s\n%s", q.Canonical(), p.Canonical())
		}
	}
}

// Property: Clone is canonically identical and structurally independent.
func TestQuickCloneFaithful(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		q := genQuery(r)
		c := q.Clone()
		if q.Canonical() != c.Canonical() {
			t.Fatal("clone differs canonically")
		}
		if !reflect.DeepEqual(q.String(), c.String()) {
			t.Fatal("clone renders differently")
		}
		// Mutating the clone must not affect the original.
		c.Select[0].Col = ColumnRef{"t", "zzz"}
		if q.Select[0].Col.Column == "zzz" {
			t.Fatal("clone shares select storage")
		}
	}
}

// Property: generated complete queries report Complete().
func TestQuickGeneratedQueriesComplete(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		if !genQuery(r).Complete() {
			t.Fatal("generated query incomplete")
		}
	}
}

// Property (testing/quick): Value round-trips through Display for text, and
// Equal is reflexive.
func TestQuickValueReflexive(t *testing.T) {
	f := func(s string, n float64) bool {
		tv, nv := NewText(s), NewNumber(n)
		return tv.Equal(tv) && nv.Equal(nv) && tv.Display() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): Compare is transitive-consistent on numbers.
func TestQuickNumberCompareConsistent(t *testing.T) {
	f := func(a, b float64) bool {
		va, vb := NewNumber(a), NewNumber(b)
		c := va.Compare(vb)
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): Op.Eval(OpEq) agrees with Value.Equal for
// same-kind values.
func TestQuickEqOpAgreesWithEqual(t *testing.T) {
	f := func(a, b float64) bool {
		va, vb := NewNumber(a), NewNumber(b)
		return OpEq.Eval(va, vb) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AppendReferencedTables never returns duplicates.
func TestQuickReferencedTablesDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		q := genQuery(r)
		seen := map[string]bool{}
		for _, tb := range q.AppendReferencedTables(nil) {
			if seen[tb] {
				t.Fatalf("duplicate table %s", tb)
			}
			seen[tb] = true
		}
	}
}

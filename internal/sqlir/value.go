// Package sqlir defines the SQL intermediate representation shared by every
// layer of Duoquest: typed values, column references, and the partial-query
// AST (Definition 3.1 of the paper) in which any query element may be a
// placeholder awaiting an enumeration decision.
package sqlir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ValueKind discriminates the runtime kind of a Value.
type ValueKind uint8

const (
	// KindNull is the SQL NULL value.
	KindNull ValueKind = iota
	// KindText is a string value.
	KindText
	// KindNumber is a numeric value (stored as float64).
	KindNumber
)

// String returns a human-readable name for the kind.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindText:
		return "text"
	case KindNumber:
		return "number"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a single SQL cell value. The zero Value is NULL.
type Value struct {
	Kind ValueKind
	Text string
	Num  float64
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Text returns a text value.
func NewText(s string) Value { return Value{Kind: KindText, Text: s} }

// NewNumber returns a numeric value.
func NewNumber(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// NewInt returns a numeric value from an int.
func NewInt(i int) Value { return Value{Kind: KindNumber, Num: float64(i)} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNaN reports whether v is a NaN number. No stored or computed value is
// one: storage keeps a NaN as NULL, as SQLite does, and the entries that
// take values from a user refuse it.
func (v Value) IsNaN() bool { return v.Kind == KindNumber && math.IsNaN(v.Num) }

// Type returns the column Type corresponding to the value's kind.
// NULL values report TypeUnknown.
func (v Value) Type() Type {
	switch v.Kind {
	case KindText:
		return TypeText
	case KindNumber:
		return TypeNumber
	default:
		return TypeUnknown
	}
}

// Equal reports whether two values are identical. NULL equals only NULL
// (three-valued logic is collapsed: comparisons involving NULL are false at
// the predicate layer; Equal here is structural equality used for grouping
// and result matching).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindText:
		return v.Text == o.Text
	case KindNumber:
		return v.Num == o.Num
	}
	return false
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything; text and numbers are incomparable kinds and
// are ordered by kind (text < number) to give a deterministic total order.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindNull:
		return 0
	case KindText:
		return strings.Compare(v.Text, o.Text)
	case KindNumber:
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// Less reports whether v sorts strictly before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Like reports whether the value matches a SQL LIKE pattern with % and _
// wildcards, as SQLite's LIKE does by default: ASCII letters match either
// case, every other character only itself, and _ matches one UTF-8
// character. Only text values can match; NULL and numbers never match.
func (v Value) Like(pattern string) bool {
	return v.Kind == KindText && likeMatch(v.Text, pattern)
}

// likeMatch implements LIKE with % (any run) and _ (any one character)
// using iterative backtracking over the last % seen. It compares bytes in
// place: a multi-byte character matches only itself, byte for byte, and a
// % gives up whole characters.
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, match = pi, si
			pi++
		case pi < len(p) && p[pi] == '_':
			_, w := utf8.DecodeRuneInString(s[si:])
			si += w
			pi++
		case pi < len(p) && lowerASCII(p[pi]) == lowerASCII(s[si]):
			si++
			pi++
		case star != -1:
			_, w := utf8.DecodeRuneInString(s[match:])
			match += w
			pi, si = star+1, match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// lowerASCII folds an ASCII upper-case letter to lower case and leaves
// every other byte alone.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindText:
		return "'" + strings.ReplaceAll(v.Text, "'", "''") + "'"
	case KindNumber:
		return FormatNumber(v.Num)
	default:
		return "?"
	}
}

// Display renders the value for human-facing tables (no quoting).
func (v Value) Display() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindText:
		return v.Text
	case KindNumber:
		return FormatNumber(v.Num)
	default:
		return "?"
	}
}

// FormatNumber renders a float64 the way SQL renders it: integers without a
// decimal point, everything else in minimal form.
func FormatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

package sqlir

import (
	"sort"
	"strings"
)

// Canonical returns a normalized rendering of a complete query used for
// exact-match comparison (the simulation study's accuracy metric). Two
// queries are equivalent when they differ only in:
//
//   - predicate order within WHERE (AND/OR are commutative),
//   - GROUP BY column order,
//   - join order within the FROM clause (inner joins are commutative), and
//   - spelling of the same join edge in either direction.
//
// Projection order is significant: it determines the result columns that a
// TSQ's tuples are matched against.
func (q *Query) Canonical() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(canonicalJoin(q.From))
	if q.WhereState == ClausePresent && len(q.Where.Preds) > 0 {
		b.WriteString(" WHERE ")
		preds := make([]string, len(q.Where.Preds))
		for i, p := range q.Where.Preds {
			preds[i] = p.String()
		}
		sort.Strings(preds)
		conj := " " + q.Where.Conj.String() + " "
		if len(preds) == 1 {
			conj = " "
		}
		b.WriteString(strings.Join(preds, conj))
	}
	if q.GroupByState == ClausePresent && len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		cols := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			cols[i] = g.String()
		}
		sort.Strings(cols)
		b.WriteString(strings.Join(cols, ", "))
		if q.HavingState == ClausePresent {
			b.WriteString(" HAVING ")
			b.WriteString(q.Having.String())
		}
	}
	if q.OrderByState == ClausePresent {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.OrderBy.String())
	}
	if q.LimitSet && q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(FormatNumber(float64(q.Limit)))
	}
	return b.String()
}

// canonicalJoin renders a join path as the sorted table set plus the sorted,
// direction-normalized edge set.
func canonicalJoin(j *JoinPath) string {
	if j.Len() == 0 {
		return "?"
	}
	tables, edges := j.Sets()
	s := strings.Join(tables, ",")
	if len(edges) > 0 {
		s += " ON " + strings.Join(edges, "&")
	}
	return s
}

// Sets returns the path as a set of tables and a set of edges: its table
// names in sorted order (ordinal order, as ordinals rank names) and its
// conditions, each written lesser column first, sorted.
func (j *JoinPath) Sets() (tables, edges []string) {
	for _, t := range j.set.Ordinals() {
		tables = append(tables, j.cat.names[t])
	}
	edges = make([]string, len(j.edges))
	for i, e := range j.edges {
		a, z := e.Joined.String(), e.New.String()
		edges[i] = min(a, z) + "=" + max(a, z)
	}
	sort.Strings(edges)
	return tables, edges
}

// Equivalent reports whether two complete queries are exact matches under
// Canonical normalization.
func Equivalent(a, b *Query) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Canonical() == b.Canonical()
}

package sqlexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Hooks for the external test package (differential tests and paired
// benchmarks): direct access to the materialize-then-filter reference path,
// bypassing the streaming pipeline.

// Col is db's column table.column.
func Col(db *storage.Database, table, column string) sqlir.ColumnRef {
	return db.Schema.Catalog().MustCol(table, column)
}

// DistinctValues returns up to max distinct values of db's column c.
func DistinctValues(db *storage.Database, c sqlir.ColumnRef, max int) ([]sqlir.Value, error) {
	t := db.Schema.TableAt(c.Table())
	return t.DistinctValues(t.Columns[c.Column()].Name, max)
}

// MustPath builds db's join path rooted at root over conditions written
// "table.column = table.column", panicking on a malformed one.
func MustPath(db *storage.Database, root string, conds ...string) *sqlir.JoinPath {
	ref := func(s string) sqlir.ColumnRef {
		t, c, _ := strings.Cut(s, ".")
		return Col(db, t, c)
	}
	ons := make([]sqlir.JoinOn, len(conds))
	for i, c := range conds {
		l, r, _ := strings.Cut(c, " = ")
		ons[i] = sqlir.JoinOn{Left: ref(l), Right: ref(r)}
	}
	jp, err := db.Schema.Catalog().Path(root, ons...)
	if err != nil {
		panic(err)
	}
	return jp
}

// ReferenceRelation wraps a materialized join for repeated probing — the
// pre-streaming JoinCache behavior.
type ReferenceRelation struct {
	db  *storage.Database
	rel *relation
}

// MaterializeReference materializes a join path through the reference
// executor.
func MaterializeReference(db *storage.Database, jp *sqlir.JoinPath) (*ReferenceRelation, error) {
	rel, err := join(context.Background(), db, jp)
	if err != nil {
		return nil, err
	}
	return &ReferenceRelation{db: db, rel: rel}, nil
}

// ExecuteReference runs a complete query on the materializing reference
// executor — the oracle for the compiled pipeline behind Execute.
func ExecuteReference(db *storage.Database, q *sqlir.Query) (*Result, error) {
	return executeReference(context.Background(), db, q)
}

// ExistsOnReference scans a pre-materialized join for a witness, exactly as
// the pre-streaming executor did.
func (r *ReferenceRelation) ExistsOnReference(eq ExistsQuery) (bool, error) {
	return existsOn(context.Background(), r.db, r.rel, eq)
}

// ExistsReference answers an exists query by materializing the join and
// filtering — the reference oracle for the streaming pipeline.
func ExistsReference(db *storage.Database, eq ExistsQuery) (bool, error) {
	for _, p := range eq.Preds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	for _, p := range eq.AndPreds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	rel, err := join(context.Background(), db, eq.From)
	if err != nil {
		return false, err
	}
	return existsOn(context.Background(), db, rel, eq)
}

// ColumnarDB and RandomColumnarQuery hand the NULL-heavy, ±Inf-sprinkled
// property-test database and its query generator to the external package.
func ColumnarDB(seed int64, rows int) *storage.Database { return columnarDB(seed, rows) }

func RandomColumnarQuery(r *rand.Rand) *sqlir.Query { return randomColumnarQuery(r) }

// DiffExecute runs q on the materializing reference executor and on the
// compiled pipeline — uncapped and with a preview cap of 2 rows — and
// describes the first difference in columns, types, rows (cell for cell,
// floats bit for bit) or error text; "" means they agree everywhere.
func DiffExecute(db *storage.Database, q *sqlir.Query) string {
	want, werr := executeReference(context.Background(), db, q)
	check := func(label string, maxRows int, got *Result, gerr error) string {
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				return fmt.Sprintf("%s: error %v, reference %v", label, gerr, werr)
			}
			return ""
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Types, want.Types) {
			return fmt.Sprintf("%s: header %v %v, reference %v %v", label, got.Columns, got.Types, want.Columns, want.Types)
		}
		rows := want.Rows
		if maxRows > 0 && len(rows) > maxRows {
			rows = rows[:maxRows]
		}
		if len(got.Rows) != len(rows) || got.Rows == nil {
			return fmt.Sprintf("%s: %d rows (nil: %v), reference %d", label, len(got.Rows), got.Rows == nil, len(rows))
		}
		for i, wr := range rows {
			gr := got.Rows[i]
			if len(gr) != len(wr) {
				return fmt.Sprintf("%s: row %d has %d cells, reference %d", label, i, len(gr), len(wr))
			}
			for j, w := range wr {
				g := gr[j]
				if g.Kind != w.Kind || g.Text != w.Text || math.Float64bits(g.Num) != math.Float64bits(w.Num) {
					return fmt.Sprintf("%s: row %d cell %d = %v, reference %v", label, i, j, g, w)
				}
			}
		}
		return ""
	}
	for _, maxRows := range []int{0, 2} {
		got, gerr := NewJoinCache(db).PreviewCtx(context.Background(), q, maxRows)
		if d := check(fmt.Sprintf("compiled cap=%d", maxRows), maxRows, got, gerr); d != "" {
			return d
		}
	}
	return ""
}

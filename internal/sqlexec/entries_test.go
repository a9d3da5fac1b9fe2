package sqlexec_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// No value is NaN, as in SQLite: every entry that stores or computes a
// number makes a NaN NULL (or refuses it, where a stored NaN could only be
// corruption), and every entry that takes a value from a user refuses one.
// Value.Compare is then a total preorder over every value there is. Each
// case returns the NaN it let in, or nil.
func TestNoNaNEntersThroughAnyEntry(t *testing.T) {
	nan := math.NaN()
	newTable := func() *storage.Table {
		return storage.NewTable("g", "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber},
			storage.Column{Name: "k", Type: sqlir.TypeText},
			storage.Column{Name: "v", Type: sqlir.TypeNumber},
		)
	}
	bulk := func(v storage.ColumnData) error {
		tb := newTable()
		if err := tb.BulkAppend([]storage.ColumnData{{Nums: []float64{1, 2}}, {Texts: []string{"a", "b"}}, v}); err != nil {
			return err
		}
		return storedNaN(tb)
	}
	// g holds +Inf and -Inf in group a: its SUM and AVG are NaN, and read
	// NULL; group b's are 1.
	infs := func() *storage.Database {
		tb := newTable()
		tb.MustInsert(sqlir.NewInt(1), sqlir.NewText("a"), sqlir.NewNumber(math.Inf(1)))
		tb.MustInsert(sqlir.NewInt(2), sqlir.NewText("a"), sqlir.NewNumber(math.Inf(-1)))
		tb.MustInsert(sqlir.NewInt(3), sqlir.NewText("b"), sqlir.NewInt(1))
		return storage.NewDatabase("infs", storage.NewSchema(tb))
	}()
	aggregate := func(agg string, execute func(*storage.Database, *sqlir.Query) (*sqlexec.Result, error)) error {
		q := sqlparse.MustParse(infs.Schema, "SELECT k, "+agg+"(v) FROM g GROUP BY k")
		res, err := execute(infs, q)
		if err != nil {
			return err
		}
		if len(res.Rows) != 2 || !res.Rows[0][1].IsNull() || !res.Rows[1][1].Equal(sqlir.NewInt(1)) {
			return fmt.Errorf("%s = %v, want a NULL and 1", q, res.Rows)
		}
		return nil
	}
	validate := func(c tsq.Cell) error {
		sk := &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Up")), c}}}
		if err := sk.Validate(); err == nil || err.Error() != fmt.Sprintf("tsq: tuple 0 cell 1 (%s): no value is NaN", c) {
			return fmt.Errorf("Validate(%s) = %v, want the NaN cell named", sk, err)
		}
		return nil
	}

	for _, c := range []struct {
		name  string
		enter func(t *testing.T) error
	}{
		{"Insert", func(*testing.T) error {
			tb := newTable()
			tb.MustInsert(sqlir.NewInt(1), sqlir.NewText("a"), sqlir.NewNumber(nan))
			return storedNaN(tb)
		}},
		{"BulkAppend with Nulls", func(*testing.T) error {
			return bulk(storage.ColumnData{Nums: []float64{nan, 3}, Nulls: []bool{false, true}})
		}},
		{"BulkAppend without NULL flags", func(*testing.T) error {
			return bulk(storage.ColumnData{Nums: []float64{3, nan}})
		}},
		{"SUM over ±Inf, columnar", func(*testing.T) error { return aggregate("SUM", sqlexec.Execute) }},
		{"AVG over ±Inf, columnar", func(*testing.T) error { return aggregate("AVG", sqlexec.Execute) }},
		{"SUM over ±Inf, reference", func(*testing.T) error { return aggregate("SUM", sqlexec.ExecuteReference) }},
		{"AVG over ±Inf, reference", func(*testing.T) error { return aggregate("AVG", sqlexec.ExecuteReference) }},
		{"DecodeVector of a chunk holding NaN", func(*testing.T) error {
			// No vector holds a NaN to encode, so the chunk's value is
			// patched in after its 16-byte header.
			tb := newTable()
			tb.MustInsert(sqlir.NewInt(1), sqlir.NewText("a"), sqlir.NewInt(1))
			chunk := storage.EncodeVector(tb.VectorAt(2))
			binary.LittleEndian.PutUint64(chunk[16:], math.Float64bits(nan))
			if _, err := storage.DecodeVector(chunk, sqlir.TypeNumber); err == nil || err.Error() != "row 0 holds NaN" {
				return fmt.Errorf("DecodeVector of a NaN chunk: %v, want row 0 named", err)
			}
			return nil
		}},
		{"Validate of an exact NaN", func(*testing.T) error { return validate(tsq.Exact(sqlir.NewNumber(nan))) }},
		{"Validate of a NaN lower bound", func(*testing.T) error { return validate(tsq.Range(nan, 1)) }},
		{"Validate of a NaN upper bound", func(*testing.T) error { return validate(tsq.Range(0, nan)) }},
		{"a literal given to the service", func(t *testing.T) error {
			e := service.NewEngine(service.Config{})
			if err := e.Register(infs); err != nil {
				return err
			}
			s, err := e.Session("infs")
			if err != nil {
				return err
			}
			in := service.Input{NLQ: "v of g", Literals: []sqlir.Value{sqlir.NewText("a"), sqlir.NewNumber(nan)}, Deadline: 50 * time.Millisecond}
			if _, err := s.Synthesize(context.Background(), in); err == nil || err.Error() != "service: literal 1 (NaN): no value is NaN" {
				return fmt.Errorf("Synthesize with a NaN literal: %v, want the literal named", err)
			}
			return nil
		}},
	} {
		if err := c.enter(t); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// storedNaN describes the first NaN a table's number columns hold, or nil.
func storedNaN(tb *storage.Table) error {
	for ci, col := range tb.Columns {
		vec := tb.VectorAt(ci)
		for i := 0; col.Type == sqlir.TypeNumber && i < vec.Len(); i++ {
			if !vec.IsNull(i) && math.IsNaN(vec.Num(i)) {
				return fmt.Errorf("column %s row %d holds NaN", col.Name, i)
			}
		}
	}
	return nil
}

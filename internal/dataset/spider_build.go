package dataset

import (
	"fmt"
	"math/rand"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// builtDB is a generated database plus the NL metadata the task templates
// need.
type builtDB struct {
	db     *storage.Database
	spec   domainSpec
	phrase map[sqlir.ColumnRef]string
	entity map[string]string // table -> singular noun
	plural map[string]string // table -> plural noun
}

// buildDomain instantiates one domain spec into a populated database. The
// seed controls row counts and all generated values, so the same domain
// yields different databases across the dev and test sets.
func buildDomain(spec domainSpec, variant int, seed int64) *builtDB {
	r := rand.New(rand.NewSource(seed))
	b := &builtDB{
		spec:   spec,
		phrase: map[sqlir.ColumnRef]string{},
		entity: map[string]string{},
		plural: map[string]string{},
	}

	var tables []*storage.Table
	rows := map[string]int{}
	for _, ts := range spec.tables {
		cols := make([]storage.Column, len(ts.cols))
		for i, c := range ts.cols {
			cols[i] = storage.Column{Name: c.name, Type: c.typ}
		}
		tables = append(tables, storage.NewTable(ts.name, ts.pk, cols...))
		rows[ts.name] = ts.minRows + r.Intn(ts.maxRows-ts.minRows+1)
		b.entity[ts.name] = ts.entity
		b.plural[ts.name] = ts.entities
	}
	schema := storage.NewSchema(tables...)
	for _, fk := range spec.fks {
		schema.AddForeignKey(fk.table, fk.col, fk.refTable, fk.refCol)
	}
	if err := schema.Validate(); err != nil {
		panic(fmt.Sprintf("dataset: domain %s: %v", spec.name, err))
	}
	cat := schema.Catalog()
	for _, ts := range spec.tables {
		for _, c := range ts.cols {
			b.phrase[cat.MustCol(ts.name, c.name)] = c.phrase
		}
	}

	// fkFor finds the FK target for a column, if any.
	fkFor := func(table, col string) (string, bool) {
		for _, fk := range spec.fks {
			if fk.table == table && fk.col == col {
				return fk.refTable, true
			}
		}
		return "", false
	}

	// Populate in declaration order (specs list referenced tables first).
	for _, ts := range spec.tables {
		t := schema.Table(ts.name)
		n := rows[ts.name]
		for i := 0; i < n; i++ {
			vals := make([]sqlir.Value, len(ts.cols))
			for ci, c := range ts.cols {
				if ref, ok := fkFor(ts.name, c.name); ok {
					vals[ci] = num(float64(1 + r.Intn(rows[ref])))
					continue
				}
				if c.gen == nil {
					panic(fmt.Sprintf("dataset: %s.%s has no generator and no FK", ts.name, c.name))
				}
				vals[ci] = c.gen(r, i)
			}
			t.MustInsert(vals...)
		}
	}

	name := fmt.Sprintf("%s_%d", spec.name, variant)
	b.db = storage.NewDatabase(name, schema)
	return b
}

package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

var insertSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "n", Kind: tuple.KindInt},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

// columnsOf lays rows out as InsertColumns takes them, STRING values as
// codes into a dictionary of the distinct strings.
func columnsOf(rows [][]tuple.Value) []tuple.ColView {
	cols := make([]tuple.ColView, insertSchema.Len())
	codes := map[string]uint32{}
	for c := range cols {
		cols[c].Kind = insertSchema.Column(c).Kind
	}
	for _, row := range rows {
		s := row[0].AsString()
		code, ok := codes[s]
		if !ok {
			code = uint32(len(cols[0].Dict))
			codes[s] = code
			cols[0].Dict = append(cols[0].Dict, s)
		}
		cols[0].Codes = append(cols[0].Codes, code)
		cols[1].Ints = append(cols[1].Ints, row[1].AsInt())
		cols[2].Floats = append(cols[2].Floats, row[2].AsFloat())
		cols[3].Bools = append(cols[3].Bools, row[3].AsBool())
	}
	return cols
}

// TestInsertColumnsMatchesInsertBatch: rows inserted as columns get the
// IDs InsertBatch gives them and leave byte-identical WAL records and
// checkpoint snapshots; a malformed column set is refused whole.
func TestInsertColumnsMatchesInsertBatch(t *testing.T) {
	var batches [][][]tuple.Value
	for b := 0; b < 3; b++ {
		var batch [][]tuple.Value
		for i := 0; i < 17+b*10; i++ {
			temp := float64(i) / 3
			switch i % 7 {
			case 2:
				temp = math.NaN()
			case 5:
				temp = math.Copysign(0, -1)
			}
			batch = append(batch, Row(fmt.Sprintf("dev-%d", i%4), int64(i*b)-9, temp, i%2 == 0))
		}
		batches = append(batches, batch)
	}
	open := func() (string, *DB, *Table) {
		dir := t.TempDir()
		db, err := Open(DBConfig{Seed: 3, Dir: dir, Durability: wal.DurabilityNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		tbl, err := db.CreateTable("t", TableConfig{Schema: insertSchema, Shards: 3, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, "t"), db, tbl
	}
	rowDir, _, byRows := open()
	colDir, _, byCols := open()
	for _, batch := range batches {
		tps, err := byRows.InsertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		first, err := byCols.InsertColumns(columnsOf(batch), len(batch))
		if err != nil {
			t.Fatal(err)
		}
		if first != tps[0].ID {
			t.Fatalf("first ID %d, InsertBatch gave %d", first, tps[0].ID)
		}
	}

	sameFiles := func(what string, names ...string) {
		t.Helper()
		for _, name := range names {
			want, err := os.ReadFile(filepath.Join(rowDir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(colDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Errorf("%s %s: %d bytes from columns, %d from rows, or they differ", what, name, len(got), len(want))
			}
		}
	}
	for _, tbl := range []*Table{byRows, byCols} {
		if err := tbl.SyncWAL(); err != nil {
			t.Fatal(err)
		}
	}
	sameFiles("log", "wal.0.log", "wal.1.log", "wal.2.log")
	for _, tbl := range []*Table{byRows, byCols} {
		if err := tbl.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	sameFiles("snapshot", "snapshot.1.0.db", "snapshot.1.1.db", "snapshot.1.2.db")

	cols := columnsOf(batches[0])
	short := append([]tuple.ColView(nil), cols...)
	short[2].Floats = short[2].Floats[:3]
	badCode := append([]tuple.ColView(nil), cols...)
	badCode[0].Codes = append([]uint32{99}, cols[0].Codes[1:]...)
	wrongKind := append([]tuple.ColView(nil), cols...)
	wrongKind[1], wrongKind[2] = wrongKind[2], wrongKind[1]
	before := byCols.Counters().Inserted
	for name, bad := range map[string][]tuple.ColView{"short column": short, "code outside dictionary": badCode, "wrong kind": wrongKind, "missing column": cols[:3]} {
		if _, err := byCols.InsertColumns(bad, len(batches[0])); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if got := byCols.Counters().Inserted; got != before {
		t.Errorf("refused column sets inserted %d rows", got-before)
	}
}

package core

import (
	"testing"

	"fungusdb/internal/catalog"
	"fungusdb/internal/clock"
	"fungusdb/internal/query"
)

func TestSpecTableFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Seed: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := catalog.TableSpec{
		Name:         "logs",
		Schema:       "host STRING, sev INT",
		Fungus:       &catalog.FungusSpec{Kind: "ttl", Lifetime: 100},
		DistillOnRot: true,
	}
	tbl, err := db.CreateTableFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(Row("web-1", i%8)); err != nil {
			t.Fatal(err)
		}
	}
	db.Tick()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the table comes back without any caller configuration.
	db2, err := Open(DBConfig{Seed: 3, Dir: dir, Clock: clock.NewVirtual(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Tables(); len(got) != 1 || got[0] != "logs" {
		t.Fatalf("recreated tables = %v", got)
	}
	tbl2, err := db2.Table("logs")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 10 {
		t.Errorf("recovered %d tuples", tbl2.Len())
	}
	auditZones(t, tbl2)
	// The fungus came back too: after the TTL lifetime everything rots
	// and (DistillOnRot) lands in the rot container.
	for i := 0; i < 101; i++ {
		if _, err := db2.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if tbl2.Len() != 0 {
		t.Errorf("TTL did not survive reopen: %d live", tbl2.Len())
	}
	rot := tbl2.Shelf().Get(RotContainer)
	if rot == nil || rot.Digest.Count() != 10 {
		t.Errorf("DistillOnRot lost on reopen: %+v", rot)
	}
}

func TestSpecTableRequiresDir(t *testing.T) {
	db := openDB(t)
	_, err := db.CreateTableFromSpec(catalog.TableSpec{Name: "x", Schema: "a INT"})
	if err == nil {
		t.Error("spec table without Dir accepted")
	}
}

func TestSpecTableInvalidSpec(t *testing.T) {
	db, err := Open(DBConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTableFromSpec(catalog.TableSpec{Name: "x", Schema: "nope"}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestDropTableRemovesCatalogEntry(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableFromSpec(catalog.TableSpec{Name: "gone", Schema: "a INT"}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(DBConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Tables(); len(got) != 0 {
		t.Errorf("dropped table resurrected: %v", got)
	}
}

func TestSpecTargetedFungusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := catalog.TableSpec{
		Name:   "logs",
		Schema: "host STRING, sev INT",
		Fungus: &catalog.FungusSpec{
			Kind:  "targeted",
			Where: "sev >= 6",
			Inner: &catalog.FungusSpec{Kind: "linear", Rate: 1.0},
		},
	}
	if _, err := db.CreateTableFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(DBConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, _ := db2.Table("logs")
	tbl.Insert(Row("a", 7)) // chatty: rots next tick
	tbl.Insert(Row("a", 1)) // serious: shielded
	db2.Tick()
	res, err := answer(tbl, "", query.Peek)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Attrs[1].AsInt() != 1 {
		t.Errorf("targeted fungus wrong after reopen: %v", res)
	}
}

package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/catalog"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// Durability threading and crash semantics at the engine layer: the
// WAL-level crash tests prove the log mechanics; these prove the knob
// reaches tables through DBConfig / TableSpec and that commit futures
// mean what docs/DURABILITY.md says across a simulated process crash
// (directory copied while the first DB still holds its buffers).

var duraSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
)

// copyTree snapshots a DB directory (catalog + table subdirectories)
// the way a crash freezes it: whatever reached the files, and nothing
// still sitting in user-space buffers.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// manualGroupedDB opens a persistent DB whose grouped tables flush
// only on demand (no ticker, unreachable size threshold), so tests
// control the commit windows deterministically.
func manualGroupedDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(DBConfig{
		Seed: 1, Dir: dir,
		Durability:          wal.DurabilityGrouped,
		GroupCommitInterval: -1,
		GroupCommitSize:     1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDurabilityResolution(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Seed: 1, Dir: dir, Durability: wal.DurabilityGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	inherit, err := db.CreateTable("inherit", TableConfig{Schema: duraSchema, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := inherit.Durability(); got != wal.DurabilityGrouped {
		t.Errorf("inherited durability = %v, want grouped", got)
	}
	override, err := db.CreateTable("override", TableConfig{
		Schema: duraSchema, Persist: true, Durability: wal.DurabilityStrict,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := override.Durability(); got != wal.DurabilityStrict {
		t.Errorf("override durability = %v, want strict", got)
	}
	// In-memory DB: unset everywhere resolves to none.
	mem, err := Open(DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	tbl, err := mem.CreateTable("m", TableConfig{Schema: duraSchema})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Durability(); got != wal.DurabilityNone {
		t.Errorf("default durability = %v, want none", got)
	}
	// Non-persistent tables hand out pre-resolved waits.
	_, w, err := tbl.InsertDurable(Row("s", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !w.Resolved() {
		t.Error("in-memory InsertDurable wait not born resolved")
	}
}

// TestTableSpecDurabilityRoundTrip pins the declarative path: a spec's
// durability survives the catalog and reaches the recreated table.
func TestTableSpecDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Seed: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableFromSpec(catalog.TableSpec{
		Name: "evts", Schema: "device STRING, temp FLOAT", Shards: 3, Durability: "grouped",
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(DBConfig{Seed: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Table("evts")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Durability(); got != wal.DurabilityGrouped {
		t.Errorf("spec durability after reopen = %v, want grouped", got)
	}
	if wi := tbl.WALInfo(); wi.SyncMode != "grouped" {
		t.Errorf("WALInfo sync mode = %q", wi.SyncMode)
	}
}

// TestGroupedCrashKeepsResolvedInserts is the engine-level half of the
// acceptance criterion: after a crash, exactly the inserts whose
// commit waits resolved are recovered — across shard counts.
func TestGroupedCrashKeepsResolvedInserts(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			db := manualGroupedDB(t, dir)
			defer db.Close()
			tbl, err := db.CreateTableFromSpec(catalog.TableSpec{
				Name: "evts", Schema: "device STRING, temp FLOAT", Shards: shards, Durability: "grouped",
			})
			if err != nil {
				t.Fatal(err)
			}

			const acked, unacked = 25, 9
			waits := make([]wal.CommitWait, 0, acked)
			for k := 0; k < acked; k++ {
				_, w, err := tbl.InsertDurable(Row("dev", float64(k)))
				if err != nil {
					t.Fatal(err)
				}
				waits = append(waits, w)
			}
			if waits[0].Resolved() {
				t.Fatal("wait resolved before any flush")
			}
			if err := tbl.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			for k, w := range waits {
				if err := w.Wait(); err != nil {
					t.Fatalf("wait %d: %v", k, err)
				}
			}
			var pending []wal.CommitWait
			for k := acked; k < acked+unacked; k++ {
				_, w, err := tbl.InsertDurable(Row("dev", float64(k)))
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, w)
			}
			for _, w := range pending {
				if w.Resolved() {
					t.Fatal("unflushed wait already resolved")
				}
			}

			crashed := copyTree(t, dir)
			db2, err := Open(DBConfig{Seed: 1, Dir: crashed})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			tbl2, err := db2.Table("evts")
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl2.Len(); got != acked {
				t.Fatalf("recovered %d rows, want the %d acknowledged", got, acked)
			}
			auditZones(t, tbl2)
		})
	}
}

// TestStrictInsertsSurviveCrashImmediately: every acknowledged strict
// insert is on disk before Insert returns — no Sync, no Close.
func TestStrictInsertsSurviveCrashImmediately(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Seed: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTableFromSpec(catalog.TableSpec{
		Name: "evts", Schema: "device STRING, temp FLOAT", Shards: 4, Durability: "strict",
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 17
	for k := 0; k < n; k++ {
		_, w, err := tbl.InsertDurable(Row("dev", float64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if !w.Resolved() {
			t.Fatal("strict wait not resolved at return")
		}
	}
	crashed := copyTree(t, dir)
	db2, err := Open(DBConfig{Seed: 1, Dir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("evts")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.Len(); got != n {
		t.Fatalf("recovered %d rows, want %d", got, n)
	}
	auditZones(t, tbl2)
}

// auditZones fails the test unless every zone map of tbl holds its live
// rows: recovery builds them by replay, or installs them from the
// snapshot without a per-row rebuild.
func auditZones(t *testing.T, tbl *Table) {
	t.Helper()
	if err := tbl.AuditZones(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResolvesGroupedWaits: a checkpoint makes the pending
// window durable through the committed snapshots, so its waits resolve
// without an explicit flush.
func TestCheckpointResolvesGroupedWaits(t *testing.T) {
	dir := t.TempDir()
	db := manualGroupedDB(t, dir)
	defer db.Close()
	tbl, err := db.CreateTable("t", TableConfig{
		Schema: duraSchema, Persist: true, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, w, err := tbl.InsertDurable(Row("dev", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if w.Resolved() {
		t.Fatal("wait resolved before flush or checkpoint")
	}
	if err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !w.Resolved() {
		t.Error("checkpoint did not resolve the pending window")
	}
	// And the row is genuinely durable: crash-copy and reopen.
	crashed := copyTree(t, dir)
	db2, err := Open(DBConfig{Seed: 1, Dir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", TableConfig{Schema: duraSchema, Persist: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 1 {
		t.Fatalf("recovered %d rows, want 1", tbl2.Len())
	}
	auditZones(t, tbl2)
}

// TestGroupCommitStatsSurface: grouped-mode fsync batching shows up in
// WALInfo (and therefore in server stats and fungusctl).
func TestGroupCommitStatsSurface(t *testing.T) {
	dir := t.TempDir()
	db := manualGroupedDB(t, dir)
	defer db.Close()
	tbl, err := db.CreateTable("t", TableConfig{Schema: duraSchema, Persist: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if _, err := tbl.Insert(Row("dev", float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	wi := tbl.WALInfo()
	if wi.SyncMode != "grouped" {
		t.Errorf("sync mode = %q", wi.SyncMode)
	}
	if wi.GroupCommits != 1 {
		t.Errorf("group commits = %d, want 1", wi.GroupCommits)
	}
	if wi.AvgGroupSize != 10 {
		t.Errorf("avg group size = %g, want 10", wi.AvgGroupSize)
	}
}

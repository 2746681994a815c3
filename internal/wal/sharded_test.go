package wal

import (
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// Per-shard cursors trail the global next-ID high-water mark by up to
// shards-1. A post-checkpoint insert on a lagging shard must survive
// crash recovery, whether the directory reopens at its own shard count
// or at another: cursors may only be advanced to the recorded marks
// after the logs have replayed.
func TestRecoverPostCheckpointInsertOnLaggingShard(t *testing.T) {
	dir := t.TempDir()
	ss := storage.NewSharded(walSchema, 2)
	sl, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// IDs 0,1,2: shard 0's cursor is now 4, shard 1's is 3.
	appendRows(t, ss, sl, 3)
	// Checkpoint: snapshot headers and manifest record the cursors, the
	// logs are truncated.
	if err := sl.Checkpoint(ss, 2); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint insert lands on lagging shard 1 as ID 3.
	i := ss.NextShard()
	tp, err := ss.InsertShard(i, 1, row("d", 3))
	if err != nil {
		t.Fatal(err)
	}
	if tp.ID != 3 {
		t.Fatalf("post-checkpoint insert got ID %d, want 3", tp.ID)
	}
	if err := sl.AppendInsert(i, tp); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil { // flush; the "crash" is not reopening cleanly
		t.Fatal(err)
	}

	for _, shards := range []int{2, 1, 3} {
		got := recoverCopy(t, dir, shards)
		if got.Len() != 4 {
			t.Fatalf("shards=%d: recovered %d tuples, want 4 (post-checkpoint insert lost)", shards, got.Len())
		}
		if !has(got, 3) {
			t.Fatalf("shards=%d: tuple 3 (post-checkpoint, lagging shard) missing after recovery", shards)
		}
		// The high-water mark still holds: fresh inserts never reuse IDs.
		next, err := got.Insert(2, []tuple.Value{tuple.String_("d"), tuple.Int(9)})
		if err != nil {
			t.Fatal(err)
		}
		if next.ID < 4 {
			t.Fatalf("shards=%d: post-recovery insert reused ID %d", shards, next.ID)
		}
	}
}

// TestRecoverAndOpenCountsRecords: the logs RecoverAndOpen hands back
// count exactly the records a frame scan of each log file finds, though
// they are never read a second time — after a plain recovery (inserts,
// evicts and ticks), after a torn tail, and after a reshard, which
// leaves every log empty. Appends after the open keep counting from
// there.
func TestRecoverAndOpenCountsRecords(t *testing.T) {
	dir := t.TempDir()
	ss, sl := buildSharded(t, dir, 3, 30)
	for id := tuple.ID(0); id < 30; id += 4 {
		if err := evict(ss, id); err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendEvict(ss.ShardOf(id), id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := sl.AppendTick(i, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(name, dir string, shards int) {
		t.Helper()
		got, err := RecoverAndOpen(dir, storage.NewSharded(walSchema, shards), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer got.Close()
		counts := got.RecordCounts()
		for i := 0; i < shards; i++ {
			data, err := os.ReadFile(filepath.Join(dir, ShardLogFile(i)))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if _, recs := FrameScan(data); counts[i] != uint64(recs) {
				t.Errorf("%s: shard %d opened at %d records, its log holds %d", name, i, counts[i], recs)
			}
		}
		if err := got.AppendTick(0, 8); err != nil {
			t.Fatal(err)
		}
		if after := got.RecordCounts()[0]; after != counts[0]+1 {
			t.Errorf("%s: an append moved shard 0's count from %d to %d", name, counts[0], after)
		}
	}
	check("recovered", copyDir(t, dir), 3)

	torn := copyDir(t, dir)
	path := filepath.Join(torn, ShardLogFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn tail", torn, 3)

	check("resharded", copyDir(t, dir), 2)
}

package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// countZoneFolds arranges for folds to be counted for the duration of
// the test and returns the live counter.
func countZoneFolds(t *testing.T) *int {
	t.Helper()
	folds := 0
	storage.TestHookZoneFold = func() { folds++ }
	t.Cleanup(func() { storage.TestHookZoneFold = nil })
	return &folds
}

// zonesUsable proves every live segment carries a usable zone summary
// that holds its rows: a scan whose skip callback rejects every summary
// with ID bounds must skip every live tuple, and the audit must pass.
func zonesUsable(t *testing.T, s *storage.Store) {
	t.Helper()
	ps := s.ScanBatches(
		func(z *storage.ZoneMap) bool { _, _, ok := z.IDBounds(); return ok },
		func(*tuple.Batch) bool { return true },
	)
	if ps.Tuples != s.Len() {
		t.Errorf("only %d of %d live tuples sit under usable zone maps", ps.Tuples, s.Len())
	}
	if err := s.AuditZones(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotZoneRestoreSkipsFolds is the recovery acceptance check:
// a snapshot carries the per-segment zone maps, so loading it installs
// the summaries instead of rebuilding them row by row — zero folds —
// and the restored store prunes exactly like the original.
func TestSnapshotZoneRestoreSkipsFolds(t *testing.T) {
	dir := t.TempDir()
	src := storage.New(walSchema, storage.WithSegmentSize(4))
	for i := 0; i < 19; i++ {
		if _, err := src.Insert(clock.Tick(3+i/4), row("dev", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, shardSnapshotFile(1, 0))
	if err := WriteSnapshot(path, src); err != nil {
		t.Fatal(err)
	}

	folds := countZoneFolds(t)
	dst := storage.New(walSchema, storage.WithSegmentSize(4))
	if err := restoreSnapshot(path, dst); err != nil {
		t.Fatal(err)
	}
	if *folds != 0 {
		t.Errorf("restore folded %d rows; persisted zone maps should cover all of them", *folds)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d tuples, want %d", dst.Len(), src.Len())
	}
	zonesUsable(t, dst)

	// The installed bounds must match what a rebuild would produce:
	// collect per-segment ID bounds from both stores and compare.
	bounds := func(s *storage.Store) [][2]tuple.ID {
		var out [][2]tuple.ID
		s.ScanBatches(func(z *storage.ZoneMap) bool {
			lo, hi, ok := z.IDBounds()
			if !ok {
				t.Fatal("usable zone without ID bounds")
			}
			out = append(out, [2]tuple.ID{tuple.ID(lo.AsInt()), tuple.ID(hi.AsInt())})
			return true
		}, func(*tuple.Batch) bool { return true })
		return out
	}
	got, want := bounds(dst), bounds(src)
	if len(got) != len(want) {
		t.Fatalf("restored %d zoned segments, original had %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("segment %d ID bounds: restored %v, original %v", i, got[i], want[i])
		}
	}
}

// TestRecoverZoneFoldsOnlyLogTail: after a checkpoint plus more logged
// inserts, recovery installs the snapshot summaries untouched and folds
// exactly the log-tail rows (whose IDs sit above the persisted
// high-water marks). Reopened at another shard count the summaries are
// rebuilt instead, and must still cover every live row.
func TestRecoverZoneFoldsOnlyLogTail(t *testing.T) {
	dir := t.TempDir()
	src := storage.NewSharded(walSchema, 1, storage.WithSegmentSize(4))
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, src, sl, 12)
	if err := sl.Checkpoint(src, 1); err != nil {
		t.Fatal(err)
	}
	const tail = 5
	appendRows(t, src, sl, tail)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	folds := countZoneFolds(t)
	for _, shards := range reopenCounts {
		*folds = 0
		dst := recoverCopy(t, dir, shards, storage.WithSegmentSize(4))
		if dst.Len() != 17 {
			t.Fatalf("shards=%d: recovered %d tuples, want 17", shards, dst.Len())
		}
		if shards == 1 && *folds != tail {
			t.Errorf("recovery folded %d rows, want exactly the %d log-tail inserts", *folds, tail)
		}
		for i := 0; i < shards; i++ {
			zonesUsable(t, dst.Shard(i))
		}
	}
}

// TestZoneRestoreShardCountChange: a shard snapshot carries zone records
// for its own stride and residue class. Loaded into a store with another
// stride they no longer line up, so they must be dropped (not
// misinstalled) and the summaries rebuilt from the tuples, which still
// prune correctly.
func TestZoneRestoreShardCountChange(t *testing.T) {
	dir := t.TempDir()
	src := storage.NewSharded(walSchema, 2, storage.WithSegmentSize(4))
	for i := 0; i < 24; i++ {
		if _, err := src.Insert(3, row("dev", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	folds := countZoneFolds(t)
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, shardSnapshotFile(1, i))
		if err := WriteSnapshot(path, src.Shard(i)); err != nil {
			t.Fatal(err)
		}

		// Same stride and residue: summaries install, no folds.
		*folds = 0
		same := storage.NewSharded(walSchema, 2, storage.WithSegmentSize(4)).Shard(i)
		if err := restoreSnapshot(path, same); err != nil {
			t.Fatal(err)
		}
		if *folds != 0 {
			t.Errorf("shard %d: same-layout restore folded %d rows, want 0", i, *folds)
		}

		// Stride 1: records dropped, every row folded into a rebuilt
		// summary.
		*folds = 0
		diff := storage.New(walSchema, storage.WithSegmentSize(4))
		if err := restoreSnapshot(path, diff); err != nil {
			t.Fatal(err)
		}
		if diff.Len() != 12 {
			t.Fatalf("shard %d: re-strided restore lost tuples: %d, want 12", i, diff.Len())
		}
		if *folds != diff.Len() {
			t.Errorf("shard %d: re-strided restore folded %d of %d rows; mismatched zone records were installed", i, *folds, diff.Len())
		}
		zonesUsable(t, diff)
	}
}

// TestV1SnapshotRejected: the pre-zone-persistence snapshot format (v1
// magic, no zone blob) is retired. Loading one fails with a bad-magic
// error and restores nothing.
func TestV1SnapshotRejected(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 1) // nextID
	body = binary.AppendUvarint(body, 1) // tuple count
	body = tuple.AppendEncode(body, tuple.New(0, 3, row("dev", 0)))
	data := sealSnapshot([]byte("FDBSNAP1"), body)
	path := filepath.Join(t.TempDir(), "v1.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := storage.New(walSchema)
	_, err := loadSnapshot(path, dst)
	if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("v1 snapshot: err = %v, want bad snapshot magic", err)
	}
	if dst.Len() != 0 {
		t.Errorf("rejected v1 snapshot restored %d tuples", dst.Len())
	}
}

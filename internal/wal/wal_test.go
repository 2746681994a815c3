package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

var walSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "v", Kind: tuple.KindInt},
)

func row(device string, v int64) []tuple.Value {
	return []tuple.Value{tuple.String_(device), tuple.Int(v)}
}

// restoreSnapshot loads the snapshot at path into the empty store st
// and finishes the restore the way recovery does: seal the tail, then
// resume ID allocation at the header's high-water mark.
func restoreSnapshot(path string, st *storage.Store) error {
	next, err := loadSnapshot(path, st)
	if err != nil {
		return err
	}
	st.FinishRestore()
	st.AdvanceNextID(next)
	return nil
}

// sealSnapshot frames body as a snapshot file: magic, body, crc32c.
func sealSnapshot(magic, body []byte) []byte {
	data := append(append([]byte(nil), magic...), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(body, crcTable))
}

// replayAll replays the log at path and returns its records.
func replayAll(t *testing.T, path string) []Rec {
	t.Helper()
	var recs []Rec
	if _, err := ReplayBounded(path, func(r Rec) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// recoverCopy recovers a copy of src at the given shard count, leaving
// src itself untouched for the next count.
func recoverCopy(t *testing.T, src string, shards int, opts ...storage.Option) *storage.ShardedStore {
	t.Helper()
	got := storage.NewSharded(walSchema, shards, opts...)
	if err := RecoverSharded(copyDir(t, src), got, shards); err != nil {
		t.Fatalf("recover at %d shards: %v", shards, err)
	}
	return got
}

// reopenCounts are the shard counts a directory written at one shard is
// recovered at: the matched path and a changed count.
var reopenCounts = []int{1, 3}

func TestLogAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardLogFile(0))
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tp1 := tuple.New(0, 5, row("a", 1))
	tp2 := tuple.New(1, 6, row("b", 2))
	tp2.F = 0.75
	tp2.Infected = true
	if err := l.AppendInsert(tp1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert(tp2); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvict(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := replayAll(t, path)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Type != RecInsert || recs[0].Tuple.ID != 0 {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].Tuple.F != 0.75 || !recs[1].Tuple.Infected {
		t.Errorf("rec1 lost decay state: %+v", recs[1].Tuple)
	}
	if recs[2].Type != RecEvict || recs[2].ID != 0 {
		t.Errorf("rec2 = %+v", recs[2])
	}
}

func TestReplayMissingFile(t *testing.T) {
	n := 0
	valid, err := ReplayBounded(filepath.Join(t.TempDir(), "nope.log"), func(Rec) error {
		n++
		return nil
	})
	if err != nil || n != 0 || valid != 0 {
		t.Errorf("missing file: err=%v n=%d valid=%d", err, n, valid)
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardLogFile(0))
	l, _ := Open(path)
	l.AppendInsert(tuple.New(0, 1, row("a", 1)))
	l.AppendInsert(tuple.New(1, 1, row("b", 2)))
	l.Close()

	// Tear the last record: chop some trailing bytes.
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-5], 0o644)

	if n := len(replayAll(t, path)); n != 1 {
		t.Errorf("replayed %d records after tear, want 1", n)
	}
}

func TestReplayStopsAtCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardLogFile(0))
	l, _ := Open(path)
	l.AppendInsert(tuple.New(0, 1, row("a", 1)))
	l.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // flip a payload byte
	os.WriteFile(path, data, 0o644)

	if n := len(replayAll(t, path)); n != 0 {
		t.Errorf("replayed %d corrupt records, want 0", n)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := storage.New(walSchema, storage.WithSegmentSize(4))
	for i := 0; i < 10; i++ {
		if _, err := src.Insert(3, row("dev", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	src.Evict(2)
	src.Evict(3)
	src.Update(5, func(tp *tuple.Tuple) { tp.F = 0.25; tp.Infected = true })

	path := filepath.Join(dir, shardSnapshotFile(1, 0))
	if err := WriteSnapshot(path, src); err != nil {
		t.Fatal(err)
	}

	dst := storage.New(walSchema, storage.WithSegmentSize(4))
	if err := restoreSnapshot(path, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d tuples, want %d", dst.Len(), src.Len())
	}
	got, err := dst.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.F != 0.25 || !got.Infected {
		t.Errorf("decay state lost: %+v", got)
	}
	_, err2 := dst.Get(2)
	_, err3 := dst.Get(3)
	if err2 == nil || err3 == nil {
		t.Error("evicted tuples resurrected")
	}
	// Inserts after restore must not collide with restored IDs.
	tp, err := dst.Insert(9, row("new", 99))
	if err != nil {
		t.Fatal(err)
	}
	if tp.ID < 10 {
		t.Errorf("new insert reused ID %d", tp.ID)
	}
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	dst := storage.New(walSchema)
	next, err := loadSnapshot(filepath.Join(t.TempDir(), "none"), dst)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 || next != 0 {
		t.Errorf("loaded %d tuples (next %d) from nothing", dst.Len(), next)
	}
}

func TestLoadSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	src := storage.New(walSchema)
	src.Insert(1, row("a", 1))
	path := filepath.Join(dir, shardSnapshotFile(1, 0))
	if err := WriteSnapshot(path, src); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)-6] ^= 0x55
	os.WriteFile(path, data, 0o644)
	if _, err := loadSnapshot(path, storage.New(walSchema)); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	// Bad magic.
	data[0] = 'X'
	os.WriteFile(path, data, 0o644)
	if _, err := loadSnapshot(path, storage.New(walSchema)); err == nil {
		t.Error("bad magic accepted")
	}
	// A tuple at or past the header's next-ID mark: no store ever wrote
	// one, and restoring it would size the store by an unchecked ID.
	var body []byte
	body = binary.AppendUvarint(body, 1) // nextID
	body = binary.AppendUvarint(body, 1) // tuple count
	body = tuple.AppendEncode(body, tuple.New(5, 1, row("a", 1)))
	os.WriteFile(path, sealSnapshot(snapshotMagic[:], body), 0o644)
	st := storage.New(walSchema)
	if _, err := loadSnapshot(path, st); err == nil || st.Len() != 0 {
		t.Errorf("tuple past the next-ID mark: err=%v, %d tuples restored", err, st.Len())
	}
}

func TestRecoverSnapshotPlusLog(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: build a store, checkpoint it.
	store := storage.NewSharded(walSchema, 1, storage.WithSegmentSize(4))
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, store, sl, 6)
	if err := sl.Checkpoint(store, 1); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more activity after the checkpoint.
	tp6, _ := store.Insert(2, row("post", 6))
	sl.AppendInsert(0, tp6)
	evict(store, 1)
	sl.AppendEvict(0, 1)
	if err := sl.Sync(); err != nil {
		t.Fatal(err)
	}
	sl.Close()

	// Crash. Recover.
	for _, shards := range reopenCounts {
		got := recoverCopy(t, dir, shards, storage.WithSegmentSize(4))
		if got.Len() != store.Len() {
			t.Fatalf("shards=%d: recovered %d tuples, want %d", shards, got.Len(), store.Len())
		}
		if has(got, 1) {
			t.Errorf("shards=%d: evicted tuple recovered", shards)
		}
		if !has(got, 6) {
			t.Errorf("shards=%d: post-checkpoint insert lost", shards)
		}
	}
}

func TestRecoverSkipsStaleRecords(t *testing.T) {
	// Crash between the manifest commit and log truncation: the new
	// generation is committed, yet the log still holds records the
	// generation's snapshot already covers.
	dir := t.TempDir()
	store := storage.NewSharded(walSchema, 1)
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, store, sl, 2)
	if err := sl.Sync(); err != nil {
		t.Fatal(err)
	}
	// Snapshot written and manifest committed, but log NOT truncated.
	if err := WriteSnapshot(filepath.Join(dir, shardSnapshotFile(1, 0)), store.Shard(0)); err != nil {
		t.Fatal(err)
	}
	man := Manifest{Version: manifestVersion, Shards: 1, Generation: 1, NextIDs: cursorsOf(store)}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	sl.Close()

	for _, shards := range reopenCounts {
		if got := recoverCopy(t, dir, shards); got.Len() != 2 {
			t.Errorf("shards=%d: recovered %d tuples, want 2 (no duplicates)", shards, got.Len())
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	for _, shards := range reopenCounts {
		dir := t.TempDir()
		got := storage.NewSharded(walSchema, shards)
		if err := RecoverSharded(dir, got, shards); err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Errorf("shards=%d: recovered tuples from empty dir", shards)
		}
		if _, ok, err := loadManifest(dir); ok || err != nil {
			t.Errorf("shards=%d: recovering an empty dir wrote a manifest (err %v)", shards, err)
		}
	}
}

func TestTruncateAllowsNewRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardLogFile(0))
	l, _ := Open(path)
	l.AppendInsert(tuple.New(0, 1, row("old", 1)))
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	l.AppendInsert(tuple.New(7, 1, row("new", 2)))
	l.Close()

	if recs := replayAll(t, path); len(recs) != 1 || recs[0].Tuple.ID != 7 {
		t.Errorf("after truncate replayed %+v", recs)
	}
}

func TestRecoverSparseSnapshotSegmentsSealed(t *testing.T) {
	// A snapshot whose tuples leave a whole segment dead must recover
	// into a store where evicting the survivors drops their segments.
	dir := t.TempDir()
	store := storage.NewSharded(walSchema, 1, storage.WithSegmentSize(2))
	for i := 0; i < 6; i++ {
		store.Insert(1, row("x", int64(i)))
	}
	evict(store, 2)
	evict(store, 3) // segment 1 fully dead
	evict(store, 5) // segment 2 half dead
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Checkpoint(store, 1); err != nil {
		t.Fatal(err)
	}
	sl.Close()

	for _, shards := range reopenCounts {
		got := recoverCopy(t, dir, shards, storage.WithSegmentSize(2))
		if got.Len() != 3 {
			t.Fatalf("shards=%d: Len = %d, want 3", shards, got.Len())
		}
		// Evict every survivor. Only each shard's open insert tail may
		// stay; every sealed segment the restore left must drop. At one
		// shard that is segment 0 (segment 2 is the tail).
		for _, id := range []tuple.ID{0, 1, 4} {
			if err := evict(got, id); err != nil {
				t.Fatal(err)
			}
		}
		st := got.Stats()
		if st.SegsLive > shards {
			t.Errorf("shards=%d: %d segments live after evicting every tuple", shards, st.SegsLive)
		}
		if shards == 1 && st.SegsDropped != 1 {
			t.Errorf("SegsDropped = %d, want 1", st.SegsDropped)
		}
		// The pre-crash allocation point survives: tuple 5 was evicted
		// before the snapshot, and its ID must not be reused.
		tp, err := got.Insert(2, row("fresh", 1))
		if err != nil {
			t.Fatal(err)
		}
		if tp.ID < 6 {
			t.Errorf("shards=%d: insert after recovery reused ID %d", shards, tp.ID)
		}
	}
}

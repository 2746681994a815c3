// Unit coverage for the shipping read surface replication sits on:
// frame-aligned reads, whole-frame validation, and record accounting
// across truncation.
package wal

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

func shipLog(t *testing.T, shards int) *ShardedLog {
	t.Helper()
	sl, err := OpenSharded(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })
	return sl
}

func shipTuple(id uint64, n int64) tuple.Tuple {
	return tuple.Tuple{ID: tuple.ID(id), F: 1,
		Attrs: []tuple.Value{tuple.String_("d"), tuple.Int(n)}}
}

// TestFrameScanTrimsPartialTail: a torn tail — any prefix of a frame —
// must be excluded, and a corrupt byte kills the frame it lives in.
func TestFrameScanTrimsPartialTail(t *testing.T) {
	sl := shipLog(t, 1)
	for i := 0; i < 3; i++ {
		if err := sl.AppendInsert(0, shipTuple(uint64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.AppendTick(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := sl.FlushShard(0); err != nil {
		t.Fatal(err)
	}
	data, nrec, err := sl.ReadShard(0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if nrec != 4 {
		t.Fatalf("read %d records, want 4", nrec)
	}
	if n, recs := FrameScan(data); n != int64(len(data)) || recs != 4 {
		t.Fatalf("FrameScan(whole) = (%d, %d), want (%d, 4)", n, recs, len(data))
	}
	// Chop mid-frame: the scan must stop at the last whole frame.
	torn := data[:len(data)-3]
	n, recs := FrameScan(torn)
	if n >= int64(len(torn)) || recs != 3 {
		t.Fatalf("FrameScan(torn) = (%d, %d), want (<%d, 3)", n, recs, len(torn))
	}
	if m, _ := FrameScan(torn[:n]); m != n {
		t.Fatalf("trimmed prefix rescans to %d, want %d (not frame-closed)", m, n)
	}
	// Flip a payload byte: its frame (and everything after) is rejected.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0xff
	if n, recs := FrameScan(bad); recs != 0 || n != 0 {
		t.Fatalf("FrameScan(corrupt first frame) = (%d, %d), want (0, 0)", n, recs)
	}
}

// TestReadShardFrameAligned: a maxBytes cap lands reads on frame
// boundaries, successive reads tile the log exactly, and the record
// total matches RecordCounts.
func TestReadShardFrameAligned(t *testing.T) {
	sl := shipLog(t, 2)
	const perShard = 20
	for i := 0; i < perShard; i++ {
		if err := sl.AppendInsert(0, shipTuple(uint64(2*i), int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendEvict(1, tuple.ID(2*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := sl.FlushShard(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		size, err := sl.ShardSize(i)
		if err != nil {
			t.Fatal(err)
		}
		var off int64
		var total int
		for off < size {
			data, nrec, err := sl.ReadShard(i, off, 64) // tiny cap: forces many frame-aligned reads
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("shard %d: empty read at %d/%d", i, off, size)
			}
			if n, recs := FrameScan(data); n != int64(len(data)) || recs != nrec {
				t.Fatalf("shard %d read at %d not whole frames: scan (%d, %d) vs (%d, %d)",
					i, off, n, recs, len(data), nrec)
			}
			off += int64(len(data))
			total += nrec
		}
		if off != size {
			t.Fatalf("shard %d reads tiled to %d, size %d", i, off, size)
		}
		if total != perShard {
			t.Fatalf("shard %d read %d records, want %d", i, total, perShard)
		}
		if counts := sl.RecordCounts(); counts[i] != perShard {
			t.Fatalf("shard %d RecordCounts = %d, want %d", i, counts[i], perShard)
		}
	}
}

// TestRecordCountsResetAtCheckpoint: counts are per-generation — a
// checkpoint folds them into the snapshots and restarts the ledger the
// follower's lag gauge is computed from.
func TestRecordCountsResetAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	ss := storage.NewSharded(walSchema, 1)
	for i := 0; i < 5; i++ {
		tp, err := ss.Insert(1, []tuple.Value{tuple.String_("d"), tuple.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendInsert(0, tp); err != nil {
			t.Fatal(err)
		}
	}
	if got := sl.RecordCounts()[0]; got != 5 {
		t.Fatalf("pre-checkpoint count %d, want 5", got)
	}
	preSize, err := sl.ShardSize(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Checkpoint(ss, 1); err != nil {
		t.Fatal(err)
	}
	if got := sl.RecordCounts()[0]; got != 0 {
		t.Fatalf("post-checkpoint count %d, want 0", got)
	}
	trunc, ok := sl.LastTruncation()
	if !ok {
		t.Fatal("checkpoint recorded no truncation")
	}
	if trunc.FromGen != 0 || trunc.Sizes[0] != preSize {
		t.Fatalf("truncation = %+v, want FromGen 0 with size %d (the rollover cursor contract)",
			trunc, preSize)
	}
}

// TestInsertRecordRejectsTrailingBytes: an insert frame whose checksum
// is valid but whose payload runs past the encoded tuple is a bad
// record, both for a follower decoding shipped bytes and for recovery
// replaying a log. Re-encoding drops the junk, so the fuzzer cannot
// find this.
func TestInsertRecordRejectsTrailingBytes(t *testing.T) {
	payload := append([]byte{byte(RecInsert)}, tuple.AppendEncode(nil, shipTuple(3, 9))...)
	if err := DecodeFrames(fuzzFrame(payload), func(Rec) error { return nil }); err != nil {
		t.Fatalf("clean insert frame: %v", err)
	}
	data := fuzzFrame(append(payload, 1, 2, 3))
	n := 0
	if err := DecodeFrames(data, func(Rec) error { n++; return nil }); err == nil {
		t.Fatalf("insert frame with 3 trailing bytes decoded to %d records", n)
	}
	path := filepath.Join(t.TempDir(), ShardLogFile(0))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n = 0
	if _, err := ReplayBounded(path, func(Rec) error { n++; return nil }); err == nil {
		t.Fatalf("replay of an insert frame with 3 trailing bytes applied %d records", n)
	}
}

// TestReplayBoundedMatchesFrameScan ties recovery's torn-tail rule to
// shipping's: over a valid log cut, flipped and padded at random,
// ReplayBounded must stop where FrameScan does and replay as many
// records as it counts whenever every record decodes.
func TestReplayBoundedMatchesFrameScan(t *testing.T) {
	var log []byte
	for i := 0; i < 12; i++ {
		log = append(log, fuzzFrame(append([]byte{byte(RecInsert)}, tuple.AppendEncode(nil, shipTuple(uint64(i), int64(i)))...))...)
		log = append(log, fuzzFrame(binary.LittleEndian.AppendUint64([]byte{byte(RecEvict)}, uint64(i)))...)
	}
	path := filepath.Join(t.TempDir(), ShardLogFile(0))
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), log[:rng.Intn(len(log)+1)]...)
		for f := rng.Intn(3); f > 0 && len(data) > 0; f-- {
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		}
		junk := make([]byte, rng.Intn(16))
		rng.Read(junk)
		data = append(data, junk...)
		assertReplayMatchesScan(t, path, data)
	}
}

// assertReplayMatchesScan writes data to path and checks that, when
// ReplayBounded replays it without error, its valid offset and record
// count equal FrameScan's over the same bytes.
func assertReplayMatchesScan(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := 0
	off, err := ReplayBounded(path, func(Rec) error { recs++; return nil })
	if err != nil {
		return // a record that passed its checksum failed to decode
	}
	if n, want := FrameScan(data); off != n || recs != want {
		t.Fatalf("ReplayBounded = (%d bytes, %d records), FrameScan = (%d, %d) over %d bytes",
			off, recs, n, want, len(data))
	}
}

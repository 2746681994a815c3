// Log shipping: the read-side surface a replication leader uses to
// stream per-shard WAL bytes to followers.
//
// Shipping works on raw framed bytes, not decoded records — the frames
// already carry lengths and crc32c checksums, so the wire inherits the
// log's integrity checking for free and the follower replays shipped
// bytes through the exact decode path crash recovery uses. Offsets into
// a shard log are the replication cursor: a follower resumes by asking
// for (generation, per-shard byte offsets), and every offset handed out
// by ReadShard lands on a frame boundary.
//
// The shipper never takes engine locks. It flushes the target log's
// write buffer, reads the file, and relies on the generation protocol
// (see ShardedLog.Checkpoint) to detect a concurrent truncation: a
// reader that observes the same committed generation before and after a
// file read is guaranteed the bytes belong to that generation.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FrameScan returns the byte length of the longest prefix of data that
// consists of complete, checksum-valid records, and how many records it
// holds. Shipping uses it to trim a read that raced a partially flushed
// append down to whole frames; Open uses it to count a log's records.
func FrameScan(data []byte) (n int64, recs int) {
	for {
		payload, err := readFrame(data[n:])
		if err != nil {
			return n, recs
		}
		n += frameHeader + int64(len(payload))
		recs++
	}
}

// DecodeFrames invokes fn for each record in data, which must be a
// whole number of valid frames (the shape FrameScan and ReadShard
// produce). The follower's apply loop feeds shipped bytes through it.
func DecodeFrames(data []byte, fn func(Rec) error) error {
	off, tail, err := replayFrames(data, fn)
	if tail != nil {
		return fmt.Errorf("wal: frame decode at byte %d: %w", off, tail)
	}
	return err
}

// FlushShard pushes shard i's buffered appends to the OS (no fsync) so
// a subsequent ReadShard sees them.
func (sl *ShardedLog) FlushShard(i int) error {
	return sl.logs[i].Flush()
}

// ShardSize flushes shard i's log and returns its file size — the
// upper bound of bytes ReadShard can currently serve.
func (sl *ShardedLog) ShardSize(i int) (int64, error) {
	if err := sl.logs[i].Flush(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(filepath.Join(sl.dir, ShardLogFile(i)))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadShard returns up to maxBytes of shard i's log starting at byte
// offset from, trimmed to whole checksum-valid frames, plus the record
// count. from must itself be a frame boundary (offsets returned by
// earlier reads are). Reading at or past the flushed size returns
// (nil, 0, nil); the caller distinguishes "no new data" from "log
// truncated under me" with the generation protocol.
func (sl *ShardedLog) ReadShard(i int, from int64, maxBytes int) ([]byte, int, error) {
	f, err := os.Open(filepath.Join(sl.dir, ShardLogFile(i)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	buf := make([]byte, maxBytes)
	n, err := f.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("wal: ship read shard %d: %w", i, err)
	}
	valid, recs := FrameScan(buf[:n])
	if valid == 0 {
		return nil, 0, nil
	}
	return buf[:valid], recs, nil
}

// RecordCounts returns every shard's appended-record count for the
// current generation (buffered appends included). Followers subtract
// their applied counts from these to compute replication lag.
func (sl *ShardedLog) RecordCounts() []uint64 {
	out := make([]uint64, len(sl.logs))
	for i, l := range sl.logs {
		out[i] = l.Records()
	}
	return out
}

// SnapshotBlobs reads the committed generation's per-shard snapshot
// files, retrying if a checkpoint commits a new generation mid-read, and
// returns the manifest they belong to. Generation 0 has no snapshot
// files; its blobs are nil (an empty base — the logs hold everything).
// The leader uses this to re-base a follower whose cursor predates the
// last checkpoint.
func (sl *ShardedLog) SnapshotBlobs() (Manifest, [][]byte, error) {
	for attempt := 0; attempt < 5; attempt++ {
		man := sl.Manifest()
		blobs := make([][]byte, len(sl.logs))
		if man.Generation > 0 {
			ok := true
			for i := range sl.logs {
				data, err := os.ReadFile(filepath.Join(sl.dir, shardSnapshotFile(man.Generation, i)))
				if err != nil {
					ok = false // checkpoint racing us; retry with the new manifest
					break
				}
				blobs[i] = data
			}
			if !ok {
				continue
			}
		}
		if sl.Manifest().Generation != man.Generation {
			continue
		}
		return man, blobs, nil
	}
	return Manifest{}, nil, fmt.Errorf("wal: snapshot blobs: generation kept moving")
}

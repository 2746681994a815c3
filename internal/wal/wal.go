// Package wal provides crash-safe persistence for a relation extent: a
// write-ahead log of insert/evict records plus snapshots, one of each
// per shard.
//
// The paper's decay laws mutate freshness continuously; logging every
// freshness update would write more than the data itself. The WAL
// therefore records only membership changes (inserts and evictions —
// whether from rot or consume-on-query), and checkpoints capture exact
// freshness and infection state. On recovery, tuples inserted after the
// last checkpoint come back with full freshness; at most one checkpoint
// interval of decay is lost, which only delays their rot. DESIGN.md
// lists this bounded-staleness trade-off.
//
// Record framing: [length uint32][crc32c uint32][type byte][payload].
// ReplayBounded stops cleanly at the first torn or corrupt record, which
// is the expected state after a crash mid-append, and reports where the
// valid prefix ends so the torn tail can be truncated before new appends
// land behind it.
//
// # Per-shard layout
//
// A sharded table keeps one log per shard (wal.0.log … wal.N-1.log) and
// one snapshot per shard (snapshot.<gen>.<shard>.db), tied together by a
// manifest (wal.manifest.json) recording the shard count, the committed
// snapshot generation and the per-shard next-ID cursors. Shard i's log
// receives only shard i's records, appended under shard i's engine lock,
// so every log is locally ID-ordered and recovery replays the logs in
// parallel with no cross-shard buffering or sorting.
//
// Checkpoint commit protocol: write every shard's generation-g+1
// snapshot, then atomically rename the manifest naming generation g+1
// (the commit point), then truncate the shard logs and delete the
// generation-g files. A crash anywhere in that sequence either leaves
// the old manifest pointing at the complete generation-g files plus
// untruncated logs (stale records are skipped on replay), or the new
// manifest pointing at the complete generation-g+1 files.
//
// This is the only on-disk layout. A manifest whose shard count differs
// from the opening table's is recovered at its own shard count, then
// every live tuple is re-routed to its new owner by ID residue and the
// directory is rewritten at the new count. A directory in the retired
// single-log layout (snapshot.db + wal.log, no manifest) is refused with
// ErrSingleLogLayout and left untouched.
//
// # Durability
//
// Appends are buffered; WHEN they are fsynced is the DurabilityLevel:
// none (checkpoint/Sync/Close only), grouped (a GroupCommitter absorbs
// appends from all shards into a pending window, fsyncs each dirty
// shard log once per window and resolves the window's CommitWait
// futures — the durability acknowledgement), or strict (the owning
// shard's log is fsynced before the append acknowledges). A crash
// under grouped mode loses at most the unacknowledged window; the
// crash-injection tests and the what-you-can-lose table live in
// docs/DURABILITY.md.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"fungusdb/internal/tuple"
)

// RecType tags WAL records.
type RecType uint8

// WAL record types.
const (
	RecInsert RecType = iota + 1
	RecEvict
	// RecTick marks that the table's fungus ran on this shard at a
	// logical instant. Recovery skips tick records (checkpoint snapshots
	// already carry exact freshness), but a replication follower running
	// a replayable decay law re-executes them to reproduce the leader's
	// freshness trajectory bit-for-bit — see fungus.Replayable and
	// docs/REPLICATION.md.
	RecTick
)

// Rec is one decoded WAL record.
type Rec struct {
	Type  RecType
	Tuple tuple.Tuple // valid for RecInsert
	ID    tuple.ID    // valid for RecEvict
	Now   uint64      // valid for RecTick: the clock tick the fungus ran at
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only WAL writer. Appends, syncs and truncation are
// internally serialised so the engine's shards can log concurrently;
// callers that need record ORDER guarantees (per-shard ID monotonicity)
// must provide them externally — the engine appends while holding the
// owning shard's lock.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	buf  []byte
	recs uint64 // records appended since the last truncation
}

// Open opens (creating if needed) the log at path for appending. The
// record count of the existing content is rebuilt by a frame scan so
// replication lag (measured in records, not bytes) stays correct across
// a leader restart mid-generation.
func Open(path string) (*Log, error) {
	_, recs, err := scanFrameFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{f: f, w: bufio.NewWriter(f), recs: recs}, nil
}

// AppendInsert logs the insertion of tp. The record is buffered, not
// durable: it reaches the disk at the next Sync/Truncate/Close — or,
// through a ShardedLog, when the group-commit daemon or a strict-mode
// append syncs the shard (see DurabilityLevel).
func (l *Log) AppendInsert(tp tuple.Tuple) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.buf = append(l.buf, byte(RecInsert))
	l.buf = tuple.AppendEncode(l.buf, tp)
	return l.appendFramed(l.buf)
}

// AppendEvict logs the eviction of id (rot or consume). Buffered like
// AppendInsert; the same durability contract applies.
func (l *Log) AppendEvict(id tuple.ID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.buf = append(l.buf, byte(RecEvict))
	l.buf = binary.LittleEndian.AppendUint64(l.buf, uint64(id))
	return l.appendFramed(l.buf)
}

// AppendTick logs a fungus run at logical time now. Tick records are
// what let a follower with a replayable decay law regenerate freshness
// locally instead of trusting approximations; on recovery they are
// skipped.
func (l *Log) AppendTick(now uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.buf = append(l.buf, byte(RecTick))
	l.buf = binary.LittleEndian.AppendUint64(l.buf, now)
	return l.appendFramed(l.buf)
}

func (l *Log) appendFramed(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.recs++
	return nil
}

// Flush pushes buffered records to the OS without fsyncing. The
// replication shipper flushes before reading the log file so every
// acknowledged append is visible to the stream; durability still comes
// only from Sync.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Records returns the number of records appended since the log was last
// truncated (including records still in the write buffer).
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Sync flushes buffered records and fsyncs the file. Safe to call
// concurrently with appends (the log serialises internally): records
// appended before Sync is entered are covered, later ones may be.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flush on close: %w", err)
	}
	return l.f.Close()
}

// Truncate discards all logged records. The caller must have captured
// the state elsewhere (see ShardedLog.Checkpoint).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: truncate flush: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	l.w.Reset(l.f)
	l.recs = 0
	return nil
}

// ReplayBounded reads records from path in order, invoking fn for each,
// and returns the byte offset one past the last fully valid record — the
// truncation point for a torn tail. A missing file replays zero records.
// Replay stops without error at the first torn or corrupt record (the
// crash tail); fn errors abort. A shard log reopened for appending MUST
// be truncated at the returned offset first, or records appended after
// the tear would hide behind it and be lost on the next recovery.
// Sharded recovery uses the per-shard offsets to truncate each log
// independently, so one shard's torn tail never aborts (or shortens) the
// recovery of the others.
func ReplayBounded(path string, fn func(Rec) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > 1<<28 {
			return off, nil // implausible length: corrupt tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return off, nil // corrupt record
		}
		rec, err := decodeRec(payload)
		if err != nil {
			return off, fmt.Errorf("wal: replay: %w", err)
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += int64(len(hdr)) + int64(length)
	}
}

func decodeRec(payload []byte) (Rec, error) {
	switch RecType(payload[0]) {
	case RecInsert:
		tp, _, err := tuple.Decode(payload[1:], nil)
		if err != nil {
			return Rec{}, fmt.Errorf("bad insert record: %w", err)
		}
		return Rec{Type: RecInsert, Tuple: tp}, nil
	case RecEvict:
		if len(payload) != 9 {
			return Rec{}, fmt.Errorf("bad evict record length %d", len(payload))
		}
		return Rec{Type: RecEvict, ID: tuple.ID(binary.LittleEndian.Uint64(payload[1:]))}, nil
	case RecTick:
		if len(payload) != 9 {
			return Rec{}, fmt.Errorf("bad tick record length %d", len(payload))
		}
		return Rec{Type: RecTick, Now: binary.LittleEndian.Uint64(payload[1:])}, nil
	default:
		return Rec{}, fmt.Errorf("unknown record type %d", payload[0])
	}
}

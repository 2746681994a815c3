package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"fungusdb/internal/fanout"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// ManifestFile names the per-shard layout manifest within a table
// directory. Its atomic rename is the checkpoint commit point.
const ManifestFile = "wal.manifest.json"

const manifestVersion = 1

// ErrSingleLogLayout is returned when a table directory holds the
// retired single-log layout (snapshot.db + wal.log, no manifest). This
// version cannot read it; the files are left exactly as they were.
var ErrSingleLogLayout = errors.New("wal: retired single-log layout (snapshot.db + wal.log, no manifest) is not supported")

// Manifest describes a table directory in the per-shard layout: which
// shard count the files were written at, which snapshot generation is
// committed, and each shard's next-ID allocation cursor at that commit.
type Manifest struct {
	Version    int      `json:"version"`
	Shards     int      `json:"shards"`
	Generation uint64   `json:"generation"`
	NextIDs    []uint64 `json:"next_ids,omitempty"`
}

// ShardLogFile returns the log file name of shard i.
func ShardLogFile(i int) string { return fmt.Sprintf("wal.%d.log", i) }

// shardSnapshotFile returns the snapshot file name of shard i at
// generation gen. The generation is part of the name so a crashed
// checkpoint's half-written next generation can never be confused with
// the committed one.
func shardSnapshotFile(gen uint64, i int) string {
	return fmt.Sprintf("snapshot.%d.%d.db", gen, i)
}

func loadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("wal: manifest read: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: manifest decode: %w", err)
	}
	if m.Version != manifestVersion || m.Shards < 1 {
		return Manifest{}, false, fmt.Errorf("wal: manifest version %d / shards %d unsupported", m.Version, m.Shards)
	}
	return m, true, nil
}

// writeManifest commits m atomically: temp file, fsync, rename, then
// directory fsync so the rename itself is durable.
func writeManifest(dir string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wal: manifest encode: %w", err)
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: manifest create: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: manifest close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: manifest rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// cursorsOf snapshots every shard's allocation cursor for the manifest.
func cursorsOf(ss *storage.ShardedStore) []uint64 {
	out := make([]uint64, ss.NumShards())
	for i, id := range ss.ShardNextIDs() {
		out[i] = uint64(id)
	}
	return out
}

// ShardedLog owns one append-only Log per shard plus the layout
// manifest. Appends to different shards share no lock or file — the
// engine appends shard i's records while holding shard i's lock, which
// keeps each log locally ID-ordered with no cross-shard serialisation.
type ShardedLog struct {
	dir  string
	logs []*Log

	mu    sync.Mutex // guards man and trunc (checkpoint vs. stats/ship readers)
	man   Manifest
	trunc *Truncation
}

// Truncation records the flushed byte size of every shard log at the
// moment the last checkpoint truncated them. The replication shipper
// compares a follower's cursors against it when the generation advances
// under a live stream: cursors that had reached the truncation sizes
// roll over to the new generation seamlessly; cursors behind them point
// at records that now exist only inside the snapshot, so the stream
// must re-base.
type Truncation struct {
	FromGen uint64  // the generation whose logs were truncated
	Sizes   []int64 // per-shard flushed size immediately before truncation
}

// OpenSharded opens the per-shard logs of dir for appending, creating
// the manifest (and empty logs) on first open. The directory must
// already be in the per-shard layout at this shard count — callers
// recover (and thereby reshard) via RecoverSharded first.
func OpenSharded(dir string, shards int) (*ShardedLog, error) {
	if shards < 1 {
		shards = 1
	}
	man, ok, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		// First open: commit the manifest before any append so a crash
		// later cannot leave shard logs no recovery would look at.
		man = Manifest{Version: manifestVersion, Shards: shards, Generation: 0}
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	} else if man.Shards != shards {
		return nil, fmt.Errorf("wal: open at %d shards but manifest has %d (recover first)", shards, man.Shards)
	}
	sl := &ShardedLog{dir: dir, logs: make([]*Log, shards), man: man}
	for i := range sl.logs {
		log, err := Open(filepath.Join(dir, ShardLogFile(i)))
		if err != nil {
			sl.Close()
			return nil, err
		}
		sl.logs[i] = log
	}
	return sl, nil
}

// NumShards returns the number of shard logs.
func (sl *ShardedLog) NumShards() int { return len(sl.logs) }

// Manifest returns a copy of the committed manifest.
func (sl *ShardedLog) Manifest() Manifest {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	m := sl.man
	m.NextIDs = append([]uint64(nil), sl.man.NextIDs...)
	return m
}

// AppendInsert logs the insertion of tp to shard i's log. The caller
// holds shard i's lock, which is what keeps the log ID-ordered.
func (sl *ShardedLog) AppendInsert(i int, tp tuple.Tuple) error {
	return sl.logs[i].AppendInsert(tp)
}

// AppendEvict logs the eviction of id to its owning shard i's log.
func (sl *ShardedLog) AppendEvict(i int, id tuple.ID) error {
	return sl.logs[i].AppendEvict(id)
}

// AppendTick logs a fungus run on shard i at logical time now. The
// engine appends it BEFORE the run's eviction records, so a follower
// replaying the tick derives the same rot set itself and the leader's
// trailing evict records degrade into idempotent no-ops.
func (sl *ShardedLog) AppendTick(i int, now uint64) error {
	return sl.logs[i].AppendTick(now)
}

// SyncShard flushes and fsyncs shard i's log alone. The group-commit
// daemon uses it to fsync only the shards dirtied by the pending
// window; it takes no shard lock (Log serialises internally), so it is
// safe to call concurrently with appends to any shard.
func (sl *ShardedLog) SyncShard(i int) error {
	return sl.logs[i].Sync()
}

// Sync flushes and fsyncs every shard log. Every shard is attempted
// even when an earlier one fails; the joined error names each failing
// shard, so no shard failure is silently dropped.
func (sl *ShardedLog) Sync() error {
	errs := make([]error, 0, len(sl.logs))
	for i, l := range sl.logs {
		if l == nil {
			continue
		}
		if err := l.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close flushes and closes every shard log, joining per-shard errors
// like Sync.
func (sl *ShardedLog) Close() error {
	errs := make([]error, 0, len(sl.logs))
	for i, l := range sl.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Checkpoint snapshots every shard of ss concurrently (over at most
// parallelism goroutines) into the next generation, commits it by
// atomically renaming the manifest, then truncates the shard logs and
// removes the previous generation's files. The caller holds every shard
// lock, so the snapshot set is one consistent cut. A crash before the
// manifest rename falls back cleanly to the previous generation (the
// logs are still intact); a crash after it merely leaves stale log
// records, which replay skips.
func (sl *ShardedLog) Checkpoint(ss *storage.ShardedStore, parallelism int) error {
	if ss.NumShards() != len(sl.logs) {
		return fmt.Errorf("wal: checkpoint %d-shard store against %d-shard log", ss.NumShards(), len(sl.logs))
	}
	gen := sl.man.Generation + 1
	if err := fanout.Run(len(sl.logs), parallelism, func(i int) error {
		return WriteSnapshot(filepath.Join(sl.dir, shardSnapshotFile(gen, i)), ss.Shard(i))
	}); err != nil {
		// Uncommitted generation: remove the half-written files.
		for i := range sl.logs {
			os.Remove(filepath.Join(sl.dir, shardSnapshotFile(gen, i)))
		}
		return err
	}
	man := Manifest{Version: manifestVersion, Shards: len(sl.logs), Generation: gen, NextIDs: cursorsOf(ss)}
	if err := writeManifest(sl.dir, man); err != nil {
		return err
	}
	// Capture the flushed log sizes before truncating, then publish the
	// new generation only AFTER the logs are empty. The replication
	// shipper reads Manifest() around every log read: publishing last
	// means a stable generation implies the bytes it read belong to that
	// generation (the caller holds every shard lock, so no append can
	// land between truncation and publication).
	trunc := &Truncation{FromGen: sl.man.Generation, Sizes: make([]int64, len(sl.logs))}
	for i, l := range sl.logs {
		if err := l.Flush(); err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(sl.dir, ShardLogFile(i)))
		if err != nil {
			return fmt.Errorf("wal: checkpoint stat shard %d: %w", i, err)
		}
		trunc.Sizes[i] = fi.Size()
	}
	for _, l := range sl.logs {
		if err := l.Truncate(); err != nil {
			return err
		}
	}
	sl.mu.Lock()
	sl.man = man
	sl.trunc = trunc
	sl.mu.Unlock()
	cleanupStale(sl.dir, man)
	return nil
}

// LastTruncation returns a copy of the most recent checkpoint's
// truncation record, or ok=false if no checkpoint has run since open.
func (sl *ShardedLog) LastTruncation() (Truncation, bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.trunc == nil {
		return Truncation{}, false
	}
	t := Truncation{FromGen: sl.trunc.FromGen, Sizes: append([]int64(nil), sl.trunc.Sizes...)}
	return t, true
}

// cleanupStale removes files the committed manifest does not own:
// snapshots of other generations and shard files at other shard counts.
// Best effort — leftovers are skipped (and re-deleted) by the next
// recovery or checkpoint.
func cleanupStale(dir string, man Manifest) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if gen, shard, ok := parseShardSnapshotName(name); ok {
			if gen != man.Generation || shard >= man.Shards {
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		if shard, ok := parseShardLogName(name); ok && shard >= man.Shards {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func parseShardSnapshotName(name string) (gen uint64, shard int, ok bool) {
	rest, found := strings.CutPrefix(name, "snapshot.")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".db")
	if !found {
		return 0, 0, false
	}
	genStr, shardStr, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false
	}
	gen, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	shard, err = strconv.Atoi(shardStr)
	if err != nil || shard < 0 {
		return 0, 0, false
	}
	return gen, shard, true
}

func parseShardLogName(name string) (shard int, ok bool) {
	rest, found := strings.CutPrefix(name, "wal.")
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".log")
	if !found {
		return 0, false
	}
	shard, err := strconv.Atoi(rest)
	if err != nil || shard < 0 {
		return 0, false
	}
	return shard, true
}

// RecoverSharded rebuilds ss (which must be empty) from dir and leaves
// dir in the canonical per-shard layout at ss's shard count:
//
//   - Per-shard layout at a matching shard count: every shard loads its
//     own snapshot and replays its own log, all shards in parallel over
//     at most parallelism goroutines. Each log is locally ID-ordered, so
//     records apply directly — no buffering, no sorting. A torn tail in
//     one shard's log truncates that log at the tear and never aborts
//     (or shortens) the recovery of the others.
//   - Per-shard layout at a different shard count: the same matched
//     recovery rebuilds the old shards in a temporary store, every live
//     tuple is restored in global ID order into ss (IDs decide
//     ownership, not file layout), and the directory is rewritten at the
//     new shard count.
//
// A fresh directory recovers nothing and is left untouched (OpenSharded
// commits the first manifest). A directory in the retired single-log
// layout fails with ErrSingleLogLayout and is left untouched too.
func RecoverSharded(dir string, ss *storage.ShardedStore, parallelism int) error {
	man, ok, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if !ok {
		for _, name := range []string{"snapshot.db", "wal.log"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return fmt.Errorf("%w: %s", ErrSingleLogLayout, dir)
			}
		}
		return nil // fresh directory
	}
	if man.Shards == ss.NumShards() {
		return recoverMatched(dir, man, ss, parallelism)
	}
	if err := recoverReshard(dir, man, ss, parallelism); err != nil {
		return err
	}
	return rewriteLayout(dir, ss, man.Generation+1, parallelism)
}

// recoverMatched is the fast path: shard counts agree, so shard i's
// files rebuild shard i's store with no cross-shard traffic, and the
// shards recover in parallel.
func recoverMatched(dir string, man Manifest, ss *storage.ShardedStore, parallelism int) error {
	n := ss.NumShards()
	err := fanout.Run(n, parallelism, func(i int) error {
		sh := ss.Shard(i)
		hdrNext, err := loadSnapshot(filepath.Join(dir, shardSnapshotFile(man.Generation, i)), sh)
		if err != nil {
			return fmt.Errorf("wal: recover shard %d: %w", i, err)
		}
		logPath := filepath.Join(dir, ShardLogFile(i))
		valid, err := ReplayBounded(logPath, func(rec Rec) error {
			switch rec.Type {
			case RecInsert:
				// Behind the shard's cursor means already in the shard's
				// snapshot (a checkpoint crashed between manifest commit
				// and log truncation): skip, not fail.
				if err := sh.Restore(rec.Tuple); err != nil && !errors.Is(err, storage.ErrStaleRestore) {
					return err
				}
				return nil
			case RecEvict:
				if err := sh.Evict(rec.ID); err != nil && !errors.Is(err, storage.ErrNotFound) {
					return err
				}
				return nil
			case RecTick:
				// Crash recovery takes freshness from the snapshot, not
				// from re-running decay; ticks are for live followers.
				return nil
			}
			return fmt.Errorf("unknown record %d", rec.Type)
		})
		if err != nil {
			return fmt.Errorf("wal: recover shard %d: %w", i, err)
		}
		// Truncate this shard's torn tail (if any) before the log is
		// reopened for appending — independently of every other shard.
		if fi, statErr := os.Stat(logPath); statErr == nil && fi.Size() > valid {
			if err := os.Truncate(logPath, valid); err != nil {
				return fmt.Errorf("wal: truncate torn tail of shard %d: %w", i, err)
			}
		}
		// The per-shard snapshot header holds this shard's exact cursor
		// (no global round-up), applied only after replay so logged
		// post-checkpoint inserts never look stale.
		sh.AdvanceNextID(hdrNext)
		if i < len(man.NextIDs) {
			sh.AdvanceNextID(tuple.ID(man.NextIDs[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	ss.FinishRestore()
	// A checkpoint that crashed before its manifest commit may have left
	// next-generation snapshot files behind; they are uncommitted.
	cleanupStale(dir, man)
	return nil
}

// recoverReshard re-routes a per-shard directory written at a different
// shard count. The old shards recover at their own count through
// recoverMatched into a temporary store — the one replay loop, with its
// per-shard stale-record and torn-tail rules. Their live IDs are then
// collected and sorted, and every tuple is restored into ss in that
// global ID order, which routes each to its new owner by residue.
func recoverReshard(dir string, man Manifest, ss *storage.ShardedStore, parallelism int) error {
	old := storage.NewSharded(ss.Schema(), man.Shards)
	if err := recoverMatched(dir, man, old, parallelism); err != nil {
		return err
	}
	ids := make([]tuple.ID, 0, old.Len())
	for i := 0; i < old.NumShards(); i++ {
		old.Shard(i).ScanSystem(func(sids []tuple.ID, _ []int64, _ []float64, live []uint64) bool {
			tuple.EachSet(live, func(j int) bool {
				ids = append(ids, sids[j])
				return true
			})
			return true
		})
	}
	slices.Sort(ids)
	for _, id := range ids {
		tp, err := old.Shard(old.ShardOf(id)).Get(id)
		if err == nil {
			err = ss.Restore(tp)
		}
		if err != nil {
			return fmt.Errorf("wal: reshard: %w", err)
		}
	}
	ss.FinishRestore()
	// Old cursors round up into the new residue classes, so only the
	// global high-water mark carries over. It is taken from the recovered
	// cursors, not from man.NextIDs alone: those predate the log tail,
	// whose consumed rows left no live tuple behind to restore.
	ss.AdvanceNextID(old.NextID())
	return nil
}

// rewriteLayout writes dir's canonical per-shard layout for ss at the
// given generation — per-shard snapshots, then the manifest commit —
// and removes every superseded file, including all old shard logs
// (their records now live in the new snapshots, and their residue
// classes may not match the new shard count). Used by resharding; a
// crash before the manifest commit leaves the old layout fully intact.
func rewriteLayout(dir string, ss *storage.ShardedStore, gen uint64, parallelism int) error {
	n := ss.NumShards()
	if err := fanout.Run(n, parallelism, func(i int) error {
		return WriteSnapshot(filepath.Join(dir, shardSnapshotFile(gen, i)), ss.Shard(i))
	}); err != nil {
		return err
	}
	man := Manifest{Version: manifestVersion, Shards: n, Generation: gen, NextIDs: cursorsOf(ss)}
	if err := writeManifest(dir, man); err != nil {
		return err
	}
	// Every old log is superseded by the generation just committed.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if _, ok := parseShardLogName(e.Name()); ok {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	cleanupStale(dir, man)
	return nil
}

// Replica apply surface: how a read-only follower table ingests the
// leader's shipped WAL.
//
// The design is crash recovery's. Shipped bytes are raw WAL frames,
// decoded by the same wal code path recovery uses and applied by the
// same wal.Applier: inserts through storage.Restore (gap-tolerant,
// strictly increasing, idempotent under redelivery via ErrStaleRestore)
// and evictions through Evict (idempotent via ErrNotFound). The one
// replication-only record is the tick: a follower whose decay law is
// replayable (see fungus.Replayable) re-executes each logged fungus run
// against its own extent, reproducing the leader's freshness trajectory
// exactly — the leader's trailing rot-evict records then find nothing
// to evict and degrade into no-ops. Non-replayable laws skip tick
// replay and rely on those evict records instead: membership stays
// exact, freshness is approximate.
package core

import (
	"errors"
	"fmt"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// ErrReadOnly rejects every local mutation of a replica table. The
// server maps it to the stable "read_only" error code.
var ErrReadOnly = errors.New("table is read-only (replication follower)")

func (t *Table) errReadOnly() error {
	return fmt.Errorf("core: table %q: %w", t.name, ErrReadOnly)
}

// ReadOnly reports whether the table is a replication replica.
func (t *Table) ReadOnly() bool { return t.cfg.ReadOnly }

// ShipLog exposes the table's sharded WAL to the replication leader
// endpoint, or nil for in-memory tables (nothing to ship). The shipper
// reads log files lock-free; a concurrent Close simply makes its reads
// fail and the stream end.
func (t *Table) ShipLog() *wal.ShardedLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log
}

// ApplyStats counts what one ApplyShipped call did.
type ApplyStats = wal.ApplyStats

// ApplyShipped applies a batch of shipped WAL frames (whole, valid
// frames — the shape the wire delivers) to shard i of a replica table
// through the same wal.Applier crash recovery uses, and holds shard i's
// write lock for the whole batch, so readers see each batch atomically.
func (t *Table) ApplyShipped(i int, frames []byte) (ApplyStats, error) {
	if !t.cfg.ReadOnly {
		return ApplyStats{}, fmt.Errorf("core: table %q is not a replica", t.name)
	}
	if t.closed.Load() {
		return ApplyStats{}, t.errClosed()
	}
	t.shardMu[i].Lock()
	a := wal.Applier{Store: t.store.Shard(i)}
	// A law that is not replayable leaves Tick nil: the leader's evict
	// records carry its rot.
	if t.replayTicks {
		a.Tick = func(now uint64) (int, error) {
			buf := t.fngs[i].Tick(clock.Tick(now), a.Store, t.rngs[i], t.rotBufs[i][:0])
			t.rotBufs[i] = buf
			// A replica has no log: the walk only evicts and forgets.
			if err := t.evictLocked(i, buf); err != nil {
				return 0, err
			}
			return len(buf), nil
		}
	}
	err := wal.DecodeFrames(frames, a.Apply)
	t.shardMu[i].Unlock()
	st := a.Stats
	t.mu.Lock()
	t.ctrs.Inserted += uint64(st.Inserts)
	t.ctrs.Consumed += uint64(st.Evicts)
	t.ctrs.Rotted += uint64(st.Rotted)
	t.ctrs.Ticks += uint64(st.Ticks)
	t.mu.Unlock()
	return st, err
}

// ResetReplica discards a replica's entire extent and rebuilds its
// fungus instances and RNG streams exactly as table creation did, so a
// snapshot re-base starts from the same initial conditions as a fresh
// join. Counters survive (they are monitoring state, not data).
func (t *Table) ResetReplica() error {
	if !t.cfg.ReadOnly {
		return fmt.Errorf("core: table %q is not a replica", t.name)
	}
	if t.closed.Load() {
		return t.errClosed()
	}
	t.lockAll()
	defer t.unlockAll()
	t.buildShards()
	return nil
}

// ApplyShardSnapshot restores one shard of a shipped snapshot into a
// just-reset replica and advances that shard's allocation cursor to
// nextID (the leader manifest's per-shard cursor, so IDs evicted before
// the snapshot are never seen as gaps). Call FinishRebase after the
// last shard.
func (t *Table) ApplyShardSnapshot(i int, blob []byte, nextID uint64) error {
	if !t.cfg.ReadOnly {
		return fmt.Errorf("core: table %q is not a replica", t.name)
	}
	t.shardMu[i].Lock()
	defer t.shardMu[i].Unlock()
	sh := t.store.Shard(i)
	if len(blob) > 0 {
		hdrNext, err := wal.DecodeSnapshot(blob, sh)
		if err != nil {
			return fmt.Errorf("core: rebase shard %d: %w", i, err)
		}
		sh.AdvanceNextID(hdrNext)
	}
	sh.AdvanceNextID(tuple.ID(nextID))
	return nil
}

// FinishRebase completes a snapshot re-base (the FinishRestore that
// recovery also ends with): sparse tail segments seal, and the shard
// rotation cursor re-aims.
func (t *Table) FinishRebase() {
	t.lockAll()
	defer t.unlockAll()
	t.store.FinishRestore()
}

// DumpShardSnapshot writes shard i's current state in the snapshot file
// format under the shard's read lock. The convergence harness uses it
// to compare leader and follower byte-for-byte; it is also a handy
// debugging export.
func (t *Table) DumpShardSnapshot(i int, path string) error {
	t.shardMu[i].RLock()
	defer t.shardMu[i].RUnlock()
	return wal.WriteSnapshot(path, t.store.Shard(i))
}

package storage

import (
	"fmt"
	"sync/atomic"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// ShardedStore horizontally partitions one relation extent across N
// independent Stores. Shard s owns the ID residue class
// {s, s+N, s+2N, ...} (stride N, offset s), so every global tuple ID
// maps to exactly one shard via id mod N, and the union of the shards
// is a dense global ID axis. Inserts are dealt round-robin, which keeps
// single-threaded insertion producing the same ID sequence 0, 1, 2, ...
// as an unsharded store; a one-shard ShardedStore is bit-for-bit
// equivalent to a plain Store.
//
// Tuples are read shard by shard: through Shard(i), whose Store offers
// the batch walks and the by-ID calls, or through ScanShardBatches and
// ScanShardRanked. Nothing merges the shards row by row; a reader that
// needs global ID order sorts or merges what the shards hand it.
//
// Like Store, a ShardedStore is not safe for concurrent use by itself —
// the engine layer (internal/core) holds one lock per shard and fans
// work out. The exception is NextShard, whose round-robin cursor is
// atomic so concurrent inserters can claim shards without a global
// lock. Methods that take a shard index (Shard, InsertShard,
// ScanShardBatches, ScanShardRanked) touch only that shard and may run
// concurrently with operations on other shards; whole-extent methods
// (Len, Stats, Compact, ...) touch every shard and need all shard locks
// held.
type ShardedStore struct {
	schema *tuple.Schema
	shards []*Store
	rr     atomic.Uint64 // round-robin insert cursor
}

// NewSharded creates an empty extent split into the given number of
// shards (values below 1 are clamped to 1). Options apply to every
// shard; WithStride must not be passed (the sharding owns the axis).
func NewSharded(schema *tuple.Schema, shards int, opts ...Option) *ShardedStore {
	if shards < 1 {
		shards = 1
	}
	ss := &ShardedStore{schema: schema, shards: make([]*Store, shards)}
	for i := range ss.shards {
		shardOpts := make([]Option, 0, len(opts)+1)
		shardOpts = append(shardOpts, opts...)
		shardOpts = append(shardOpts, WithStride(shards, i))
		ss.shards[i] = New(schema, shardOpts...)
	}
	return ss
}

// Schema returns the relation schema.
func (ss *ShardedStore) Schema() *tuple.Schema { return ss.schema }

// NumShards returns the shard count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Shard returns shard i. Each shard is a full Store and implements the
// fungus.Extent contract over its slice of the time axis.
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// ShardOf returns the index of the shard owning id.
func (ss *ShardedStore) ShardOf(id tuple.ID) int {
	return int(uint64(id) % uint64(len(ss.shards)))
}

// NextShard atomically advances the round-robin cursor and returns the
// shard the next insert should go to. Safe for concurrent use.
func (ss *ShardedStore) NextShard() int {
	return int((ss.rr.Add(1) - 1) % uint64(len(ss.shards)))
}

// Insert routes one insert round-robin. Callers that need per-shard
// locking call NextShard and InsertShard themselves.
func (ss *ShardedStore) Insert(now clock.Tick, attrs []tuple.Value) (tuple.Tuple, error) {
	return ss.shards[ss.NextShard()].Insert(now, attrs)
}

// InsertShard inserts into shard i, which the caller has claimed via
// NextShard (and locked, under concurrency).
//
//fungusvet:requires shardlock
func (ss *ShardedStore) InsertShard(i int, now clock.Tick, attrs []tuple.Value) (tuple.Tuple, error) {
	return ss.shards[i].Insert(now, attrs)
}

// Len returns the number of live tuples across all shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Len()
	}
	return n
}

// Bytes returns the approximate live extent size across all shards.
func (ss *ShardedStore) Bytes() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Bytes()
	}
	return n
}

// NextID returns one past the largest ID any shard has allocated: an
// upper bound on every assigned ID, used by snapshots.
func (ss *ShardedStore) NextID() tuple.ID {
	var max tuple.ID
	for _, sh := range ss.shards {
		if sh.NextID() > max {
			max = sh.NextID()
		}
	}
	return max
}

// ShardNextIDs returns each shard's allocation cursor (the ID its next
// insert will receive), indexed by shard. The per-shard WAL manifest
// records these so recovery can restore every cursor exactly instead of
// rounding all of them up from the global high-water mark.
func (ss *ShardedStore) ShardNextIDs() []tuple.ID {
	out := make([]tuple.ID, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = sh.NextID()
	}
	return out
}

// Stats aggregates the per-shard counters.
func (ss *ShardedStore) Stats() Stats {
	var out Stats
	for _, sh := range ss.shards {
		st := sh.Stats()
		out.Live += st.Live
		out.Bytes += st.Bytes
		out.Inserted += st.Inserted
		out.Evicted += st.Evicted
		out.SegsTotal += st.SegsTotal
		out.SegsLive += st.SegsLive
		out.SegsDropped += st.SegsDropped
		out.SegsPruned += st.SegsPruned
		out.TuplesSkipped += st.TuplesSkipped
		out.BatchesScanned += st.BatchesScanned
		out.RowsVectorized += st.RowsVectorized
	}
	return out
}

// ScanShardBatches scans only shard i as columnar batches (see
// Store.ScanBatches), reporting what was pruned.
//
//fungusvet:requires shardlock
func (ss *ShardedStore) ScanShardBatches(i int, skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) PruneStats {
	return ss.shards[i].ScanBatches(skip, fn)
}

// ScanShardRanked scans only shard i as columnar batches, its segments
// best first (see Store.ScanRanked), reporting what was pruned.
//
//fungusvet:requires shardlock
func (ss *ShardedStore) ScanShardRanked(i int, score func(*ZoneMap) (float64, bool), reverse bool, skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) PruneStats {
	return ss.shards[i].ScanRanked(score, reverse, skip, fn)
}

// AuditZones runs Store.AuditZones on every shard, returning the first
// violation.
//
//fungusvet:requires shardlock
func (ss *ShardedStore) AuditZones() error {
	for i, sh := range ss.shards {
		if err := sh.AuditZones(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Compact reclaims tombstone space in every shard, returning the total
// number of slots reclaimed.
func (ss *ShardedStore) Compact() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Compact()
	}
	return n
}

// Restore appends a tuple during recovery, routing by ID residue.
// Global IDs must be strictly increasing across calls (resharding
// recovery restores in sorted ID order), which keeps every shard's
// sequence increasing too.
func (ss *ShardedStore) Restore(tp tuple.Tuple) error {
	return ss.shards[ss.ShardOf(tp.ID)].Restore(tp)
}

// FinishRestore completes recovery on every shard and re-aims the
// round-robin cursor at the shard that is furthest behind, so the
// post-recovery insert rotation continues where the pre-crash one left
// off.
func (ss *ShardedStore) FinishRestore() {
	for _, sh := range ss.shards {
		sh.FinishRestore()
	}
	ss.syncCursor()
}

// AdvanceNextID raises every shard's allocation point to at least id
// (each shard rounds up into its own residue class, so a few IDs may be
// skipped — IDs need not be contiguous, only unique and increasing).
func (ss *ShardedStore) AdvanceNextID(id tuple.ID) {
	for _, sh := range ss.shards {
		sh.AdvanceNextID(id)
	}
	ss.syncCursor()
}

// syncCursor points the round-robin cursor at the shard with the
// smallest next ID (ties to the lowest index): under round-robin
// allocation that is exactly the next shard in rotation.
func (ss *ShardedStore) syncCursor() {
	best := 0
	for i, sh := range ss.shards {
		if sh.NextID() < ss.shards[best].NextID() {
			best = i
		}
	}
	ss.rr.Store(uint64(best))
}

package storage

import (
	"slices"
	"testing"

	"fungusdb/internal/tuple"
)

func shardSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.ParseSchema("v INT")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func row(v int64) []tuple.Value { return []tuple.Value{tuple.Int(v)} }

// shardedIDs lists every shard's live IDs, sorted into global order.
func shardedIDs(ss *ShardedStore) []tuple.ID {
	var ids []tuple.ID
	for i := 0; i < ss.NumShards(); i++ {
		ids = append(ids, liveIDs(ss.Shard(i))...)
	}
	slices.Sort(ids)
	return ids
}

// Single-threaded round-robin insertion must produce the dense global
// sequence 0, 1, 2, ... regardless of shard count — the sharded axis is
// indistinguishable from the unsharded one.
func TestShardedIDSequenceMatchesUnsharded(t *testing.T) {
	schema := shardSchema(t)
	for _, shards := range []int{1, 2, 3, 4, 7} {
		ss := NewSharded(schema, shards, WithSegmentSize(8))
		const n = 100
		for i := 0; i < n; i++ {
			tp, err := ss.Insert(1, row(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if tp.ID != tuple.ID(i) {
				t.Fatalf("shards=%d: insert %d got ID %d", shards, i, tp.ID)
			}
		}
		if ss.Len() != n {
			t.Fatalf("shards=%d: Len=%d", shards, ss.Len())
		}
	}
}

func TestShardedRoutingAndEvict(t *testing.T) {
	schema := shardSchema(t)
	ss := NewSharded(schema, 4)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := ss.Insert(1, row(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		id := tuple.ID(i)
		if ss.ShardOf(id) != i%4 {
			t.Fatalf("ShardOf(%d) = %d", id, ss.ShardOf(id))
		}
		tp, err := ss.Shard(ss.ShardOf(id)).Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if tp.Attrs[0].AsInt() != int64(i) {
			t.Fatalf("Get(%d) value %v", id, tp.Attrs[0])
		}
	}
	// Evict every tuple of shard 1's residue class.
	for i := 1; i < n; i += 4 {
		if err := ss.Shard(i % 4).Evict(tuple.ID(i)); err != nil {
			t.Fatalf("Evict(%d): %v", i, err)
		}
	}
	if ss.Len() != n-n/4 {
		t.Fatalf("Len after evictions = %d", ss.Len())
	}
	if ss.Shard(1).Len() != 0 {
		t.Fatalf("shard 1 should be empty, Len=%d", ss.Shard(1).Len())
	}
}

// A shard store's neighbour queries accept IDs outside its residue
// class (EGI's age-biased seeding aims at arbitrary global positions).
func TestStrideStoreUnalignedNeighbours(t *testing.T) {
	schema := shardSchema(t)
	s := New(schema, WithStride(4, 1), WithSegmentSize(4))
	// IDs 1, 5, 9, ..., 37.
	for i := 0; i < 10; i++ {
		tp, err := s.Insert(1, row(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if tp.ID != tuple.ID(4*i+1) {
			t.Fatalf("insert %d got ID %d", i, tp.ID)
		}
	}
	if got, ok := s.NextLive(0); !ok || got != 1 {
		t.Fatalf("NextLive(0) = %d, %v", got, ok)
	}
	if got, ok := s.NextLive(1); !ok || got != 5 {
		t.Fatalf("NextLive(1) = %d, %v", got, ok)
	}
	if got, ok := s.NextLive(7); !ok || got != 9 {
		t.Fatalf("NextLive(7) = %d, %v", got, ok)
	}
	if got, ok := s.PrevLive(7); !ok || got != 5 {
		t.Fatalf("PrevLive(7) = %d, %v", got, ok)
	}
	if _, ok := s.PrevLive(1); ok {
		t.Fatal("PrevLive(1) should find nothing")
	}
	if got, ok := s.PrevLive(1000); !ok || got != 37 {
		t.Fatalf("PrevLive(1000) = %d, %v", got, ok)
	}
	if _, ok := s.NextLive(37); ok {
		t.Fatal("NextLive(37) should find nothing")
	}
	// Unaligned lookups miss without panicking.
	if isLive(s, 2) {
		t.Fatal("Get(2) found a tuple on residue class 1 mod 4")
	}
	if err := s.Evict(2); err == nil {
		t.Fatal("Evict(2) should fail")
	}
}

// Restoring a snapshot written by an N-sharded extent into an M-sharded
// one must work: IDs decide ownership, not file layout.
func TestShardedRestoreAcrossShardCounts(t *testing.T) {
	schema := shardSchema(t)
	src := NewSharded(schema, 3)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := src.Insert(7, row(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Punch holes so the restore stream is sparse.
	for _, id := range []tuple.ID{4, 5, 11, 29} {
		if err := src.Shard(src.ShardOf(id)).Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	want := shardedIDs(src)
	for _, shards := range []int{1, 2, 5} {
		dst := NewSharded(schema, shards)
		for _, id := range want {
			tp, err := src.Shard(src.ShardOf(id)).Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(tp); err != nil {
				t.Fatalf("shards=%d: restore %d: %v", shards, id, err)
			}
		}
		dst.FinishRestore()
		dst.AdvanceNextID(src.NextID())
		if dst.Len() != src.Len() {
			t.Fatalf("shards=%d: Len=%d want %d", shards, dst.Len(), src.Len())
		}
		got := shardedIDs(dst)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: scan mismatch", shards)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: scan[%d] = %d want %d", shards, i, got[i], want[i])
			}
		}
		// Fresh inserts never collide with restored IDs.
		seen := map[tuple.ID]bool{}
		for _, id := range got {
			seen[id] = true
		}
		for i := 0; i < 10; i++ {
			tp, err := dst.Insert(8, row(99))
			if err != nil {
				t.Fatal(err)
			}
			if seen[tp.ID] {
				t.Fatalf("shards=%d: reused ID %d", shards, tp.ID)
			}
			seen[tp.ID] = true
		}
	}
}

// ShardNextIDs exposes each shard's allocation cursor exactly — the
// per-shard WAL manifest records these at checkpoint time.
func TestShardCursorExposure(t *testing.T) {
	schema := shardSchema(t)
	ss := NewSharded(schema, 4)
	for i := 0; i < 10; i++ { // IDs 0..9
		if _, err := ss.Insert(1, row(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Shards 0,1 have taken 3 inserts (cursors 12, 13); shards 2,3 two
	// (cursors 10, 11).
	want := []tuple.ID{12, 13, 10, 11}
	got := ss.ShardNextIDs()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ShardNextIDs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Raising one shard's cursor directly re-aims the rotation once
	// FinishRestore syncs it — the recovery flow.
	ss.Shard(2).AdvanceNextID(15)
	if next := ss.ShardNextIDs()[2]; next != 18 {
		t.Fatalf("advanced shard 2 cursor = %d, want 18 (15 rounded into class 2 mod 4)", next)
	}
	ss.FinishRestore()
	tp, err := ss.Insert(1, row(99))
	if err != nil {
		t.Fatal(err)
	}
	if tp.ID != 11 {
		t.Fatalf("post-advance insert got ID %d, want 11 (shard 3 is furthest behind)", tp.ID)
	}
}

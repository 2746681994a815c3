package storage

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fungusdb/internal/tuple"
)

func intSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	return tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt})
}

func fill(t *testing.T, s *Store, n int) []tuple.Tuple {
	t.Helper()
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		tp, err := s.Insert(1, []tuple.Value{tuple.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
	return out
}

// liveIDs lists the live tuple IDs in insertion order, read off the
// system columns.
func liveIDs(s *Store) []tuple.ID {
	var ids []tuple.ID
	s.ScanSystem(func(sids []tuple.ID, _ []int64, _ []float64, live []uint64) bool {
		tuple.EachSet(live, func(j int) bool {
			ids = append(ids, sids[j])
			return true
		})
		return true
	})
	return ids
}

// isLive reports whether id is found by ID.
func isLive(s *Store, id tuple.ID) bool {
	_, err := s.Get(id)
	return err == nil
}

func TestInsertAssignsDenseIDs(t *testing.T) {
	s := New(intSchema(t))
	tps := fill(t, s, 10)
	for i, tp := range tps {
		if tp.ID != tuple.ID(i) {
			t.Errorf("tuple %d has ID %d", i, tp.ID)
		}
		if tp.F != tuple.Full {
			t.Errorf("tuple %d freshness %v, want 1.0", i, tp.F)
		}
	}
	if s.Len() != 10 {
		t.Errorf("Len() = %d, want 10", s.Len())
	}
	if s.NextID() != 10 {
		t.Errorf("NextID() = %d, want 10", s.NextID())
	}
}

func TestInsertRejectsBadRow(t *testing.T) {
	s := New(intSchema(t))
	if _, err := s.Insert(1, []tuple.Value{tuple.String_("x")}); err == nil {
		t.Error("schema-violating insert accepted")
	}
	if s.Len() != 0 {
		t.Error("failed insert changed Len")
	}
}

func TestGetAndEvict(t *testing.T) {
	s := New(intSchema(t))
	fill(t, s, 5)
	got, err := s.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs[0].AsInt() != 3 {
		t.Errorf("Get(3) = %v", got)
	}
	if err := s.Evict(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(3); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after evict: %v", err)
	}
	if err := s.Evict(3); !errors.Is(err, ErrNotFound) {
		t.Errorf("double evict: %v", err)
	}
	if err := s.Evict(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("evict never-inserted: %v", err)
	}
	if s.Len() != 4 {
		t.Errorf("Len() = %d, want 4", s.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	s := New(intSchema(t))
	if s.Bytes() != 0 {
		t.Fatal("empty store has bytes")
	}
	tps := fill(t, s, 3)
	want := 0
	for _, tp := range tps {
		want += tp.Size()
	}
	if s.Bytes() != want {
		t.Errorf("Bytes() = %d, want %d", s.Bytes(), want)
	}
	s.Evict(0)
	want -= tps[0].Size()
	if s.Bytes() != want {
		t.Errorf("after evict Bytes() = %d, want %d", s.Bytes(), want)
	}
}

func TestUpdateFreshness(t *testing.T) {
	s := New(intSchema(t))
	fill(t, s, 2)
	err := s.Update(1, func(tp *tuple.Tuple) {
		tp.F = 0.5
		tp.Infected = true
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(1)
	if got.F != 0.5 || !got.Infected {
		t.Errorf("update not applied: %v", got)
	}
	if err := s.Update(77, func(*tuple.Tuple) {}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(4))
	fill(t, s, 10)
	s.Evict(2)
	s.Evict(7)
	var ids []tuple.ID
	s.ScanBatches(nil, func(b *tuple.Batch) bool {
		tuple.EachSet(b.Live, func(j int) bool {
			ids = append(ids, b.IDs[j])
			return true
		})
		return true
	})
	want := []tuple.ID{0, 1, 3, 4, 5, 6, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("scan ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("scan ids = %v, want %v", ids, want)
		}
	}
	count := 0
	s.ScanBatches(nil, func(*tuple.Batch) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop scanned %d batches, want 2", count)
	}
}

// TestScanAxisDirections: both directions visit exactly the live rows a
// walk by ID finds; forward batches ascend, reverse batches descend (rows
// inside a batch ascending either way), dead batches are elided, and a
// skipped segment is skipped whole in either direction.
func TestScanAxisDirections(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(2500)) // 1024 + 1024 + 452 rows per segment
	fill(t, s, 6000)
	for id := tuple.ID(0); id < 6000; id++ {
		if id%3 == 1 || (id >= 1024 && id < 2048) { // holes, and one whole batch
			if err := s.Evict(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want []tuple.ID
	for id, ok := s.FirstLive(); ok; id, ok = s.NextLive(id) {
		want = append(want, id)
	}
	for _, reverse := range []bool{false, true} {
		var firsts, got []tuple.ID
		s.ScanAxis(reverse, nil, func(b *tuple.Batch) bool {
			firsts = append(firsts, b.IDs[0])
			tuple.EachSet(b.Live, func(j int) bool {
				got = append(got, b.IDs[j])
				return true
			})
			return true
		})
		if len(firsts) != 6 { // 7 batches, one of them dead
			t.Errorf("reverse=%v: %d batches, want 6", reverse, len(firsts))
		}
		for i := 1; i < len(firsts); i++ {
			if (firsts[i] > firsts[i-1]) == reverse {
				t.Errorf("reverse=%v: batch order %v", reverse, firsts)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("reverse=%v: %d rows, by ID %d", reverse, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reverse=%v: row %d is ID %d, by ID %d", reverse, i, got[i], want[i])
			}
		}
		// Skip the middle segment.
		rows := 0
		ps := s.ScanAxis(reverse, func(z *ZoneMap) bool {
			lo, _, _ := z.IDBounds()
			return lo.AsInt() == 2500
		}, func(b *tuple.Batch) bool {
			rows += b.Alive
			return true
		})
		if ps.Segments != 1 || rows+ps.Tuples != len(want) {
			t.Errorf("reverse=%v: pruned %+v, visited %d rows of %d", reverse, ps, rows, len(want))
		}
	}
}

func TestSegmentDropOnFullEviction(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(4))
	fill(t, s, 12)
	// Kill all of segment 1 (IDs 4..7).
	for id := tuple.ID(4); id < 8; id++ {
		if err := s.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SegsDropped != 1 {
		t.Errorf("SegsDropped = %d, want 1", st.SegsDropped)
	}
	if st.SegsLive != 2 {
		t.Errorf("SegsLive = %d, want 2", st.SegsLive)
	}
	// Neighbour queries must hop the dropped segment.
	if next, ok := s.NextLive(3); !ok || next != 8 {
		t.Errorf("NextLive(3) = %d, %v; want 8, true", next, ok)
	}
	if prev, ok := s.PrevLive(8); !ok || prev != 3 {
		t.Errorf("PrevLive(8) = %d, %v; want 3, true", prev, ok)
	}
}

func TestPrevNextLiveBasics(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(4))
	fill(t, s, 10)
	if _, ok := s.PrevLive(0); ok {
		t.Error("PrevLive(0) should not exist")
	}
	if next, ok := s.NextLive(9); ok {
		t.Errorf("NextLive(last) = %d, should not exist", next)
	}
	if prev, ok := s.PrevLive(5); !ok || prev != 4 {
		t.Errorf("PrevLive(5) = %d, %v", prev, ok)
	}
	if next, ok := s.NextLive(5); !ok || next != 6 {
		t.Errorf("NextLive(5) = %d, %v", next, ok)
	}
	s.Evict(4)
	s.Evict(6)
	if prev, ok := s.PrevLive(5); !ok || prev != 3 {
		t.Errorf("PrevLive(5) after evicts = %d, %v", prev, ok)
	}
	if next, ok := s.NextLive(5); !ok || next != 7 {
		t.Errorf("NextLive(5) after evicts = %d, %v", next, ok)
	}
	// Neighbour search from an ID beyond the extent.
	if prev, ok := s.PrevLive(100); !ok || prev != 9 {
		t.Errorf("PrevLive(100) = %d, %v; want 9", prev, ok)
	}
	if _, ok := s.NextLive(100); ok {
		t.Error("NextLive(100) should not exist")
	}
}

func TestPrevNextAfterEverythingEvicted(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(2))
	fill(t, s, 6)
	for id := tuple.ID(0); id < 6; id++ {
		s.Evict(id)
	}
	if _, ok := s.PrevLive(5); ok {
		t.Error("PrevLive on empty extent")
	}
	if _, ok := s.NextLive(0); ok {
		t.Error("NextLive on empty extent")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestCompactPreservesScanAndLookups(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(4))
	fill(t, s, 12)
	for _, id := range []tuple.ID{0, 2, 5, 6, 7, 9} {
		s.Evict(id)
	}
	before := liveIDs(s)
	reclaimed := s.Compact()
	if reclaimed == 0 {
		t.Error("Compact reclaimed nothing")
	}
	after := liveIDs(s)
	if len(before) != len(after) {
		t.Fatalf("scan changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("scan changed: %v -> %v", before, after)
		}
	}
	// Lookups still work in sparse segments.
	for _, id := range after {
		if !isLive(s, id) {
			t.Errorf("Get(%d) misses after compact", id)
		}
	}
	for _, id := range []tuple.ID{0, 2, 5} {
		if isLive(s, id) {
			t.Errorf("evicted %d visible after compact", id)
		}
	}
	// Neighbours across a compacted (sparse) segment.
	if next, ok := s.NextLive(4); !ok || next != 8 {
		t.Errorf("NextLive(4) = %d, %v; want 8", next, ok)
	}
	if prev, ok := s.PrevLive(8); !ok || prev != 4 {
		t.Errorf("PrevLive(8) = %d, %v; want 4", prev, ok)
	}
}

func TestEvictInSparseSegment(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(4))
	fill(t, s, 8)
	s.Evict(1)
	s.Compact()
	if err := s.Evict(2); err != nil {
		t.Fatalf("evict in sparse segment: %v", err)
	}
	if isLive(s, 2) {
		t.Error("tuple 2 still visible")
	}
	// Evicting the rest of segment 0 must drop it.
	s.Evict(0)
	s.Evict(3)
	if st := s.Stats(); st.SegsDropped != 1 {
		t.Errorf("SegsDropped = %d, want 1", st.SegsDropped)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(intSchema(t), WithSegmentSize(2))
	fill(t, s, 5)
	s.Evict(0)
	s.Evict(1)
	st := s.Stats()
	if st.Inserted != 5 || st.Evicted != 2 || st.Live != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.SegsTotal != 3 {
		t.Errorf("SegsTotal = %d, want 3", st.SegsTotal)
	}
}

func TestWithSegmentSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithSegmentSize(0) did not panic")
		}
	}()
	WithSegmentSize(0)
}

// Property: after an arbitrary interleaving of inserts and evicts, Len
// equals inserted-evicted, the system columns hold exactly the live IDs
// in order,
// and PrevLive/NextLive agree with the scan sequence.
func TestQuickStoreInvariants(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt}), WithSegmentSize(3))
		alive := map[tuple.ID]bool{}
		for _, ins := range ops {
			if ins || len(alive) == 0 {
				tp, err := s.Insert(1, []tuple.Value{tuple.Int(rng.Int63())})
				if err != nil {
					return false
				}
				alive[tp.ID] = true
			} else {
				// Pick an arbitrary live tuple deterministically.
				var victim tuple.ID
				found := false
				for id := range alive {
					if !found || id < victim {
						victim = id
						found = true
					}
					if rng.Intn(3) == 0 {
						break
					}
				}
				if err := s.Evict(victim); err != nil {
					return false
				}
				delete(alive, victim)
			}
			if rng.Intn(8) == 0 {
				s.Compact()
			}
		}
		if s.Len() != len(alive) {
			return false
		}
		ids := liveIDs(s)
		if len(ids) != len(alive) {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				return false
			}
		}
		for i, id := range ids {
			if !alive[id] {
				return false
			}
			if i > 0 {
				prev, ok := s.PrevLive(id)
				if !ok || prev != ids[i-1] {
					return false
				}
			}
			if i < len(ids)-1 {
				next, ok := s.NextLive(id)
				if !ok || next != ids[i+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package wal

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// Crash-injection tests for the per-shard WAL layout: torn tails must
// stay local to their shard, a checkpoint is committed only by the
// manifest rename, and a reopen at another shard count keeps every
// tuple and never reuses an ID.

// buildSharded inserts n round-robin rows into a fresh store+log pair
// in dir, logging every insert to its shard's log.
func buildSharded(t testing.TB, dir string, shards, n int) (*storage.ShardedStore, *ShardedLog) {
	t.Helper()
	ss := storage.NewSharded(walSchema, shards)
	sl, err := OpenSharded(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, ss, sl, n)
	return ss, sl
}

func appendRows(t testing.TB, ss *storage.ShardedStore, sl *ShardedLog, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		i := ss.NextShard()
		tp, err := ss.InsertShard(i, 1, row("dev", int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendInsert(i, tp); err != nil {
			t.Fatal(err)
		}
	}
}

// liveTuples reads every live tuple of ss by ID, in global ID order.
func liveTuples(ss *storage.ShardedStore) []tuple.Tuple {
	var out []tuple.Tuple
	for i := 0; i < ss.NumShards(); i++ {
		eachByID(ss.Shard(i), func(tp tuple.Tuple) { out = append(out, tp) })
	}
	slices.SortFunc(out, func(a, b tuple.Tuple) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// has reports whether ss holds a live tuple with id.
func has(ss *storage.ShardedStore, id tuple.ID) bool {
	_, err := ss.Shard(ss.ShardOf(id)).Get(id)
	return err == nil
}

// evict tombstones id in the shard that owns it.
func evict(ss *storage.ShardedStore, id tuple.ID) error {
	return ss.Shard(ss.ShardOf(id)).Evict(id)
}

// signature captures the full recovered state: IDs, insertion ticks,
// freshness, infection and attributes in global ID order.
func signature(ss *storage.ShardedStore) string {
	var b strings.Builder
	for _, tp := range liveTuples(ss) {
		fmt.Fprintf(&b, "%d|%d|%g|%v|%v\n", tp.ID, tp.T, tp.F, tp.Infected, tp.Attrs)
	}
	return b.String()
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// A torn tail in ONE shard's log loses only that shard's trailing
// records: every other shard replays in full, and the torn log is
// truncated at the tear so post-recovery appends are never hidden
// behind garbage.
func TestShardedTornTailIsolatedPerShard(t *testing.T) {
	const shards, n = 4, 40
	dir := t.TempDir()
	_, sl := buildSharded(t, dir, shards, n)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear shard 2's log: chop a few trailing bytes mid-record.
	tornPath := filepath.Join(dir, ShardLogFile(2))
	data, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	got := storage.NewSharded(walSchema, shards)
	if err := RecoverSharded(dir, got, shards); err != nil {
		t.Fatal(err)
	}
	// Shard 2 owned IDs 2, 6, ..., 38 (10 tuples); the tear loses
	// exactly its last record. Everything else must be complete.
	if got.Len() != n-1 {
		t.Fatalf("recovered %d tuples, want %d (one torn record)", got.Len(), n-1)
	}
	if has(got, 38) {
		t.Error("torn final record of shard 2 came back")
	}
	for id := 0; id < n; id++ {
		if id == 38 {
			continue
		}
		if !has(got, tuple.ID(id)) {
			t.Errorf("tuple %d lost to another shard's torn tail", id)
		}
	}
	// The torn log was truncated at the tear, independently of the
	// healthy shards.
	fi, err := os.Stat(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(len(data)-3) {
		t.Errorf("torn log not truncated: %d bytes (tear was at <%d)", fi.Size(), len(data)-3)
	}
	healthy, err := os.Stat(filepath.Join(dir, ShardLogFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Size() == 0 {
		t.Error("healthy shard log truncated to zero")
	}

	// Appends after the truncation land on a clean tail and survive the
	// next recovery.
	sl2, err := OpenSharded(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.New(42, 2, row("post", 42))
	if err := sl2.AppendInsert(2, tp); err != nil {
		t.Fatal(err)
	}
	if err := sl2.Close(); err != nil {
		t.Fatal(err)
	}
	again := storage.NewSharded(walSchema, shards)
	if err := RecoverSharded(dir, again, shards); err != nil {
		t.Fatal(err)
	}
	if !has(again, 42) {
		t.Error("append after torn-tail truncation lost")
	}
}

// A crash BETWEEN the per-shard snapshot writes and the manifest commit
// must fall back to the previous generation plus the untruncated logs —
// the half-written next generation is invisible and gets cleaned up.
func TestCrashBetweenSnapshotWriteAndManifestCommit(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ss, sl := buildSharded(t, dir, shards, 30)
	if err := sl.Checkpoint(ss, shards); err != nil { // generation 1
		t.Fatal(err)
	}
	appendRows(t, ss, sl, 15) // post-checkpoint, logged only
	if err := evict(ss, 4); err != nil {
		t.Fatal(err)
	}
	if err := sl.AppendEvict(ss.ShardOf(4), 4); err != nil {
		t.Fatal(err)
	}
	want := signature(ss)

	// Simulate the next checkpoint crashing after its snapshots but
	// before the manifest rename: generation-2 files appear, manifest
	// still names generation 1, logs untouched.
	for i := 0; i < shards; i++ {
		if err := WriteSnapshot(filepath.Join(dir, shardSnapshotFile(2, i)), ss.Shard(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	got := storage.NewSharded(walSchema, shards)
	if err := RecoverSharded(dir, got, shards); err != nil {
		t.Fatal(err)
	}
	if s := signature(got); s != want {
		t.Errorf("fallback to previous generation diverged:\ngot:\n%s\nwant:\n%s", s, want)
	}
	// The uncommitted generation was swept.
	for i := 0; i < shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardSnapshotFile(2, i))); err == nil {
			t.Errorf("uncommitted generation-2 snapshot %d survived recovery", i)
		}
	}
}

// A directory in the retired single-log layout (snapshot.db + wal.log,
// no manifest) is refused at every shard count: RecoverSharded names the
// layout, recovers nothing, and leaves the files byte-identical with no
// manifest written — it never opens as a fresh, empty directory.
func TestSingleLogLayoutRefused(t *testing.T) {
	legacy := t.TempDir()
	st := storage.New(walSchema)
	log, err := Open(filepath.Join(legacy, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		tp, err := st.Insert(1, row("dev", int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendInsert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(filepath.Join(legacy, "snapshot.db"), st); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := copyDir(t, legacy)
			before := map[string][]byte{}
			for _, name := range []string{"snapshot.db", "wal.log"} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				before[name] = data
			}
			got := storage.NewSharded(walSchema, shards)
			err := RecoverSharded(dir, got, shards)
			if !errors.Is(err, ErrSingleLogLayout) {
				t.Fatalf("RecoverSharded on a single-log directory: err = %v, want ErrSingleLogLayout", err)
			}
			if got.Len() != 0 {
				t.Errorf("refused recovery loaded %d tuples", got.Len())
			}
			for name, want := range before {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("%s after refused recovery: %v", name, err)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("%s changed by the refused recovery", name)
				}
			}
			if _, ok, err := loadManifest(dir); ok || err != nil {
				t.Errorf("refused recovery left a manifest (ok=%v, err=%v)", ok, err)
			}
		})
	}
}

// IDs are never reused (ARCHITECTURE.md invariant 4), also across a
// reshard: rows consumed after the last checkpoint exist only as log
// records, and the IDs they held — the highest ever allocated — must
// stay burned when the directory reopens at another shard count.
func TestReshardNeverReusesIDs(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{3, 2}, {2, 3}} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dto%d/checkpoint=%v", tc.from, tc.to, checkpoint), func(t *testing.T) {
				dir := t.TempDir()
				ss, sl := buildSharded(t, dir, tc.from, 20)
				if checkpoint {
					if err := sl.Checkpoint(ss, tc.from); err != nil {
						t.Fatal(err)
					}
				}
				appendRows(t, ss, sl, 10) // IDs 20..29
				// Consume the newest rows: no live tuple keeps their IDs.
				for id := tuple.ID(20); id < 30; id++ {
					if err := evict(ss, id); err != nil {
						t.Fatal(err)
					}
					if err := sl.AppendEvict(ss.ShardOf(id), id); err != nil {
						t.Fatal(err)
					}
				}
				if err := sl.Close(); err != nil {
					t.Fatal(err)
				}
				want := signature(ss)

				// The reshard, then a matched reopen of the rewritten layout.
				for pass := 0; pass < 2; pass++ {
					got := storage.NewSharded(walSchema, tc.to)
					if err := RecoverSharded(dir, got, tc.to); err != nil {
						t.Fatal(err)
					}
					if s := signature(got); s != want {
						t.Fatalf("pass %d: recovered extent diverged:\ngot:\n%s\nwant:\n%s", pass, s, want)
					}
					tp, err := got.Insert(2, row("fresh", 1))
					if err != nil {
						t.Fatal(err)
					}
					if tp.ID < 30 {
						t.Fatalf("pass %d: insert after reopening at %d shards reused ID %d (IDs 0..29 were allocated)", pass, tc.to, tp.ID)
					}
				}
			})
		}
	}
}

// TestReshardKeepsEveryTuple: a reshard restores every tuple exactly —
// ID, insertion tick, freshness bits, infection flag and attributes —
// from a directory whose snapshot holds infected rows and compacted
// (sparse) segments and whose log tail holds more inserts, evictions of
// snapshot rows and consumed newest rows. The next insert takes no ID
// that was ever allocated.
func TestReshardKeepsEveryTuple(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{3, 2}, {2, 3}, {1, 4}, {4, 1}} {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			dir := t.TempDir()
			ss := storage.NewSharded(walSchema, tc.from, storage.WithSegmentSize(4))
			sl, err := OpenSharded(dir, tc.from)
			if err != nil {
				t.Fatal(err)
			}
			appendRows(t, ss, sl, 60)
			for id := tuple.ID(0); id < 60; id++ {
				sh := ss.Shard(ss.ShardOf(id))
				switch {
				case id%5 == 2 || (id >= 24 && id < 36): // holes, and whole segments
					if err := sh.Evict(id); err != nil {
						t.Fatal(err)
					}
					if err := sl.AppendEvict(ss.ShardOf(id), id); err != nil {
						t.Fatal(err)
					}
				case id%3 == 0:
					f := tuple.Freshness(math.Nextafter(float64(id)/61, 1))
					if err := sh.Update(id, func(tp *tuple.Tuple) { tp.F, tp.Infected = f, id%2 == 0 }); err != nil {
						t.Fatal(err)
					}
				}
			}
			if ss.Compact() == 0 {
				t.Fatal("compaction reclaimed nothing")
			}
			if err := sl.Checkpoint(ss, tc.from); err != nil {
				t.Fatal(err)
			}
			appendRows(t, ss, sl, 15) // IDs 60..74, logged only
			for _, id := range []tuple.ID{3, 9, 40, 70, 71, 72, 73, 74} {
				if err := evict(ss, id); err != nil {
					t.Fatal(err)
				}
				if err := sl.AppendEvict(ss.ShardOf(id), id); err != nil {
					t.Fatal(err)
				}
			}
			if err := sl.Close(); err != nil {
				t.Fatal(err)
			}
			want := liveTuples(ss)

			got := storage.NewSharded(walSchema, tc.to, storage.WithSegmentSize(4))
			if err := RecoverSharded(dir, got, tc.to); err != nil {
				t.Fatal(err)
			}
			have := liveTuples(got)
			if len(have) != len(want) {
				t.Fatalf("recovered %d tuples, want %d", len(have), len(want))
			}
			infected := 0
			for i, w := range want {
				g := have[i]
				if g.ID != w.ID || g.T != w.T || math.Float64bits(float64(g.F)) != math.Float64bits(float64(w.F)) ||
					g.Infected != w.Infected || !slices.Equal(g.Attrs, w.Attrs) {
					t.Fatalf("tuple %d: recovered %+v, want %+v", i, g, w)
				}
				if g.Infected {
					infected++
				}
			}
			if infected == 0 {
				t.Fatal("no infected tuple survived to be checked")
			}
			tp, err := got.Insert(9, row("fresh", 1))
			if err != nil {
				t.Fatal(err)
			}
			if tp.ID < 75 {
				t.Fatalf("insert after resharding %d to %d took ID %d (IDs 0..74 were allocated)", tc.from, tc.to, tp.ID)
			}
		})
	}
}

// Reopening a per-shard directory at a DIFFERENT shard count re-routes
// every record to its new owner by ID residue and rewrites the layout.
func TestRecoverShardedAcrossShardCounts(t *testing.T) {
	src := t.TempDir()
	ss, sl := buildSharded(t, src, 4, 40)
	if err := sl.Checkpoint(ss, 4); err != nil {
		t.Fatal(err)
	}
	appendRows(t, ss, sl, 13)
	if err := evict(ss, 10); err != nil {
		t.Fatal(err)
	}
	if err := sl.AppendEvict(ss.ShardOf(10), 10); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	want := signature(ss)

	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := copyDir(t, src)
			got := storage.NewSharded(walSchema, shards)
			if err := RecoverSharded(dir, got, shards); err != nil {
				t.Fatal(err)
			}
			if s := signature(got); s != want {
				t.Fatalf("resharded extent diverged:\ngot:\n%s\nwant:\n%s", s, want)
			}
			man, ok, err := loadManifest(dir)
			if err != nil || !ok {
				t.Fatalf("no manifest after reshard: %v", err)
			}
			if man.Shards != shards {
				t.Fatalf("manifest shards = %d, want %d", man.Shards, shards)
			}
			// Old-count logs were removed — their residue classes no
			// longer match, so replaying them would misroute.
			for i := 0; i < 8; i++ {
				if fi, err := os.Stat(filepath.Join(dir, ShardLogFile(i))); err == nil && fi.Size() > 0 {
					t.Errorf("old shard log %d survived reshard with %d bytes", i, fi.Size())
				}
			}
			tp, err := got.Insert(2, row("fresh", 1))
			if err != nil {
				t.Fatal(err)
			}
			if tp.ID < 53 {
				t.Errorf("post-reshard insert reused ID %d", tp.ID)
			}
		})
	}
}

// Matched-count recovery restores every shard's allocation cursor
// EXACTLY (from its own snapshot header), so the post-recovery insert
// rotation continues where the pre-crash one left off — no rounding up
// to the global high-water mark.
func TestRecoverShardedPreservesPerShardCursors(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	ss, sl := buildSharded(t, dir, shards, 10) // IDs 0..9: cursors 12,13,10,11
	if err := sl.Checkpoint(ss, shards); err != nil {
		t.Fatal(err)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	got := storage.NewSharded(walSchema, shards)
	if err := RecoverSharded(dir, got, shards); err != nil {
		t.Fatal(err)
	}
	wantCursors := ss.ShardNextIDs()
	for i, next := range got.ShardNextIDs() {
		if next != wantCursors[i] {
			t.Errorf("shard %d cursor = %d, want %d", i, next, wantCursors[i])
		}
	}
	// The next inserts continue the exact pre-crash ID sequence.
	for want := tuple.ID(10); want < 14; want++ {
		tp, err := got.Insert(2, row("cont", int64(want)))
		if err != nil {
			t.Fatal(err)
		}
		if tp.ID != want {
			t.Fatalf("post-recovery rotation broke: got ID %d, want %d", tp.ID, want)
		}
	}
}

// Checkpoint generations advance and supersede each other: the previous
// generation's files are removed once the new manifest commits.
func TestShardedCheckpointGenerations(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	ss, sl := buildSharded(t, dir, shards, 8)
	if err := sl.Checkpoint(ss, shards); err != nil {
		t.Fatal(err)
	}
	appendRows(t, ss, sl, 4)
	if err := sl.Checkpoint(ss, shards); err != nil {
		t.Fatal(err)
	}
	if g := sl.Manifest().Generation; g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	for i := 0; i < shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardSnapshotFile(1, i))); err == nil {
			t.Errorf("generation-1 snapshot %d not removed", i)
		}
		if _, err := os.Stat(filepath.Join(dir, shardSnapshotFile(2, i))); err != nil {
			t.Errorf("generation-2 snapshot %d missing: %v", i, err)
		}
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	got := storage.NewSharded(walSchema, shards)
	if err := RecoverSharded(dir, got, shards); err != nil {
		t.Fatal(err)
	}
	if s, want := signature(got), signature(ss); s != want {
		t.Errorf("post-generation-2 recovery diverged:\ngot:\n%s\nwant:\n%s", s, want)
	}
}

package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// Robustness: feeding arbitrary bytes to ReplayBounded and loadSnapshot must
// yield zero-or-some records or a clean error — never a panic and never
// fabricated data that breaks recovery.

func TestReplayArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	for trial := 0; trial < 200; trial++ {
		size := rng.Intn(512)
		data := make([]byte, size)
		rng.Read(data)
		path := filepath.Join(dir, "junk.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReplayBounded(path, func(Rec) error { return nil })
		// Random bytes should essentially never form a valid CRC frame;
		// either way the call must return without panicking.
		_ = err
	}
}

func TestReplayBitFlipsOnValidLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardLogFile(0))
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{tuple.String_("dev"), tuple.Int(int64(i))})
		if err := l.AppendInsert(tp); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), orig...)
		// Flip 1-3 bits anywhere in the file.
		for f := 0; f <= rng.Intn(3); f++ {
			pos := rng.Intn(len(data))
			data[pos] ^= 1 << rng.Intn(8)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		count := 0
		var firstErr error
		_, err := ReplayBounded(path, func(r Rec) error {
			count++
			if r.Type == RecInsert && len(r.Tuple.Attrs) != 2 && firstErr == nil {
				t.Fatalf("trial %d: corrupt record passed CRC with %d attrs", trial, len(r.Tuple.Attrs))
			}
			return nil
		})
		_ = err // a decode error after a passing CRC is acceptable
		if count > 20 {
			t.Fatalf("trial %d: replayed %d records from a 20-record log", trial, count)
		}
	}
}

func TestLoadSnapshotArbitraryBytes(t *testing.T) {
	schema := tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt})
	dir := t.TempDir()
	path := filepath.Join(dir, shardSnapshotFile(1, 0))
	for trial, data := range arbitrarySnapshots() {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := storage.New(schema)
		if _, err := loadSnapshot(path, st); err == nil && st.Len() > 0 {
			t.Fatalf("trial %d: random bytes produced %d tuples", trial, st.Len())
		}
	}
}

// arbitrarySnapshots returns 200 random byte strings, half of them
// behind a valid snapshot magic so parsing goes deeper.
func arbitrarySnapshots() [][]byte {
	rng := rand.New(rand.NewSource(5))
	out := make([][]byte, 200)
	for trial := range out {
		size := rng.Intn(1024)
		data := make([]byte, size)
		rng.Read(data)
		if trial%2 == 0 && size >= 8 {
			copy(data, snapshotMagic[:])
		}
		out[trial] = data
	}
	return out
}

func TestRecoverIdempotent(t *testing.T) {
	src := t.TempDir()
	st := storage.NewSharded(walSchema, 1)
	sl, err := OpenSharded(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, st, sl, 50)
	for i := 0; i < 50; i += 3 {
		evict(st, tuple.ID(i))
		sl.AppendEvict(0, tuple.ID(i))
	}
	sl.Sync()
	sl.Close()
	want := signature(st)

	// Recover the same directory repeatedly: every pass yields the
	// identical extent. At a changed count the first pass reshards and
	// rewrites the layout; the later passes take the matched path.
	for _, shards := range reopenCounts {
		dir := copyDir(t, src)
		for pass := 0; pass < 3; pass++ {
			got := storage.NewSharded(walSchema, shards)
			if err := RecoverSharded(dir, got, shards); err != nil {
				t.Fatal(err)
			}
			if s := signature(got); s != want {
				t.Fatalf("shards=%d pass %d: extent differs:\ngot:\n%s\nwant:\n%s", shards, pass, s, want)
			}
		}
	}
}

// FuzzDecodeSnapshot is the native fuzz target over the snapshot and
// zone-blob decoders. Recovery reads snapshot files and a replication
// follower decodes shipped snapshot chunks straight into a shard store,
// so DecodeSnapshot must be total: arbitrary input restores a snapshot
// or fails with an error, never a panic. Whatever it accepts must be a
// fixed point of WriteSnapshot → DecodeSnapshot — the same tuples and
// the same zone summaries, byte for byte.
package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

var fuzzSnapSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "v", Kind: tuple.KindInt},
	tuple.Column{Name: "x", Kind: tuple.KindFloat},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

// fuzzSnapStore is the store every fuzz input decodes into.
func fuzzSnapStore() *storage.Store {
	return storage.New(fuzzSnapSchema, storage.WithSegmentSize(4))
}

// snapshotBytes serialises st the way a checkpoint does, in memory.
func snapshotBytes(tb testing.TB, st *storage.Store) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := encodeSnapshot(&b, st); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// eachByID hands fn every live tuple of st in ID order, read one at a
// time by ID rather than through a batch walk.
func eachByID(st *storage.Store, fn func(tuple.Tuple)) {
	for id, ok := st.FirstLive(); ok; id, ok = st.NextLive(id) {
		tp, err := st.Get(id)
		if err != nil {
			panic(err)
		}
		fn(tp)
	}
}

// tupleDump encodes every live tuple of st in ID order: IDs, insertion
// ticks, freshness, infection and attributes.
func tupleDump(st *storage.Store) []byte {
	var out []byte
	eachByID(st, func(tp tuple.Tuple) { out = tuple.AppendEncode(out, tp) })
	return out
}

// fuzzSnapSeeds builds snapshots of the shapes recovery meets: dead rows
// and a fully dead segment, compacted (sparse) segments, a STRING
// dictionary with repeats, NaN and -0 floats, a shard of a wider store
// (whose zone records name another stride), and an empty store.
func fuzzSnapSeeds(tb testing.TB) [][]byte {
	devices := []string{"a", "a", "b", "c", "b", "a"}
	fill := func(st *storage.Store, n int) {
		for i := 0; i < n; i++ {
			x := float64(i) / 4
			switch i {
			case 5:
				x = math.NaN()
			case 6:
				x = math.Copysign(0, -1)
			}
			attrs := []tuple.Value{tuple.String_(devices[i%len(devices)]), tuple.Int(int64(i)), tuple.Float(x), tuple.Bool(i%3 == 0)}
			if _, err := st.Insert(clock.Tick(3+i/4), attrs); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var out [][]byte

	dead := fuzzSnapStore()
	fill(dead, 19)
	for _, id := range []tuple.ID{4, 5, 6, 7, 9, 18} { // segment 1 fully dead
		dead.Evict(id)
	}
	dead.Update(10, func(tp *tuple.Tuple) { tp.F = 0.25; tp.Infected = true })
	out = append(out, snapshotBytes(tb, dead))

	compacted := fuzzSnapStore()
	fill(compacted, 12)
	for _, id := range []tuple.ID{1, 2, 8, 10} {
		compacted.Evict(id)
	}
	compacted.Compact()
	out = append(out, snapshotBytes(tb, compacted))

	wide := storage.NewSharded(fuzzSnapSchema, 3, storage.WithSegmentSize(4))
	for i := 0; i < 24; i++ {
		if _, err := wide.Insert(1, []tuple.Value{tuple.String_(devices[i%len(devices)]), tuple.Int(int64(i)), tuple.Float(1), tuple.Bool(false)}); err != nil {
			tb.Fatal(err)
		}
	}
	out = append(out, snapshotBytes(tb, wide.Shard(1)))

	out = append(out, snapshotBytes(tb, fuzzSnapStore()))
	return append(out, arbitrarySnapshots()...)
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range fuzzSnapSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A store keeps one slot per segment of the ID axis below its
		// highest ID, and a snapshot's IDs sit below its header's next-ID
		// mark, so a large mark is a legitimately large store. Skip those
		// to keep each run small.
		if len(data) > len(snapshotMagic) {
			if next, n := binary.Uvarint(data[len(snapshotMagic):]); n > 0 && next > 1<<16 {
				return
			}
		}
		// Re-seal the checksum so mutations reach the body decoders
		// instead of stopping at the CRC check.
		if len(data) >= len(snapshotMagic)+4 {
			data = append([]byte(nil), data...)
			body := data[len(snapshotMagic) : len(data)-4]
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crcTable))
		}
		dst := fuzzSnapStore()
		if _, err := DecodeSnapshot(data, dst); err != nil {
			return
		}
		dst.FinishRestore()

		f1 := snapshotBytes(t, dst)
		again := fuzzSnapStore()
		if _, err := DecodeSnapshot(f1, again); err != nil {
			t.Fatalf("snapshot written from an accepted input does not decode: %v", err)
		}
		again.FinishRestore()
		if !bytes.Equal(tupleDump(again), tupleDump(dst)) {
			t.Fatal("tuples changed across WriteSnapshot → DecodeSnapshot")
		}
		if f2 := snapshotBytes(t, again); !bytes.Equal(f2, f1) {
			t.Fatal("snapshot bytes (zone summaries) changed across WriteSnapshot → DecodeSnapshot")
		}
	})
}

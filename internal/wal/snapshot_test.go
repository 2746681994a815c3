package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// encodeSnapshotByRows is the row-at-a-time reference for
// encodeSnapshot: the same header, then every live tuple read by ID and
// written by tuple.AppendEncode.
func encodeSnapshotByRows(w io.Writer, store *storage.Store) error {
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return err
	}
	crc := crc32.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(store.NextID()))
	hdr = binary.AppendUvarint(hdr, uint64(store.Len()))
	zones := store.AppendZones(nil)
	hdr = binary.AppendUvarint(hdr, uint64(len(zones)))
	hdr = append(hdr, zones...)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(tupleDump(store)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// TestSnapshotFromColumnsMatchesRows: a snapshot encoded off the column
// slices is byte-identical to the row-at-a-time reference, and writing
// it moves none of the store's scan counters. The stores cover the
// shapes a checkpoint meets: dead rows and fully dead segments and
// batches, compacted (sparse) segments, segments restored from a
// snapshot, a shard of a wider store, NaN and -0 freshness and
// attributes, infection flags and a STRING dictionary with repeats.
func TestSnapshotFromColumnsMatchesRows(t *testing.T) {
	devices := []string{"a", "a", "b", "", "b", "a", "long device name"}
	attrs := func(i int) []tuple.Value {
		x := float64(i) / 8
		switch i % 11 {
		case 3:
			x = math.NaN()
		case 7:
			x = math.Copysign(0, -1)
		}
		return []tuple.Value{tuple.String_(devices[i%len(devices)]), tuple.Int(int64(i*i) - 50), tuple.Float(x), tuple.Bool(i%3 == 0)}
	}
	fill := func(st *storage.Store, from, to int) {
		for i := from; i < to; i++ {
			if _, err := st.Insert(clock.Tick(i/5), attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn := func(st *storage.Store, every int) {
		var ids []tuple.ID
		eachByID(st, func(tp tuple.Tuple) { ids = append(ids, tp.ID) })
		for k, id := range ids {
			switch {
			case k%every == 0 || (k >= 8 && k < 16): // rows 8-15: one whole 8-row segment
				if err := st.Evict(id); err != nil {
					t.Fatal(err)
				}
			case k%5 == 1:
				f := tuple.Freshness(float64(k) / 100)
				if k%10 == 1 {
					f = tuple.Freshness(math.Copysign(0, -1))
				}
				if err := st.Update(id, func(tp *tuple.Tuple) { tp.F = f; tp.Infected = true }); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	stores := map[string]*storage.Store{"empty": fuzzSnapStore()}

	churned := storage.New(fuzzSnapSchema, storage.WithSegmentSize(8))
	fill(churned, 0, 60)
	churn(churned, 4)
	churned.Compact() // sealed segments turn sparse
	fill(churned, 60, 75)
	churn(churned, 3)
	stores["churned"] = churned

	var snap bytes.Buffer
	if err := encodeSnapshotByRows(&snap, churned); err != nil {
		t.Fatal(err)
	}
	restored := storage.New(fuzzSnapSchema, storage.WithSegmentSize(8))
	next, err := DecodeSnapshot(snap.Bytes(), restored)
	if err != nil {
		t.Fatal(err)
	}
	restored.FinishRestore()
	restored.AdvanceNextID(next)
	fill(restored, 75, 90)
	churn(restored, 6)
	stores["restored"] = restored

	// Default segments hold several batches; evictions leave one batch
	// with no live row, which the walk elides.
	big := storage.New(fuzzSnapSchema)
	fill(big, 0, 3*tuple.BatchRows+100)
	for id := tuple.ID(tuple.BatchRows); id < 2*tuple.BatchRows; id++ {
		if err := big.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	churn(big, 7)
	stores["multi-batch"] = big

	wide := storage.NewSharded(fuzzSnapSchema, 3, storage.WithSegmentSize(4))
	for i := 0; i < 40; i++ {
		if _, err := wide.Insert(clock.Tick(i), attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	churn(wide.Shard(1), 4)
	wide.Shard(1).Compact()
	stores["shard"] = wide.Shard(1)

	for name, st := range stores {
		var want bytes.Buffer
		if err := encodeSnapshotByRows(&want, st); err != nil {
			t.Fatal(err)
		}
		before := st.Stats()
		got := snapshotBytes(t, st)
		if after := st.Stats(); after != before {
			t.Errorf("%s: encoding the snapshot moved the store's counters: %+v -> %+v", name, before, after)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: snapshot differs from the row-at-a-time reference (%d vs %d bytes)", name, len(got), want.Len())
		}
	}
}

package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// looseZones counts the segments of st whose zone map's STRING
// (column 0) or INT (column 1) bounds differ from the min/max of the
// segment's live rows.
func looseZones(t *testing.T, st *storage.Store) int {
	t.Helper()
	type span struct {
		n        int
		sLo, sHi string
		iLo, iHi int64
	}
	var zones []*storage.ZoneMap
	var spans []span
	st.ScanBatches(func(z *storage.ZoneMap) bool {
		zones = append(zones, z)
		spans = append(spans, span{})
		return false
	}, func(b *tuple.Batch) bool {
		sp := &spans[len(spans)-1]
		tuple.EachSet(b.Live, func(j int) bool {
			s, v := b.Cols[0].Dict[b.Cols[0].Codes[j]], b.Cols[1].Ints[j]
			if sp.n == 0 {
				sp.sLo, sp.sHi, sp.iLo, sp.iHi = s, s, v, v
			}
			sp.sLo, sp.sHi = min(sp.sLo, s), max(sp.sHi, s)
			sp.iLo, sp.iHi = min(sp.iLo, v), max(sp.iHi, v)
			sp.n++
			return true
		})
		return true
	})
	loose := 0
	for k, z := range zones {
		sp := spans[k]
		sLo, sHi, okS := z.Bounds(0)
		iLo, iHi, okI := z.Bounds(1)
		if !okS || !okI {
			t.Fatalf("segment %d: zone map without bounds over %d live rows", k, sp.n)
		}
		if sLo.AsString() != sp.sLo || sHi.AsString() != sp.sHi || iLo.AsInt() != sp.iLo || iHi.AsInt() != sp.iHi {
			loose++
		}
	}
	return loose
}

// TestRecoveryRebuildsTightZones: zone maps are never written to disk.
// A checkpoint of segments whose evictions loosened their bounds,
// plus a logged tail, recovers — at the same and at another shard
// count — into segments whose zone maps are rebuilt from the restored
// rows, so every bound is exactly the min/max of the live rows.
func TestRecoveryRebuildsTightZones(t *testing.T) {
	dir := t.TempDir()
	src := storage.NewSharded(walSchema, 1, storage.WithSegmentSize(4))
	sl, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		for k := from; k < to; k++ {
			tp, err := src.InsertShard(0, 1, row(fmt.Sprintf("dev-%c", 'a'+k%5), int64(k*7%23)))
			if err != nil {
				t.Fatal(err)
			}
			if err := sl.AppendInsert(0, tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 16)
	// Evict each segment's INT extremes and one STRING extreme.
	for _, id := range []tuple.ID{0, 2, 3, 4, 9, 12, 14} {
		if err := evict(src, id); err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendEvict(0, id); err != nil {
			t.Fatal(err)
		}
	}
	if looseZones(t, src.Shard(0)) == 0 {
		t.Fatal("no segment's bounds were loosened by the evictions")
	}
	if err := sl.Checkpoint(src, 1); err != nil {
		t.Fatal(err)
	}
	insert(16, 21)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range reopenCounts {
		dst := recoverCopy(t, dir, shards, storage.WithSegmentSize(4))
		if dst.Len() != src.Len() {
			t.Fatalf("shards=%d: recovered %d tuples, want %d", shards, dst.Len(), src.Len())
		}
		for i := 0; i < shards; i++ {
			if n := looseZones(t, dst.Shard(i)); n != 0 {
				t.Errorf("shards=%d: shard %d has %d segments with loose bounds", shards, i, n)
			}
			if err := dst.Shard(i).AuditZones(); err != nil {
				t.Errorf("shards=%d: shard %d: %v", shards, i, err)
			}
		}
	}
}

// TestV1SnapshotRejected: the snapshot layouts before FDBSNAP3 — v1
// (no zone blob) and v2 (a zone blob between the header and the
// tuples) — are retired. Loading either fails with a bad-magic error
// and restores nothing.
func TestV1SnapshotRejected(t *testing.T) {
	for _, c := range []struct {
		magic   string
		zoneLen bool
	}{
		{"FDBSNAP1", false},
		{"FDBSNAP2", true},
	} {
		var body []byte
		body = binary.AppendUvarint(body, 1) // nextID
		body = binary.AppendUvarint(body, 1) // tuple count
		if c.zoneLen {
			body = binary.AppendUvarint(body, 0) // empty zone blob
		}
		body = tuple.AppendEncode(body, tuple.New(0, 3, row("dev", 0)))
		path := filepath.Join(t.TempDir(), "old.db")
		if err := os.WriteFile(path, sealSnapshot([]byte(c.magic), body), 0o644); err != nil {
			t.Fatal(err)
		}
		dst := storage.New(walSchema)
		_, err := loadSnapshot(path, dst)
		if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
			t.Errorf("%s: err = %v, want bad snapshot magic", c.magic, err)
		}
		if dst.Len() != 0 {
			t.Errorf("rejected %s snapshot restored %d tuples", c.magic, dst.Len())
		}
	}
}

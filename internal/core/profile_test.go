package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fungusdb/internal/fungus"
	"fungusdb/internal/metrics"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// liveByID reads every live tuple of tbl one at a time by ID —
// FirstLive/NextLive and Get on each shard — and returns them in global
// ID order. It never goes through a batch walk, so it is a reference
// for the readers that do.
func liveByID(tbl *Table) []tuple.Tuple {
	tbl.rlockAll()
	defer tbl.runlockAll()
	var out []tuple.Tuple
	for i := 0; i < tbl.store.NumShards(); i++ {
		sh := tbl.store.Shard(i)
		for id, ok := sh.FirstLive(); ok; id, ok = sh.NextLive(id) {
			tp, err := sh.Get(id)
			if err != nil {
				panic(err)
			}
			out = append(out, tp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// modelProfile folds the tuples row at a time, in ID order, into a
// freshness profile.
func modelProfile(tps []tuple.Tuple, bytes int) metrics.FreshnessProfile {
	p := metrics.FreshnessProfile{Live: len(tps), Bytes: bytes, Min: 1}
	if len(tps) == 0 {
		p.Min = 0
		return p
	}
	var sum float64
	for _, tp := range tps {
		f := float64(tp.F)
		sum += f
		p.Min = math.Min(p.Min, f)
		if tp.Infected {
			p.Infected++
		}
		p.Deciles[min(int(f*10), 9)]++
	}
	p.Mean = sum / float64(len(tps))
	return p
}

// modelSeries splits [first live ID, last live ID] into n near-equal
// ranges (the first span%n one ID wider) and profiles each row at a
// time.
func modelSeries(tps []tuple.Tuple, n int) []metrics.TimeBucket {
	if len(tps) == 0 {
		return nil
	}
	first, last := tps[0].ID, tps[len(tps)-1].ID
	span := int(last-first) + 1
	n = min(n, span)
	out := make([]metrics.TimeBucket, n)
	from := first
	for i := range out {
		w := span / n
		if i < span%n {
			w++
		}
		b := &out[i]
		b.FromID, b.ToID, b.Min = from, from+tuple.ID(w)-1, 1
		from += tuple.ID(w)
		var sum float64
		for _, tp := range tps {
			if tp.ID < b.FromID || tp.ID > b.ToID {
				continue
			}
			b.Live++
			sum += float64(tp.F)
			b.Min = math.Min(b.Min, float64(tp.F))
			if tp.Infected {
				b.Infected++
			}
		}
		b.Dead = w - b.Live
		if b.Live > 0 {
			b.Mean = sum / float64(b.Live)
		} else {
			b.Min = 0
		}
	}
	return out
}

// sameMean holds a batch-computed mean to the row model's: bit-exact on
// one shard, where both sum in ID order, and within 1e-12 relative
// otherwise, where shard-order summation may move the last bits.
func sameMean(shards int, got, want float64) bool {
	if shards == 1 {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// TestProfilersMatchRowModel: Table.Profile and Table.TimeSeries equal a
// row model read by ID, at 1, 3 and 4 shards, over an extent with EGI
// infection, consumed holes and compacted sparse segments, over an
// empty table, and with more buckets than the live ID span.
func TestProfilersMatchRowModel(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openDB(t)
			empty, err := db.CreateTable("empty", TableConfig{Schema: iotSchema, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable("iot", TableConfig{
				Schema:      iotSchema,
				Shards:      shards,
				SegmentSize: 16,
				Fungus:      fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 2, DecayRate: 0.3, AgeBias: 1}),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				if _, err := tbl.Insert(Row(fmt.Sprintf("d%d", i%5), float64(i%97))); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 4; k++ {
				if _, err := db.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := answer(tbl, "temp >= 20 AND temp < 60", query.Consume); err != nil {
				t.Fatal(err)
			}
			if tbl.Compact() == 0 {
				t.Fatal("compaction reclaimed nothing: no sparse segment to profile")
			}
			if _, err := db.Tick(); err != nil {
				t.Fatal(err)
			}
			tps := liveByID(tbl)
			if want := modelProfile(tps, tbl.Bytes()); want.Infected == 0 || want.Live == 0 {
				t.Fatalf("scenario too weak: %+v", want)
			}

			for _, tb := range []*Table{empty, tbl} {
				tps := liveByID(tb)
				got, want := tb.Profile(), modelProfile(tps, tb.Bytes())
				if got.Live != want.Live || got.Bytes != want.Bytes || got.Infected != want.Infected ||
					got.Min != want.Min || got.Deciles != want.Deciles || !sameMean(shards, got.Mean, want.Mean) {
					t.Errorf("%s: Profile = %+v, row model %+v", tb.Name(), got, want)
				}
				for _, n := range []int{1, 7, 64, 100000} {
					got, want := tb.TimeSeries(n), modelSeries(tps, n)
					if len(got) != len(want) || (got == nil) != (want == nil) {
						t.Fatalf("%s: TimeSeries(%d) has %d buckets, row model %d", tb.Name(), n, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.FromID != w.FromID || g.ToID != w.ToID || g.Live != w.Live || g.Dead != w.Dead ||
							g.Infected != w.Infected || g.Min != w.Min || !sameMean(shards, g.Mean, w.Mean) {
							t.Fatalf("%s: TimeSeries(%d)[%d] = %+v, row model %+v", tb.Name(), n, i, g, w)
						}
					}
				}
			}
		})
	}
}

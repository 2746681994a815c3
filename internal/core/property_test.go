package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
)

// These tests pin the engine-level invariants of the two natural laws
// under randomized operation interleavings.

// Property: conservation. At every point,
// inserted == live + rotted + consumed, and with DistillOnRot plus
// distilling consume queries, capture rate stays 1.0.
func TestQuickConservationIdentity(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		db, err := Open(DBConfig{Seed: seed})
		if err != nil {
			return false
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", TableConfig{
			Schema:       iotSchema,
			Fungus:       fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 2, DecayRate: 0.3, AgeBias: 2}),
			DistillOnRot: true,
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				if _, err := tbl.Insert(Row(fmt.Sprintf("s-%d", rng.Intn(5)), rng.Float64()*100)); err != nil {
					return false
				}
			case 2:
				if _, err := db.Tick(); err != nil {
					return false
				}
			case 3:
				if _, err := answer(tbl, "temp < 50", query.Consume, QueryOpts{Distill: "cold"}); err != nil {
					return false
				}
			}
			c := tbl.Counters()
			if c.Inserted != uint64(tbl.Len())+c.Rotted+c.Consumed {
				t.Logf("identity broken: %+v live=%d", c, tbl.Len())
				return false
			}
			if c.CaptureRate() != 1.0 {
				t.Logf("capture rate %v with full distillation", c.CaptureRate())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: monotone decay. Without touch-on-read, no tuple's freshness
// ever increases across ticks, and the set of live IDs only shrinks
// between inserts.
func TestQuickFreshnessMonotone(t *testing.T) {
	f := func(seed int64, nTicks uint8) bool {
		db, err := Open(DBConfig{Seed: seed})
		if err != nil {
			return false
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", TableConfig{
			Schema: iotSchema,
			Fungus: fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 1, DecayRate: 0.15, AgeBias: 2}),
		})
		if err != nil {
			return false
		}
		for i := 0; i < 60; i++ {
			tbl.Insert(Row("s", float64(i)))
		}
		prev := map[uint64]float64{}
		res, _ := answer(tbl, "", query.Peek)
		for i := range res {
			prev[uint64(res[i].ID)] = float64(res[i].F)
		}
		for k := 0; k < int(nTicks%40); k++ {
			if _, err := db.Tick(); err != nil {
				return false
			}
			res, err := answer(tbl, "", query.Peek)
			if err != nil {
				return false
			}
			cur := map[uint64]float64{}
			for i := range res {
				id := uint64(res[i].ID)
				f := float64(res[i].F)
				cur[id] = f
				before, seen := prev[id]
				if !seen {
					t.Logf("tuple %d appeared from nowhere", id)
					return false // resurrected or inserted (we insert none)
				}
				if f > before {
					t.Logf("tuple %d freshness rose %v -> %v", id, before, f)
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: consume partitions. Splitting the extent with a predicate
// and its negation via two consume queries yields disjoint answers that
// cover the extent exactly, leaving it empty.
func TestQuickConsumePartition(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		db, err := Open(DBConfig{Seed: seed})
		if err != nil {
			return false
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", TableConfig{Schema: iotSchema})
		if err != nil {
			return false
		}
		const n = 80
		for i := 0; i < n; i++ {
			tbl.Insert(Row("s", float64(i)))
		}
		pivot := float64(cut % 100)
		a, err := answer(tbl, fmt.Sprintf("temp < %g", pivot), query.Consume)
		if err != nil {
			return false
		}
		b, err := answer(tbl, fmt.Sprintf("NOT (temp < %g)", pivot), query.Consume)
		if err != nil {
			return false
		}
		if len(a)+len(b) != n || tbl.Len() != 0 {
			return false
		}
		seen := map[uint64]bool{}
		for i := range a {
			seen[uint64(a[i].ID)] = true
		}
		for i := range b {
			if seen[uint64(b[i].ID)] {
				return false // overlap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SQL aggregates agree with manual aggregation over a peek
// result for arbitrary data.
func TestQuickSQLAggregatesAgree(t *testing.T) {
	f := func(seed int64) bool {
		db, err := Open(DBConfig{Seed: seed})
		if err != nil {
			return false
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", TableConfig{Schema: iotSchema})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(90)
		var sum float64
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 50
			sum += v
			tbl.Insert(Row("s", v))
		}
		g, err := tbl.SQL("SELECT COUNT(*) AS n, SUM(temp) AS s FROM t")
		if err != nil {
			return false
		}
		if g.Rows[0][0].AsInt() != int64(n) {
			return false
		}
		got := g.Rows[0][1].AsFloat()
		diff := got - sum
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

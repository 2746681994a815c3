// Package fungusdb_test holds the benchmark harness. One benchmark per
// experiment table/figure from DESIGN.md (BenchmarkE1..E9, which run
// the sim harness end to end and report rows via -v or cmd/fungusbench),
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot paths.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/fungusbench            # full-scale tables
package fungusdb_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fungusdb/internal/catalog"
	"fungusdb/internal/clock"
	"fungusdb/internal/container"
	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/server"
	"fungusdb/internal/sim"
	"fungusdb/internal/storage"
	"fungusdb/internal/stream"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
	"fungusdb/internal/workload"
	"fungusdb/pkg/client"
)

// benchScale keeps per-iteration experiment cost reasonable while
// preserving every shape (they are scale-invariant; see sim tests).
const benchScale = 0.1

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := sim.Config{Scale: benchScale, Seed: 20150104}
	var table *sim.Table
	for i := 0; i < b.N; i++ {
		table = sim.Runner[id](cfg)
	}
	if table == nil || len(table.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	b.ReportMetric(float64(len(table.Rows)), "rows")
}

// BenchmarkE1ChessBoard regenerates DESIGN.md "Table 1".
func BenchmarkE1ChessBoard(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RotSpots regenerates DESIGN.md "Figure 1".
func BenchmarkE2RotSpots(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3BlueCheese regenerates DESIGN.md "Table 2".
func BenchmarkE3BlueCheese(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Consume regenerates DESIGN.md "Table 3".
func BenchmarkE4Consume(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Distill regenerates DESIGN.md "Table 4".
func BenchmarkE5Distill(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Extinction regenerates DESIGN.md "Figure 2".
func BenchmarkE6Extinction(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Health regenerates DESIGN.md "Figure 3".
func BenchmarkE7Health(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8SteadyState regenerates DESIGN.md "Table 5".
func BenchmarkE8SteadyState(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9FreshnessTradeoff regenerates DESIGN.md "Figure 4".
func BenchmarkE9FreshnessTradeoff(b *testing.B) { benchExperiment(b, "E9") }

// --- micro-benchmarks of the hot paths -------------------------------

var microSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
)

func microTable(b *testing.B, f fungus.Fungus, n int) (*core.DB, *core.Table) {
	b.Helper()
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: microSchema, Fungus: f})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(core.Row("sensor-1", float64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
	return db, tbl
}

// BenchmarkInsert measures raw single-tuple insertion.
func BenchmarkInsert(b *testing.B) {
	_, tbl := microTable(b, nil, 0)
	row := core.Row("sensor-1", 21.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tbl.Len()), "final_extent")
}

// BenchmarkConsumeQuery measures consume-mode answers of 1000 tuples,
// reloading between iterations.
func BenchmarkConsumeQuery(b *testing.B) {
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		name := fmt.Sprintf("t%d", i)
		tbl, err := db.CreateTable(name, core.TableConfig{Schema: microSchema})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10_000; j++ {
			tbl.Insert(core.Row("s", float64(j%100)))
		}
		b.StartTimer()
		g, err := tbl.SQL("SELECT CONSUME * FROM " + name + " WHERE temp < 10")
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Rows) != 1000 {
			b.Fatalf("consumed %d", len(g.Rows))
		}
		b.StopTimer()
		db.DropTable(name)
		b.StartTimer()
	}
}

// BenchmarkTickEGI measures one steady-state EGI decay cycle over a
// ~100k extent: each iteration inserts a tick's worth of rows and runs
// one tick (the engine evicts what rots, so the infection front stays
// at its equilibrium size rather than saturating the extent).
func BenchmarkTickEGI(b *testing.B) {
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 8, DecayRate: 0.25, AgeBias: 2})
	db, tbl := microTable(b, egi, 100_000)
	row := core.Row("sensor-1", 20.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			if _, err := tbl.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tbl.Len()), "extent")
}

// BenchmarkTargetedTick measures one decay tick of a catalog-built
// Targeted{Linear} over a 100k extent: the WHERE clause's batch program
// runs once per batch, half the rows are shielded, and a second batch
// walk restores them. The rate is too small for anything to rot.
func BenchmarkTargetedTick(b *testing.B) {
	spec := catalog.FungusSpec{Kind: "targeted", Where: "temp < 50",
		Inner: &catalog.FungusSpec{Kind: "linear", Rate: 1e-9}}
	f, err := spec.Build(microSchema)
	if err != nil {
		b.Fatal(err)
	}
	db, _ := microTable(b, f, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickTTL measures one TTL decay cycle over a 100k extent
// (full scan, unlike EGI's infected-front walk).
func BenchmarkTickTTL(b *testing.B) {
	db, _ := microTable(b, fungus.TTL{Lifetime: 1 << 40}, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedTable builds a table with the given shard count over a 100k
// extent (IoT-shaped rows, no decay unless f is set).
func shardedTable(b *testing.B, shards int, f fungus.Fungus, n int) (*core.DB, *core.Table) {
	b.Helper()
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: microSchema, Fungus: f, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]tuple.Value, 1024)
	for done := 0; done < n; {
		batch := len(rows)
		if rem := n - done; rem < batch {
			batch = rem
		}
		for i := 0; i < batch; i++ {
			rows[i] = core.Row("sensor-1", float64((done+i)%100))
		}
		if _, err := tbl.InsertBatch(rows[:batch]); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
	return db, tbl
}

// BenchmarkShardedTick measures one whole-extent decay cycle over a
// 100k extent as the shard count grows: each shard's fungus walks its
// slice of the time axis on its own worker, so on a multi-core runner
// 4+ shards should tick >= 2x faster than 1 shard. The Linear rate is
// tiny so the extent is stable across iterations (nothing rots within
// the run).
func BenchmarkShardedTick(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, _ := shardedTable(b, shards, fungus.Linear{Rate: 1e-12}, 100_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedGroupBy measures the distributed aggregate path over
// the 100k-row, 32-device extent: each shard buckets its matches by
// dictionary code and folds them off the column slices into a partial
// aggregator, merged in shard order, so grouped analytics never
// materialise a matching tuple. where=all groups every row; where=half
// puts a WHERE kernel in front (NOT (seq < x) lowers to no zone-map
// check, so every segment is still scanned). by=seq+device is the
// worst case for the group index: a unique INT column ahead of the
// STRING one, so every row is a bucket of its own and nothing per
// (bucket, dictionary entry) may be kept.
func BenchmarkShardedGroupBy(b *testing.B) {
	const n = 100_000
	for _, shards := range []int{1, 4} {
		_, tbl := prunedScanTable(b, shards, n)
		for _, tc := range []struct {
			name, keys, where string
			groups            int
		}{
			{"where=all", "device", "", 32},
			{"where=half", "device", fmt.Sprintf(" WHERE NOT (seq < %d)", n/2), 32},
			{"by=seq+device", "seq, device", "", n},
		} {
			pq, err := tbl.Prepare("SELECT " + tc.keys + ", COUNT(*) AS n, AVG(temp) AS avg FROM p" + tc.where + " GROUP BY " + tc.keys)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := pq.Execute()
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for rows.Next() {
						got++
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
					if got != tc.groups {
						b.Fatalf("%d groups, want %d", got, tc.groups)
					}
				}
			})
		}
	}
}

// BenchmarkPreparedQuery compares the prepared plan/execute split with
// the unprepared front doors on a 1%-selective parameterised select
// over a 100k extent:
//
//	mode=prepared   one PreparedQuery, Execute(param) per iteration —
//	                zero parse/validate on the hot path
//	mode=unprepared Table.SQL with a fixed source — full shim, but the
//	                per-table plan LRU absorbs the compile
//	mode=uncached   a distinct source text every iteration, so every
//	                query pays parse + plan + execute
func BenchmarkPreparedQuery(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		_, tbl := shardedTable(b, shards, nil, 100_000)
		pq, err := tbl.Prepare("SELECT device, temp FROM t WHERE temp = ?")
		if err != nil {
			b.Fatal(err)
		}
		drain := func(rows *query.Rows) {
			b.Helper()
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
			if n != 1000 {
				b.Fatalf("answer %d", n)
			}
		}
		b.Run(fmt.Sprintf("mode=prepared/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := pq.Execute(tuple.Float(50))
				if err != nil {
					b.Fatal(err)
				}
				drain(rows)
			}
		})
		b.Run(fmt.Sprintf("mode=unprepared/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := tbl.SQL("SELECT device, temp FROM t WHERE temp = 50")
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Rows) != 1000 {
					b.Fatalf("answer %d", len(g.Rows))
				}
			}
		})
		b.Run(fmt.Sprintf("mode=uncached/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A distinct source text per iteration defeats the plan
				// LRU; varying only the (never-reached) LIMIT keeps the
				// per-tuple work identical to the other modes.
				g, err := tbl.SQL(fmt.Sprintf("SELECT device, temp FROM t WHERE temp = 50 LIMIT %d", 100_000+i))
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Rows) != 1000 {
					b.Fatalf("answer %d", len(g.Rows))
				}
			}
		})
	}
}

// BenchmarkPlanCache isolates what the per-table compiled-statement
// LRU saves: hit = Table.Prepare of a cached statement, miss = the
// full parse + schema validation it would otherwise repeat.
func BenchmarkPlanCache(b *testing.B) {
	_, tbl := shardedTable(b, 1, nil, 16)
	src := "SELECT device, COUNT(*) AS n, AVG(temp) AS avg FROM t WHERE temp >= ? AND device LIKE 'sensor-%' GROUP BY device ORDER BY n DESC LIMIT 10"
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tbl.Prepare(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stmt, err := query.ParseStatement(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stmt.Plan(tbl.Schema()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedIngest measures batched, shard-routed bulk insertion.
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			_, tbl := shardedTable(b, shards, nil, 0)
			rows := make([][]tuple.Value, 1024)
			for i := range rows {
				rows[i] = core.Row("sensor-1", float64(i%100))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.InsertBatch(rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tbl.Len()), "final_extent")
		})
	}
}

// BenchmarkGroupCommit measures row-at-a-time durable ingestion into a
// persistent table across WAL sync levels × shard counts. none never
// fsyncs on the insert path, strict fsyncs the owning shard's log per
// append, and grouped amortises fsyncs over the commit window (the
// background daemon syncs each dirty shard once per window) — grouped
// throughput should sit close to none and far above strict.
func BenchmarkGroupCommit(b *testing.B) {
	for _, shards := range []int{1, 4} {
		for _, level := range []wal.DurabilityLevel{wal.DurabilityNone, wal.DurabilityGrouped, wal.DurabilityStrict} {
			b.Run(fmt.Sprintf("level=%s/shards=%d", level, shards), func(b *testing.B) {
				db, err := core.Open(core.DBConfig{Seed: 1, Dir: b.TempDir(), Durability: level})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { db.Close() })
				tbl, err := db.CreateTable("t", core.TableConfig{Schema: microSchema, Shards: shards, Persist: true})
				if err != nil {
					b.Fatal(err)
				}
				row := core.Row("sensor-1", 21.5)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tbl.Insert(row); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGroupCommitWait measures acknowledged (wait-for-durable)
// ingestion in grouped mode with concurrent writers: each goroutine
// inserts and blocks on its commit future, so the group-commit window
// is what batches their fsyncs together.
func BenchmarkGroupCommitWait(b *testing.B) {
	db, err := core.Open(core.DBConfig{Seed: 1, Dir: b.TempDir(), Durability: wal.DurabilityGrouped})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: microSchema, Shards: 4, Persist: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		row := core.Row("sensor-1", 21.5)
		for pb.Next() {
			_, w, err := tbl.InsertDurable(row)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures insert logging + fsync-free append.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	log, err := wal.Open(filepath.Join(dir, wal.ShardLogFile(0)))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	tp := tuple.New(1, 2, core.Row("sensor-1", 21.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.AppendInsert(tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures cold recovery of a populated multi-shard
// table in the per-shard WAL layout: every shard loads its own snapshot
// and replays its own log, all shards in parallel. Scaling with the
// shard count on a multi-core runner is the parallel-replay win; the
// workload is log-heavy (most tuples live only in the logs) so replay
// dominates over snapshot decoding. shards=1 is the one-shard table's
// snapshot + log recovery.
func BenchmarkRecovery(b *testing.B) {
	const snapshotted, logged = 10_000, 40_000
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			ss := storage.NewSharded(microSchema, shards)
			slog, err := wal.OpenSharded(dir, shards)
			if err != nil {
				b.Fatal(err)
			}
			insert := func(k int) {
				i := ss.NextShard()
				tp, err := ss.InsertShard(i, 1, core.Row("sensor-1", float64(k%100)))
				if err != nil {
					b.Fatal(err)
				}
				if err := slog.AppendInsert(i, tp); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < snapshotted; k++ {
				insert(k)
			}
			if err := slog.Checkpoint(ss, shards); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < logged; k++ {
				insert(snapshotted + k)
			}
			if err := slog.Close(); err != nil {
				b.Fatal(err)
			}
			par := runtime.GOMAXPROCS(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := storage.NewSharded(microSchema, shards)
				if err := wal.RecoverSharded(dir, got, par); err != nil {
					b.Fatal(err)
				}
				if got.Len() != snapshotted+logged {
					b.Fatalf("recovered %d tuples", got.Len())
				}
			}
		})
	}
}

// --- ablations called out in DESIGN.md --------------------------------

// BenchmarkAblationEGIScan contrasts the shipped EGI (infected-front
// walk with segment-aware neighbour lookups) against a naive variant
// that re-scans the whole extent every tick to find its infected
// tuples. Each iteration starts from the same controlled state — 64
// fresh spots on a clean 50k extent — so the comparison measures the
// early/steady phase the front-based design exists for (at full
// saturation both degenerate to a whole-extent walk).
func BenchmarkAblationEGIScan(b *testing.B) {
	const n, spots = 50_000, 64
	s := storage.New(microSchema)
	for i := 0; i < n; i++ {
		s.Insert(1, core.Row("s", float64(i)))
	}
	heal := func() {
		s.EachBatch(func(bt *tuple.Batch) bool {
			for j := range bt.Fs {
				bt.Fs[j], bt.Inf[j] = float64(tuple.Full), false
			}
			return true
		})
	}
	plant := func(egi *fungus.EGI) {
		for k := 0; k < spots; k++ {
			egi.Seed(tuple.ID(k * (n / spots)))
		}
	}

	b.Run("front-walk", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			heal()
			egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 0, DecayRate: 0.01, AgeBias: 2})
			plant(egi)
			b.StartTimer()
			egi.Tick(clock.Tick(i), s, rng, nil)
		}
	})

	b.Run("full-scan", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var ids []tuple.ID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			heal()
			egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 0, DecayRate: 0.01, AgeBias: 2})
			plant(egi)
			b.StartTimer()
			// The naive design: walk every live tuple to locate the
			// infection before running the same spread logic.
			ids = ids[:0]
			s.ScanSystem(func(segIDs []tuple.ID, _ []int64, _ []float64, live []uint64) bool {
				tuple.EachSet(live, func(j int) bool {
					ids = append(ids, segIDs[j])
					return true
				})
				return true
			})
			touched := 0
			for _, id := range ids {
				tp, err := s.Get(id)
				if err == nil && tp.Infected {
					touched++
				}
			}
			egi.Tick(clock.Tick(i), s, rng, nil)
		}
	})
}

// BenchmarkAblationCompaction contrasts deferred compaction (shipped)
// with eager per-evict compaction on an eviction-heavy pattern.
func BenchmarkAblationCompaction(b *testing.B) {
	const n = 20_000
	run := func(b *testing.B, eager bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := storage.New(microSchema, storage.WithSegmentSize(512))
			for j := 0; j < n; j++ {
				s.Insert(1, core.Row("s", float64(j)))
			}
			b.StartTimer()
			for j := 0; j < n; j += 2 { // evict every other tuple
				s.Evict(tuple.ID(j))
				if eager {
					s.Compact()
				}
			}
			if !eager {
				s.Compact()
			}
		}
	}
	b.Run("deferred", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationConsume contrasts consume-by-tombstone (shipped)
// with a copy-rebuild strategy that materialises the surviving extent.
// Both select through the WHERE clause's batch program, once per batch.
func BenchmarkAblationConsume(b *testing.B) {
	const n = 20_000
	fill := func() *storage.Store {
		s := storage.New(microSchema)
		for j := 0; j < n; j++ {
			s.Insert(1, core.Row("s", float64(j%100)))
		}
		return s
	}
	pred, err := query.Compile("temp < 50", microSchema)
	if err != nil {
		b.Fatal(err)
	}
	m := pred.NewBatchMatcher()

	b.Run("tombstone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := fill()
			b.StartTimer()
			var victims []tuple.ID
			s.ScanBatches(nil, func(bt *tuple.Batch) bool {
				sel, _, _ := m.Match(bt)
				tuple.EachSet(sel, func(j int) bool {
					victims = append(victims, bt.IDs[j])
					return true
				})
				return true
			})
			for _, id := range victims {
				s.Evict(id)
			}
			if s.Len() != n/2 {
				b.Fatal("bad consume")
			}
		}
	})

	b.Run("copy-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := fill()
			b.StartTimer()
			rebuilt := storage.New(microSchema)
			s.ScanBatches(nil, func(bt *tuple.Batch) bool {
				sel, _, _ := m.Match(bt)
				for w := range sel {
					sel[w] = bt.Live[w] &^ sel[w]
				}
				tuple.EachSet(sel, func(j int) bool {
					tp := bt.Row(j)
					rebuilt.Insert(tp.T, tp.Attrs)
					return true
				})
				return true
			})
			if rebuilt.Len() != n/2 {
				b.Fatal("bad rebuild")
			}
		}
	})
}

// BenchmarkAblationAgeBias sweeps EGI's seed-position exponent, the
// knob DESIGN.md introduces to resolve the paper's ambiguous seeding
// sentence. Tick cost is identical; what changes is where rot starts,
// reported as the mean seed position (0 = oldest end of the time axis).
// The infection is cleared between iterations so the metric reflects
// the seeding distribution, not accumulated saturation.
func BenchmarkAblationAgeBias(b *testing.B) {
	const n = 10_000
	for _, bias := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("bias=%g", bias), func(b *testing.B) {
			s := storage.New(microSchema)
			for j := 0; j < n; j++ {
				s.Insert(1, core.Row("s", 0.0))
			}
			egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 1, DecayRate: 0, AgeBias: bias})
			rng := rand.New(rand.NewSource(1))
			var sum, cnt float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				egi.Tick(clock.Tick(i), s, rng, nil)
				b.StopTimer()
				// One seed (plus its two neighbours) is infected; its
				// position is the midpoint of the infected ID range.
				lo, hi, found := tuple.ID(0), tuple.ID(0), false
				s.EachBatch(func(bt *tuple.Batch) bool {
					tuple.EachSet(bt.Live, func(j int) bool {
						if bt.Inf[j] {
							if !found {
								lo = bt.IDs[j]
								found = true
							}
							hi = bt.IDs[j]
							bt.Fs[j], bt.Inf[j] = float64(tuple.Full), false
							egi.Forget(bt.IDs[j])
						}
						return true
					})
					return true
				})
				if found {
					sum += float64(lo+hi) / 2
					cnt++
				}
				b.StartTimer()
			}
			b.StopTimer()
			if cnt > 0 {
				b.ReportMetric(sum/cnt/n, "mean_seed_pos")
			}
		})
	}
}

// TestMain keeps benchmark temp dirs out of the repository tree.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// BenchmarkSQLParse measures SELECT statement parsing.
func BenchmarkSQLParse(b *testing.B) {
	const src = "SELECT device, COUNT(*) AS n, AVG(temp) AS avg FROM t WHERE temp BETWEEN 10 AND 30 AND device LIKE 'sensor-%' GROUP BY device ORDER BY n DESC LIMIT 10"
	for i := 0; i < b.N; i++ {
		if _, err := query.ParseSelect(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLGroupBy measures a grouped aggregate over 100k tuples.
func BenchmarkSQLGroupBy(b *testing.B) {
	_, tbl := microTable(b, nil, 0)
	for i := 0; i < 100_000; i++ {
		tbl.Insert(core.Row(fmt.Sprintf("sensor-%d", i%50), float64(i%100)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := tbl.SQL("SELECT device, COUNT(*) AS n, AVG(temp) AS avg FROM t GROUP BY device ORDER BY n DESC LIMIT 5")
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Rows) != 5 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkStreamPoll measures rule evaluation over 10k fresh tuples
// with three standing rules attached.
func BenchmarkStreamPoll(b *testing.B) {
	_, tbl := microTable(b, nil, 0)
	mon := stream.NewMonitor(tbl)
	sink := func(stream.Event) {}
	if err := mon.OnMatch("hot", "temp > 90", sink); err != nil {
		b.Fatal(err)
	}
	if err := mon.OnMatch("all", "", sink); err != nil {
		b.Fatal(err)
	}
	if err := mon.OnSequence("seq", "temp = 0", "temp = 99", 100, sink); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 10_000; j++ {
			tbl.Insert(core.Row("s", float64(j%100)))
		}
		b.StartTimer()
		if _, err := mon.Poll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestAbsorb measures per-tuple distillation cost.
func BenchmarkDigestAbsorb(b *testing.B) {
	gen := workload.NewClickstream(10000, 500, 1)
	d, err := container.NewDigest(gen.Schema(), container.DefaultDigestConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	tp := tuple.New(0, 1, gen.Next())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.ID = tuple.ID(i)
		if err := d.Absorb(&tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestMerge measures rolling two 10k-tuple containers up.
func BenchmarkDigestMerge(b *testing.B) {
	gen := workload.NewClickstream(10000, 500, 1)
	build := func() *container.Digest {
		d, err := container.NewDigest(gen.Schema(), container.DefaultDigestConfig(), rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10_000; i++ {
			tp := tuple.New(tuple.ID(i), 1, gen.Next())
			d.Absorb(&tp)
		}
		return d
	}
	src := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := build()
		b.StartTimer()
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPQuery measures an end-to-end SELECT through the HTTP
// stack (server + client, loopback).
func BenchmarkHTTPQuery(b *testing.B) {
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: microSchema})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		tbl.Insert(core.Row("s", float64(i%100)))
	}
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.Query("SELECT device, COUNT(*) AS n FROM t GROUP BY device")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if err := rows.Err(); err != nil || n != 1 {
			b.Fatalf("%d rows, err %v", n, err)
		}
	}
}

// BenchmarkHTTPInsert measures a 1000-row bulk insert through the HTTP
// stack (client body encode, loopback, the server's single-pass column
// decode, Table.InsertColumns on four shards). Every 64 inserts a TTL
// tick, untimed, empties the table so its size stays bounded.
func BenchmarkHTTPInsert(b *testing.B) {
	gen := workload.NewIoT(512, 1)
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable("t", core.TableConfig{Schema: gen.Schema(), Shards: 4, Fungus: fungus.TTL{Lifetime: 1}}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	rows := make([][]any, 1000)
	for i := range rows {
		r := gen.Next()
		rows[i] = []any{r[0].AsString(), r[1].AsFloat(), r[2].AsFloat(), r[3].AsBool()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := c.Insert("t", rows); err != nil || res.Inserted != len(rows) {
			b.Fatalf("inserted %d, err %v", res.Inserted, err)
		}
		if i%64 == 63 {
			b.StopTimer()
			if _, err := db.Tick(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N*len(rows))/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkIngestPipeline measures the full source->refine->insert path.
func BenchmarkIngestPipeline(b *testing.B) {
	gen := workload.NewIoT(100, 1)
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: gen.Schema()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Insert(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// prunedScanTable builds a 100k extent whose seq column grows
// monotonically with insertion order, so its values correlate with the
// segment layout exactly the way the paper's insertion-time axis
// intends — range predicates over seq can skip whole ID ranges.
func prunedScanTable(b *testing.B, shards, n int) (*core.DB, *core.Table) {
	b.Helper()
	schema := tuple.MustSchema(
		tuple.Column{Name: "seq", Kind: tuple.KindInt},
		tuple.Column{Name: "temp", Kind: tuple.KindFloat},
		tuple.Column{Name: "device", Kind: tuple.KindString},
	)
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("p", core.TableConfig{Schema: schema, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]tuple.Value, 1024)
	for done := 0; done < n; {
		batch := len(rows)
		if rem := n - done; rem < batch {
			batch = rem
		}
		for i := 0; i < batch; i++ {
			seq := done + i
			rows[i] = core.Row(seq, float64(seq%100), fmt.Sprintf("sensor-%d", seq%32))
		}
		if _, err := tbl.InsertBatch(rows[:batch]); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
	return db, tbl
}

// BenchmarkPrunedScan measures a selective scan under zone-map segment
// pruning: the per-segment summaries are consulted and non-overlapping
// ID ranges skipped before a tuple is touched (BenchmarkVectorizedScan
// runs the same selections with every segment in play). Custom metrics
// report the per-op pruning counters (prunedsegs/op, skippedtuples/op)
// that fungusbench -benchjson carries into BENCH_ci.json. The
// prune=pruned suffix keeps the cell names BENCH_baseline.json gates.
func BenchmarkPrunedScan(b *testing.B) {
	const n = 100_000
	for _, shards := range []int{1, 4, 8} {
		_, tbl := prunedScanTable(b, shards, n)
		for _, sel := range []float64{0.001, 0.1, 1.0} {
			want := int(float64(n) * sel)
			pq, err := tbl.Prepare(fmt.Sprintf("SELECT seq FROM p WHERE seq >= %d", n-want))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("sel=%g/shards=%d/prune=pruned", sel, shards), func(b *testing.B) {
				before := tbl.StoreStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := pq.Execute()
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for rows.Next() {
						got++
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
					if got != want {
						b.Fatalf("answer %d, want %d", got, want)
					}
				}
				b.StopTimer()
				after := tbl.StoreStats()
				b.ReportMetric(float64(after.SegsPruned-before.SegsPruned)/float64(b.N), "prunedsegs/op")
				b.ReportMetric(float64(after.TuplesSkipped-before.TuplesSkipped)/float64(b.N), "skippedtuples/op")
			})
		}
	}
}

// BenchmarkOrderedTopK measures the ORDER BY push-down: mode=topk runs
// `ORDER BY temp DESC LIMIT 10` through the per-shard bounded-heap
// route (peak result memory O(shards × 10)), mode=barrier runs the
// same ordering without LIMIT — the materialise-then-sort path the
// push-down replaces — and reads only the first 10 rows.
func BenchmarkOrderedTopK(b *testing.B) {
	const n = 100_000
	for _, shards := range []int{1, 4, 8} {
		_, tbl := prunedScanTable(b, shards, n)
		run := func(src string) func(b *testing.B) {
			pq, err := tbl.Prepare(src)
			if err != nil {
				b.Fatal(err)
			}
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := pq.Execute()
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for got < 10 && rows.Next() {
						got++
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
					if got != 10 {
						b.Fatalf("answer %d, want 10", got)
					}
				}
			}
		}
		b.Run(fmt.Sprintf("mode=topk/shards=%d", shards),
			run("SELECT seq, temp FROM p ORDER BY temp DESC, seq DESC LIMIT 10"))
		b.Run(fmt.Sprintf("mode=barrier/shards=%d", shards),
			run("SELECT seq, temp FROM p ORDER BY temp DESC, seq DESC"))
	}
}

// BenchmarkVectorizedScan measures the columnar batch matcher on a
// materialising scan: the WHERE runs as column-wise kernels that
// produce a selection bitmap per 1k-row batch, and only the matches are
// decoded. NOT (seq < x) selects what seq >= x selects but lowers to no
// zone-map check, so every segment stays in play and the cost is
// predicate evaluation and row materialisation alone. The vec=on
// suffix keeps the cell names BENCH_baseline.json gates.
func BenchmarkVectorizedScan(b *testing.B) {
	const n = 100_000
	for _, shards := range []int{1, 4, 8} {
		_, tbl := prunedScanTable(b, shards, n)
		for _, sel := range []float64{0.001, 0.1, 1.0} {
			want := int(float64(n) * sel)
			pq, err := tbl.Prepare(fmt.Sprintf("SELECT seq FROM p WHERE NOT (seq < %d)", n-want))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("sel=%g/shards=%d/vec=on", sel, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := pq.Execute()
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for rows.Next() {
						got++
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
					if got != want {
						b.Fatalf("answer %d, want %d", got, want)
					}
				}
			})
		}
	}
}

// BenchmarkVectorizedAgg measures whole-batch aggregate folding: the
// distributed COUNT/SUM/MIN/MAX route consumes selection bitmaps and
// folds matching rows straight out of the column slices, with no
// per-tuple materialisation at all. sel=1 (an empty-WHERE full-extent
// aggregate) is the paper's headline case: pure column arithmetic over
// contiguous memory instead of decoding every tuple just to add one
// field. As in BenchmarkVectorizedScan, the WHERE lowers to no zone-map
// check and the vec=on suffix keeps the gated cell names.
func BenchmarkVectorizedAgg(b *testing.B) {
	const n = 100_000
	for _, shards := range []int{1, 4, 8} {
		_, tbl := prunedScanTable(b, shards, n)
		for _, sel := range []float64{0.001, 0.1, 1.0} {
			want := int(float64(n) * sel)
			src := fmt.Sprintf(
				"SELECT COUNT(*) AS c, SUM(temp) AS s, MIN(temp) AS lo, MAX(temp) AS hi FROM p WHERE NOT (seq < %d)",
				n-want)
			if sel == 1.0 {
				src = "SELECT COUNT(*) AS c, SUM(temp) AS s, MIN(temp) AS lo, MAX(temp) AS hi FROM p"
			}
			pq, err := tbl.Prepare(src)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("sel=%g/shards=%d/vec=on", sel, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := pq.Execute()
					if err != nil {
						b.Fatal(err)
					}
					if !rows.Next() {
						b.Fatal("aggregate returned no row")
					}
					if got := int(rows.Values()[0].AsInt()); got != want {
						b.Fatalf("COUNT %d, want %d", got, want)
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

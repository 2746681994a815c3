package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/ingest"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
	datagen "fungusdb/internal/workload"
)

// probeRows is how many of the workload's own rows rung 5 loads into
// each standalone component (scale 1).
const probeRows = 50000

// someRows returns n attribute rows of the insert pool, cycling if n
// asks for more.
func (in *inputs) someRows(n int) [][]tuple.Value {
	out := make([][]tuple.Value, 0, n)
	for len(out) < n {
		for _, b := range in.pool {
			out = append(out, typed(b[:min(len(b), n-len(out))])...)
		}
	}
	return out
}

// components is rung 5: each storage-side module on its own, loaded
// with the workload's tuples, so a layer's floor is known without the
// layers above it.
func (ld *ladder) components() error {
	cfg, in, rec, m := ld.inst.cfg, ld.inst.in, ld.rec, ld.m
	n := scaled(probeRows, cfg.scale, 1000)
	rows := in.someRows(n)
	perRow := func(us float64) float64 { return us * 1e3 / float64(n) }

	// storage: insert, then batch scans with no predicate that read one
	// column of every live row, the least a query can do.
	ss := storage.NewSharded(in.schema, shards)
	tuples := make([]tuple.Tuple, n)
	var err error
	m["storage.insert_ns_per_row"] = perRow(rec.time("storage.Insert", rungStorage, 0, "", func() {
		for i, r := range rows {
			if tuples[i], err = ss.Insert(0, r); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	var scans []float64
	for rep := 0; rep < 5; rep++ {
		seen, sum := 0, 0.0
		us := rec.time("storage.ScanShardBatches", rungStorage, rep, "", func() {
			for i := 0; i < shards; i++ {
				ss.ScanShardBatches(i, nil, func(b *tuple.Batch) bool {
					temps := b.Cols[1].Floats
					tuple.EachSet(b.Live, func(j int) bool {
						sum += temps[j]
						seen++
						return true
					})
					return true
				})
			}
		})
		ld.tally.attempted++
		if seen != n || sum == 0 {
			ld.tally.fail("storage scan saw %d rows, loaded %d", seen, n)
		}
		scans = append(scans, perRow(us))
	}
	m["storage.scan_ns_per_row"] = median(scans)

	// fungus: the decay law alone over one unsharded store.
	st := storage.New(in.schema)
	for _, r := range rows {
		if _, err := st.Insert(0, r); err != nil {
			return fmt.Errorf("fungus probe: %w", err)
		}
	}
	law := fungus.Linear{Rate: decayRate}
	rng := rand.New(rand.NewSource(cfg.seed))
	var ticks []float64
	for t := 1; t <= 5; t++ {
		ticks = append(ticks, perRow(rec.time("fungus.Linear.Tick", rungStorage, t, "", func() { law.Tick(0, st, rng, nil) })))
	}
	m["fungus.tick_ns_per_live_row"] = median(ticks)

	// tuple: the codec the WAL and the snapshots are written in.
	buf := make([]byte, 0, 128*n)
	m["tuple.encode_ns_per_row"] = perRow(rec.time("tuple.AppendEncode", rungStorage, 0, "", func() {
		for _, tp := range tuples {
			buf = tuple.AppendEncode(buf, tp)
		}
	}))
	decoded := 0
	m["tuple.decode_ns_per_row"] = perRow(rec.time("tuple.Decode", rungStorage, 0, "", func() {
		for rest := buf; len(rest) > 0; decoded++ {
			_, used, derr := tuple.Decode(rest, in.schema)
			if derr != nil {
				err = derr
				return
			}
			rest = rest[used:]
		}
	}))
	ld.tally.attempted++
	if err != nil || decoded != n {
		ld.tally.fail("tuple codec: decoded %d of %d rows: %v", decoded, n, err)
	}

	if err := ld.walProbe(ss, tuples, rows); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}

	// ingest: the pipeline straight into a table, no HTTP: the ceiling
	// for rows per second over the wire.
	db, err := core.Open(core.DBConfig{Seed: cfg.seed})
	if err != nil {
		return err
	}
	defer db.Close()
	tbl, err := db.CreateTable("p", core.TableConfig{Schema: in.schema, Shards: shards})
	if err != nil {
		return err
	}
	pipe, err := ingest.New(datagen.NewIoT(devices, cfg.seed), tbl, ingest.Config{BatchSize: 256})
	if err != nil {
		return err
	}
	inserted := 0
	us := rec.time("ingest.Pipeline.Run", rungStorage, 0, "", func() { inserted, err = pipe.Run(n) })
	ld.tally.attempted++
	if err != nil || inserted != n {
		ld.tally.fail("ingest pipeline inserted %d of %d rows: %v", inserted, n, err)
	}
	m["ingest.pipeline_rows_per_s"] = float64(n) / (us / 1e6)
	m["ingest.queue_dropped"] = float64(pipe.Stats().QueueDropped)
	return nil
}

// walProbe drives a standalone wal.ShardedLog: appends, fsyncs, a
// checkpoint of ss, a log tail, and recovery of a copy of the directory.
func (ld *ladder) walProbe(ss *storage.ShardedStore, tuples []tuple.Tuple, rows [][]tuple.Value) error {
	cfg, rec, m := ld.inst.cfg, ld.rec, ld.m
	dir, err := os.MkdirTemp(cfg.tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logDir := filepath.Join(dir, "log")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	sl, err := wal.OpenSharded(logDir, shards)
	if err != nil {
		return err
	}
	defer sl.Close()
	n := len(tuples)
	us := rec.time("wal.AppendInsert", rungStorage, 0, "", func() {
		for _, tp := range tuples {
			if err = sl.AppendInsert(ss.ShardOf(tp.ID), tp); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["wal.append_ns_per_rec"] = us * 1e3 / float64(n)
	var bytes int64
	var recs uint64
	for i := 0; i < shards; i++ {
		size, err := sl.ShardSize(i)
		if err != nil {
			return err
		}
		bytes += size
		recs += sl.RecordCounts()[i]
	}
	m["wal.bytes_per_rec"] = float64(bytes) / float64(recs)

	m["wal.checkpoint_s"] = rec.time("wal.Checkpoint", rungStorage, 0, "", func() { err = sl.Checkpoint(ss, 2) }) / 1e6
	if err != nil {
		return err
	}
	// A tail after the snapshot, fsynced in small groups the way the
	// group-commit daemon does it.
	var syncs []float64
	tail := rows[:n/5]
	for i, r := range tail {
		tp, err := ss.Insert(0, r)
		if err != nil {
			return err
		}
		if err := sl.AppendInsert(ss.ShardOf(tp.ID), tp); err != nil {
			return err
		}
		if (i+1)%64 == 0 {
			sh := ss.ShardOf(tp.ID)
			syncs = append(syncs, rec.time("wal.SyncShard", rungStorage, i, "", func() { err = sl.SyncShard(sh) }))
			if err != nil {
				return err
			}
		}
	}
	m["wal.sync_us_p50"] = median(syncs)
	if err := sl.Sync(); err != nil {
		return err
	}
	image := filepath.Join(dir, "image")
	if err := copyDir(logDir, image); err != nil {
		return err
	}
	back := storage.NewSharded(ss.Schema(), shards)
	m["wal.recover_s"] = rec.time("wal.RecoverSharded", rungStorage, 0, "", func() { err = wal.RecoverSharded(image, back, 2) }) / 1e6
	ld.tally.attempted++
	if err != nil || back.Len() != ss.Len() {
		ld.tally.fail("wal recovery gave %d rows, the store held %d: %v", back.Len(), ss.Len(), err)
	}
	return nil
}

// durable reads the durable path's layer numbers off a persistent
// workload's own table: the group-commit daemon's counters over everything
// the run wrote, then the recovery drill, once. An in-memory workload has
// no durable path: its numbers are 0.
func (ld *ladder) durable() error {
	inst := ld.inst
	if !inst.w.persist {
		return nil
	}
	// Let the commit window close before reading the daemon's counters.
	time.Sleep(5 * time.Millisecond)
	info := inst.tbl.WALInfo()
	ld.m["wal.group_size_avg"] = info.AvgGroupSize
	if rows := inst.tbl.Counters().Inserted; rows > 0 {
		ld.m["wal.group_commits_per_krow"] = float64(info.GroupCommits) / (float64(rows) / 1000)
	}
	from := int64(time.Since(ld.rec.t0))
	rs, err := inst.recoveryDrill(1, &ld.tally)
	if err != nil {
		return fmt.Errorf("recovery drill: %w", err)
	}
	ld.m["core.checkpoint_s"] = rs.checkpointS
	ld.m["core.recovery_s"] = float64(rs.recovery.samples[0].dur) / 1e9
	ld.m["wal.bytes_per_user_byte"] = rs.walPerUserByte
	if rs.missed > 0 {
		ld.warn = append(ld.warn, fmt.Sprintf("the WAL meter missed %d checkpoints: wal.bytes_per_user_byte is too low", rs.missed))
	}
	ld.rec.spans = append(ld.rec.spans, span{Name: "core.Checkpoint", Rung: rungCore, Parent: rungCore - 1,
		Start: from, End: from + int64(rs.checkpointS*1e9)})
	return nil
}

// Package ingest drives data from workload sources into tables: the
// "data ingestion pipeline" the paper names as the place where rotting
// is pre-empted by cooking data "into useful information a.s.a.p."
// (§3).
//
// A Pipeline pulls rows from a Source, batches them, and applies an
// optional Refiner stage that can distill or drop rows before they ever
// reach the extent — cooking at ingestion time. Pipelines run either
// synchronously (Run, used by experiments for determinism) or in the
// background (Start/Stop).
//
// Background ingestion is a bounded-queue producer/consumer: the
// producer claims a shard rotation slot per row and enqueues it into
// that shard's bounded channel, and one flush-on-tick consumer per
// shard drains batches under only that shard's lock. A slow shard
// therefore fills its own queue and exerts backpressure on the source
// (or sheds load, with Config.DropWhenFull) instead of stalling the
// whole pipeline on a contended shard lock.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/obs"
	"fungusdb/internal/tuple"
)

// Source yields rows; workload generators satisfy it. Sources are
// pulled from a single producer goroutine (or the Run caller), so they
// need not be safe for concurrent use.
type Source interface {
	Schema() *tuple.Schema
	Next() []tuple.Value
}

// Refiner inspects a row before insertion. Return keep=false to drop
// the row (it never enters the extent); the Refiner may distill dropped
// rows elsewhere — cooking at the pipeline stage. Refiners run on the
// producer side, before rows are enqueued, so they see source order.
type Refiner interface {
	Refine(row []tuple.Value) (keep bool, err error)
}

// RefinerFunc adapts a function to the Refiner interface.
type RefinerFunc func(row []tuple.Value) (bool, error)

// Refine implements Refiner.
func (f RefinerFunc) Refine(row []tuple.Value) (bool, error) { return f(row) }

// Default background-mode knobs (see Config).
const (
	// DefaultFlushInterval is the consumer flush tick when
	// Config.FlushInterval is zero.
	DefaultFlushInterval = 5 * time.Millisecond
)

// Config parameterises a Pipeline.
type Config struct {
	// BatchSize groups inserts; stats are updated per batch. Must be
	// positive. Background consumers also flush early once a shard has
	// this many rows queued up in its drain buffer.
	BatchSize int
	// Refiner filters/cooks rows before insert. Nil keeps everything.
	Refiner Refiner
	// DistillDropped, when non-empty, names a knowledge container on
	// the table's shelf that absorbs refiner-dropped rows — cooking at
	// the pipeline stage instead of discarding outright. The container
	// never decays (half-life 0).
	DistillDropped string
	// RatePerSecond limits background ingestion (Start). Zero means
	// unthrottled. Ignored by Run, which is driven by explicit counts.
	RatePerSecond float64
	// QueueDepth bounds each shard's pending-row queue in background
	// mode. When a shard's consumer falls behind its queue fills, and
	// the producer either blocks (backpressure, the default) or drops
	// the row (DropWhenFull). 0 means 4×BatchSize.
	QueueDepth int
	// FlushInterval is how often a background consumer drains its
	// shard queue even when the buffered batch is not full, bounding
	// row latency under a trickle load. 0 means DefaultFlushInterval.
	FlushInterval time.Duration
	// DropWhenFull switches the full-queue policy from blocking the
	// source (lossless backpressure) to dropping the incoming row
	// (load shedding, counted in Stats.QueueDropped).
	DropWhenFull bool
}

// Stats reports pipeline progress. All counters are cumulative.
type Stats struct {
	Pulled   uint64 // rows drawn from the source
	Inserted uint64 // rows that reached the extent
	Dropped  uint64 // rows the refiner discarded
	Batches  uint64 // batches inserted into the table
	// Background (Start) mode only:
	Enqueued     uint64 // rows handed to a shard queue
	QueueDropped uint64 // rows shed because their shard queue was full
	Flushes      uint64 // consumer drain rounds that inserted rows
}

// Pipeline connects one Source to one Table. Stats and QueueDepths are
// safe to call from any goroutine; Run, Start and Stop must not be
// called concurrently with each other.
type Pipeline struct {
	mu    sync.Mutex
	src   Source
	tbl   *core.Table
	cfg   Config
	stats Stats

	cancel context.CancelFunc
	done   chan struct{}
	queues []chan []tuple.Value // live only while started

	// onStats, when set (tests only, before Start), runs after every fold
	// of batch counters into stats, so tests wait on progress instead of
	// polling for it.
	onStats func()
}

// New builds a pipeline. The source schema must equal the table schema.
func New(src Source, tbl *core.Table, cfg Config) (*Pipeline, error) {
	if cfg.BatchSize <= 0 {
		return nil, errors.New("ingest: batch size must be positive")
	}
	if cfg.QueueDepth < 0 {
		return nil, errors.New("ingest: queue depth must be non-negative")
	}
	if !src.Schema().Equal(tbl.Schema()) {
		return nil, fmt.Errorf("ingest: source schema (%s) != table schema (%s)", src.Schema(), tbl.Schema())
	}
	return &Pipeline{src: src, tbl: tbl, cfg: cfg}, nil
}

// Stats returns a snapshot of pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// QueueDepths returns the current number of rows pending in each
// shard's queue (indexed by shard), or nil when the pipeline is not
// running in background mode. Depths are instantaneous and advisory —
// the queues drain concurrently.
func (p *Pipeline) QueueDepths() []int {
	p.mu.Lock()
	queues := p.queues
	p.mu.Unlock()
	if queues == nil {
		return nil
	}
	out := make([]int, len(queues))
	for i, q := range queues {
		out[i] = len(q)
	}
	return out
}

// MetricsCollector exposes the pipeline's counters and per-shard queue
// depths as obs metric families, labelled with the destination table
// name. Register it on the serving registry so /metrics scrapes see
// ingestion pressure alongside the engine counters.
func (p *Pipeline) MetricsCollector(table string) obs.Collector {
	tableLabel := obs.Label{Name: "table", Value: table}
	return obs.CollectorFunc(func() []obs.Family {
		st := p.Stats()
		counter := func(name, help string, v uint64) obs.Family {
			return obs.Family{
				Name: name, Help: help, Kind: obs.KindCounter,
				Samples: []obs.Sample{{Labels: []obs.Label{tableLabel}, Value: float64(v)}},
			}
		}
		fams := []obs.Family{
			counter("fungusdb_ingest_pulled_total", "Rows drawn from the pipeline source.", st.Pulled),
			counter("fungusdb_ingest_inserted_total", "Rows that reached the extent through the pipeline.", st.Inserted),
			counter("fungusdb_ingest_refiner_dropped_total", "Rows the refiner discarded before insertion.", st.Dropped),
			counter("fungusdb_ingest_batches_total", "Batches inserted into the table.", st.Batches),
			counter("fungusdb_ingest_enqueued_total", "Rows handed to a shard queue in background mode.", st.Enqueued),
			counter("fungusdb_ingest_queue_dropped_total", "Rows shed because their shard queue was full.", st.QueueDropped),
			counter("fungusdb_ingest_flushes_total", "Consumer drain rounds that inserted rows.", st.Flushes),
		}
		depth := obs.Family{
			Name: "fungusdb_ingest_queue_depth",
			Help: "Rows pending in each shard's ingest queue (background mode; absent when stopped).",
			Kind: obs.KindGauge,
		}
		for shard, n := range p.QueueDepths() {
			depth.Samples = append(depth.Samples, obs.Sample{
				Labels: []obs.Label{tableLabel, {Name: "shard", Value: strconv.Itoa(shard)}},
				Value:  float64(n),
			})
		}
		return append(fams, depth)
	})
}

// Run synchronously ingests exactly n rows (before refinement) and
// returns the number actually inserted. Experiments use Run for
// deterministic, clock-independent loading; it bypasses the queues
// entirely.
func (p *Pipeline) Run(n int) (int, error) {
	inserted := 0
	for done := 0; done < n; {
		batch := p.cfg.BatchSize
		if rem := n - done; rem < batch {
			batch = rem
		}
		ins, err := p.runBatch(batch)
		inserted += ins
		if err != nil {
			return inserted, err
		}
		done += batch
	}
	return inserted, nil
}

// pullBatch draws and refines up to batch rows from the source,
// returning the surviving rows, the rows the refiner rejected (only
// collected when DistillDropped is set), batch-local counters, and the
// first refine error. Producer-side only: the source and refiner are
// not synchronised.
func (p *Pipeline) pullBatch(batch int) (rows [][]tuple.Value, rejected []tuple.Tuple, local Stats, err error) {
	rows = make([][]tuple.Value, 0, batch)
	for i := 0; i < batch; i++ {
		row := p.src.Next()
		local.Pulled++
		if p.cfg.Refiner != nil {
			keep, rerr := p.cfg.Refiner.Refine(row)
			if rerr != nil {
				err = fmt.Errorf("ingest: refine: %w", rerr)
				return rows, rejected, local, err
			}
			if !keep {
				if p.cfg.DistillDropped != "" {
					// Dropped rows never get a tuple ID or tick; wrap
					// them ephemerally so the digest can absorb them.
					rejected = append(rejected, tuple.Tuple{Attrs: row, F: tuple.Full})
				}
				local.Dropped++
				continue
			}
		}
		rows = append(rows, row)
	}
	return rows, rejected, local, nil
}

// distillRejected absorbs refiner-rejected rows into the configured
// shelf container.
func (p *Pipeline) distillRejected(rejected []tuple.Tuple) error {
	if len(rejected) == 0 || p.cfg.DistillDropped == "" {
		return nil
	}
	if err := p.tbl.Shelf().Absorb(p.cfg.DistillDropped, 0, 0, rejected); err != nil {
		return fmt.Errorf("ingest: distill dropped: %w", err)
	}
	return nil
}

// addStats folds batch-local counters into the shared stats.
func (p *Pipeline) addStats(local Stats) {
	p.mu.Lock()
	p.stats.Pulled += local.Pulled
	p.stats.Inserted += local.Inserted
	p.stats.Dropped += local.Dropped
	p.stats.Batches += local.Batches
	p.stats.Enqueued += local.Enqueued
	p.stats.QueueDropped += local.QueueDropped
	p.stats.Flushes += local.Flushes
	p.mu.Unlock()
	if p.onStats != nil {
		p.onStats()
	}
}

// runBatch pulls and refines one batch, then hands the survivors to the
// table as a single shard-routed batch insert: the table groups rows by
// destination shard and takes each shard lock once, instead of the old
// row-at-a-time lock/unlock churn. Pipeline stats are accumulated
// batch-locally and folded in under one lock per batch.
func (p *Pipeline) runBatch(batch int) (int, error) {
	rows, rejected, local, refineErr := p.pullBatch(batch)
	// Flush everything refined before any error surfaces: the source
	// cursor has already advanced past these rows, so dropping them on
	// a refine or distill failure would lose them (the old row-at-a-time
	// pipeline had inserted them by this point). Inserts and dropped-row
	// distillation are independent; attempt both, report the first error.
	var err error
	inserted := 0
	if len(rows) > 0 {
		tps, ierr := p.tbl.InsertBatch(rows)
		if ierr != nil {
			err = fmt.Errorf("ingest: insert: %w", ierr)
			// The batch may be partially applied: count the rows that
			// made it (failed rows come back zero-valued, and a real
			// insert always carries full freshness).
			for _, tp := range tps {
				if tp.F != 0 {
					inserted++
				}
			}
		} else {
			inserted = len(rows)
		}
	}
	if derr := p.distillRejected(rejected); derr != nil && err == nil {
		err = derr
	}
	if err == nil {
		err = refineErr
	}
	local.Inserted = uint64(inserted)
	if err == nil {
		local.Batches = 1
	}
	p.addStats(local)
	return inserted, err
}

// Start launches background ingestion until Stop (or ctx cancellation):
// one producer goroutine pulling, refining and routing rows into
// per-shard bounded queues, plus one consumer goroutine per shard
// draining its queue into the extent in batches, under only its own
// shard lock. It returns an error if the pipeline is already running.
func (p *Pipeline) Start(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancel != nil {
		return errors.New("ingest: pipeline already running")
	}
	ctx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	p.done = make(chan struct{})

	depth := p.cfg.QueueDepth
	if depth == 0 {
		depth = 4 * p.cfg.BatchSize
	}
	shards := p.tbl.Shards()
	queues := make([]chan []tuple.Value, shards)
	for i := range queues {
		queues[i] = make(chan []tuple.Value, depth)
	}
	p.queues = queues

	var consumers sync.WaitGroup
	consumers.Add(shards)
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer consumers.Done()
			p.consume(cancel, i, queues[i])
		}(i)
	}

	done := p.done
	go func() {
		defer close(done)
		p.produce(ctx, queues)
		// Closing the queues flushes the consumers out: each drains
		// what is already buffered, inserts it, and exits — enqueued
		// rows are never abandoned on Stop.
		for _, q := range queues {
			close(q)
		}
		consumers.Wait()
		p.mu.Lock()
		p.queues = nil
		p.mu.Unlock()
	}()
	return nil
}

// produce is the source side of background mode: pull and refine a
// batch, claim a shard rotation slot per surviving row, and enqueue it
// into that shard's bounded queue — blocking for backpressure or
// shedding, per Config.DropWhenFull. Runs until ctx is cancelled or
// the source/refiner fails.
func (p *Pipeline) produce(ctx context.Context, queues []chan []tuple.Value) {
	interval := time.Duration(0)
	if p.cfg.RatePerSecond > 0 {
		interval = time.Duration(float64(time.Second) * float64(p.cfg.BatchSize) / p.cfg.RatePerSecond)
	}
	var tick *time.Ticker
	if interval > 0 {
		tick = time.NewTicker(interval)
		defer tick.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		rows, rejected, local, refineErr := p.pullBatch(p.cfg.BatchSize)
		for _, row := range rows {
			// Claim the rotation slot at enqueue time, so shard routing
			// follows source arrival order even when consumers drain at
			// different speeds.
			i := p.tbl.NextShard()
			if p.cfg.DropWhenFull {
				select {
				case queues[i] <- row:
					local.Enqueued++
				default:
					local.QueueDropped++
				}
				continue
			}
			select {
			case queues[i] <- row:
				local.Enqueued++
			case <-ctx.Done():
				// Shutting down mid-batch: the remaining pulled rows
				// are shed, and counted, rather than blocked on — but
				// refiner-rejected rows still distill (the synchronous
				// path absorbs them before surfacing any exit, too).
				local.QueueDropped += uint64(len(rows)) - local.Enqueued
				_ = p.distillRejected(rejected)
				p.addStats(local)
				return
			}
		}
		if err := p.distillRejected(rejected); err != nil && refineErr == nil {
			refineErr = err
		}
		p.addStats(local)
		if refineErr != nil {
			return // source/refiner is broken; stop quietly like Run's caller would
		}
		if tick != nil {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}
}

// consume is shard i's drain loop: buffer rows from the queue and
// insert them via Table.InsertShardBatch — under shard i's lock alone —
// whenever the buffer reaches BatchSize or the flush tick fires. On an
// insert error (table closed, schema violation) it cancels the whole
// pipeline, since no future batch can succeed either.
func (p *Pipeline) consume(cancel context.CancelFunc, i int, q <-chan []tuple.Value) {
	flushEvery := p.cfg.FlushInterval
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()

	buf := make([][]tuple.Value, 0, p.cfg.BatchSize)
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		tps, err := p.tbl.InsertShardBatch(i, buf)
		var local Stats
		if err != nil {
			for _, tp := range tps {
				if tp.F != 0 {
					local.Inserted++
				}
			}
		} else {
			local.Inserted = uint64(len(buf))
			local.Batches = 1
			local.Flushes = 1
		}
		buf = buf[:0]
		p.addStats(local)
		if err != nil {
			cancel()
			return false
		}
		return true
	}

	for {
		select {
		case row, ok := <-q:
			if !ok {
				flush()
				return
			}
			buf = append(buf, row)
			if len(buf) >= p.cfg.BatchSize {
				if !flush() {
					return
				}
			}
		case <-tick.C:
			if !flush() {
				return
			}
		}
	}
}

// Stop halts background ingestion and waits for the producer and every
// shard consumer to exit; rows already enqueued are drained into the
// table first. It is a no-op when the pipeline is not running.
func (p *Pipeline) Stop() {
	p.mu.Lock()
	cancel, done := p.cancel, p.done
	p.cancel, p.done = nil, nil
	p.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Package ingest drives data from workload sources into tables: the
// "data ingestion pipeline" the paper names as the place where rotting
// is pre-empted by cooking data "into useful information a.s.a.p."
// (§3).
//
// A Pipeline pulls rows from a Source, batches them, and applies an
// optional Refiner stage that can distill or drop rows before they ever
// reach the extent — cooking at ingestion time. Run ingests an explicit
// number of rows synchronously, so loading is deterministic and needs
// no clock.
package ingest

import (
	"errors"
	"fmt"
	"sync"

	"fungusdb/internal/core"
	"fungusdb/internal/obs"
	"fungusdb/internal/tuple"
)

// Source yields rows; workload generators satisfy it. Sources are
// pulled only by the Run caller, so they need not be safe for
// concurrent use.
type Source interface {
	Schema() *tuple.Schema
	Next() []tuple.Value
}

// Refiner inspects a row before insertion. Return keep=false to drop
// the row (it never enters the extent); the Refiner may distill dropped
// rows elsewhere — cooking at the pipeline stage. Refiners see rows in
// source order.
type Refiner interface {
	Refine(row []tuple.Value) (keep bool, err error)
}

// RefinerFunc adapts a function to the Refiner interface.
type RefinerFunc func(row []tuple.Value) (bool, error)

// Refine implements Refiner.
func (f RefinerFunc) Refine(row []tuple.Value) (bool, error) { return f(row) }

// Config parameterises a Pipeline.
type Config struct {
	// BatchSize groups inserts; stats are updated per batch. Must be
	// positive.
	BatchSize int
	// Refiner filters/cooks rows before insert. Nil keeps everything.
	Refiner Refiner
	// DistillDropped, when non-empty, names a knowledge container on
	// the table's shelf that absorbs refiner-dropped rows — cooking at
	// the pipeline stage instead of discarding outright. The container
	// never decays (half-life 0).
	DistillDropped string
}

// Stats reports pipeline progress. All counters are cumulative.
type Stats struct {
	Pulled   uint64 // rows drawn from the source
	Inserted uint64 // rows that reached the extent
	Dropped  uint64 // rows the refiner discarded
	Batches  uint64 // batches inserted into the table
	// QueueDropped is always 0: the pipeline has no queue, so it never
	// sheds a row. It stays only because bench/fungusload reports it as
	// ingest.queue_dropped.
	QueueDropped uint64
}

// Pipeline connects one Source to one Table. Stats is safe to call from
// any goroutine; Run must not be called concurrently with itself.
type Pipeline struct {
	mu    sync.Mutex
	src   Source
	tbl   *core.Table
	cfg   Config
	stats Stats
}

// New builds a pipeline. The source schema must equal the table schema.
func New(src Source, tbl *core.Table, cfg Config) (*Pipeline, error) {
	if cfg.BatchSize <= 0 {
		return nil, errors.New("ingest: batch size must be positive")
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

// MetricsCollector exposes the pipeline's counters as obs metric
// families, labelled with the destination table name. Register it on
// the serving registry so /metrics scrapes see ingestion alongside the
// engine counters.
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
		return []obs.Family{
			counter("fungusdb_ingest_pulled_total", "Rows drawn from the pipeline source.", st.Pulled),
			counter("fungusdb_ingest_inserted_total", "Rows that reached the extent through the pipeline.", st.Inserted),
			counter("fungusdb_ingest_refiner_dropped_total", "Rows the refiner discarded before insertion.", st.Dropped),
			counter("fungusdb_ingest_batches_total", "Batches inserted into the table.", st.Batches),
		}
	})
}

// Run synchronously ingests exactly n rows (before refinement) and
// returns the number actually inserted.
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
// first refine error. The source and refiner are not synchronised.
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
	p.mu.Unlock()
}

// runBatch pulls and refines one batch, then hands the survivors to the
// table as one InsertBatch, which takes each shard lock once. Pipeline
// stats are accumulated batch-locally and folded in under one lock per
// batch.
func (p *Pipeline) runBatch(batch int) (int, error) {
	rows, rejected, local, refineErr := p.pullBatch(batch)
	// Flush everything refined before any error surfaces: the source
	// cursor has already advanced past these rows, so dropping them on
	// a refine or distill failure would lose them. Inserts and dropped-row
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

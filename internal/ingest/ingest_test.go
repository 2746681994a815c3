package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/obs"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
	"fungusdb/internal/workload"
)

func newTable(t *testing.T, schema *tuple.Schema) *core.Table {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// startWatched starts p in the background and returns a wait that
// blocks until cond holds for p's counters. The wait re-checks after
// every fold the pipeline makes (its onStats hook) instead of polling;
// the timeout only turns a hang into a failure.
func startWatched(t *testing.T, p *Pipeline) (wait func(what string, cond func(Stats) bool) Stats) {
	t.Helper()
	progress := make(chan struct{}, 1)
	p.onStats = func() {
		select {
		case progress <- struct{}{}:
		default: // a wake-up is already pending; it reads the latest counters
		}
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return func(what string, cond func(Stats) bool) Stats {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			if st := p.Stats(); cond(st) {
				return st
			}
			select {
			case <-progress:
			case <-timeout:
				t.Fatalf("%s: %+v", what, p.Stats())
			}
		}
	}
}

func TestRunIngestsExactly(t *testing.T) {
	gen := workload.NewIoT(10, 1)
	tbl := newTable(t, gen.Schema())
	p, err := New(gen, tbl, Config{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || tbl.Len() != 100 {
		t.Errorf("inserted %d, table %d", n, tbl.Len())
	}
	st := p.Stats()
	if st.Pulled != 100 || st.Inserted != 100 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Batches != 15 { // 14 full batches of 7 + final 2
		t.Errorf("batches = %d, want 15", st.Batches)
	}
}

func TestRefinerDropsRows(t *testing.T) {
	gen := workload.NewSyslog(4, 2)
	tbl := newTable(t, gen.Schema())
	// Cook at ingestion: drop the chatty severities (6 and 7).
	refiner := RefinerFunc(func(row []tuple.Value) (bool, error) {
		return row[1].AsInt() < 6, nil
	})
	p, err := New(gen, tbl, Config{BatchSize: 50, Refiner: refiner})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Pulled != 1000 {
		t.Errorf("pulled %d", st.Pulled)
	}
	if st.Inserted+st.Dropped != 1000 {
		t.Errorf("inserted %d + dropped %d != 1000", st.Inserted, st.Dropped)
	}
	if st.Dropped < 700 { // ~85% of syslog is severity >= 6
		t.Errorf("dropped only %d chatty rows", st.Dropped)
	}
	if tbl.Len() != int(st.Inserted) {
		t.Errorf("table %d != inserted %d", tbl.Len(), st.Inserted)
	}
}

func TestDistillDroppedRows(t *testing.T) {
	gen := workload.NewSyslog(4, 9)
	tbl := newTable(t, gen.Schema())
	refiner := RefinerFunc(func(row []tuple.Value) (bool, error) {
		return row[1].AsInt() < 6, nil // keep only the serious lines
	})
	p, err := New(gen, tbl, Config{
		BatchSize:      100,
		Refiner:        refiner,
		DistillDropped: "chatter",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	c := tbl.Shelf().Get("chatter")
	if c == nil {
		t.Fatal("dropped-row container missing")
	}
	if c.Digest.Count() != st.Dropped {
		t.Errorf("container %d != dropped %d", c.Digest.Count(), st.Dropped)
	}
	// The chatter knowledge is queryable even though no chatty row ever
	// entered the extent.
	ndv, err := c.Digest.NDV("host")
	if err != nil {
		t.Fatal(err)
	}
	if ndv < 3 || ndv > 5 {
		t.Errorf("NDV(host) over dropped rows = %d, want ≈4", ndv)
	}
}

func TestRefinerErrorAborts(t *testing.T) {
	gen := workload.NewIoT(5, 3)
	tbl := newTable(t, gen.Schema())
	boom := errors.New("boom")
	p, _ := New(gen, tbl, Config{BatchSize: 10, Refiner: RefinerFunc(func([]tuple.Value) (bool, error) {
		return false, boom
	})})
	if _, err := p.Run(10); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	gen := workload.NewIoT(5, 4)
	tbl := newTable(t, gen.Schema())
	if _, err := New(gen, tbl, Config{BatchSize: 0}); err == nil {
		t.Error("zero batch accepted")
	}
	other := newTable(t, workload.NewSyslog(2, 1).Schema())
	if _, err := New(gen, other, Config{BatchSize: 1}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestBackgroundStartStop(t *testing.T) {
	gen := workload.NewIoT(5, 5)
	tbl := newTable(t, gen.Schema())
	p, err := New(gen, tbl, Config{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWatched(t, p)
	if err := p.Start(context.Background()); err == nil {
		t.Error("double start accepted")
	}
	wait("background ingest too slow", func(st Stats) bool { return st.Inserted >= 100 })
	p.Stop()
	// Stop returned after the producer's epilogue, which runs once every
	// consumer exited and drops the queues: nothing is left to insert,
	// and everything inserted is counted.
	if p.QueueDepths() != nil {
		t.Error("pipeline goroutines still running after Stop")
	}
	if n := tbl.Len(); uint64(n) != p.Stats().Inserted {
		t.Errorf("table %d != inserted %d after Stop", n, p.Stats().Inserted)
	}
	p.Stop() // no-op
}

func TestBackgroundRateLimitThrottles(t *testing.T) {
	gen := workload.NewIoT(5, 6)
	tbl := newTable(t, gen.Schema())
	// 1000 rows/s in batches of 10 -> one batch per 10ms.
	p, err := New(gen, tbl, Config{BatchSize: 10, RatePerSecond: 1000})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	wait := startWatched(t, p)
	wait("nothing ingested", func(st Stats) bool { return st.Inserted >= 50 })
	p.Stop()
	elapsed := time.Since(start)
	// The producer pulls one batch at once and one more per tick, so in
	// elapsed it pulled at most 10 + 1000/s × elapsed rows. An
	// unthrottled burst would insert tens of thousands.
	if got, most := tbl.Len(), 10+int(1000*elapsed.Seconds()); got > most {
		t.Errorf("rate limiter ineffective: %d rows in %v, at most %d at 1000/s", got, elapsed, most)
	}
}

func TestBackgroundStopsOnClosedTable(t *testing.T) {
	gen := workload.NewIoT(5, 7)
	tbl := newTable(t, gen.Schema())
	p, _ := New(gen, tbl, Config{BatchSize: 5})
	tbl.Close()
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The worker must exit promptly on insert failure.
	deadline := time.After(2 * time.Second)
	select {
	case <-p.done:
	case <-deadline:
		t.Fatal("worker did not exit after table close")
	}
	p.Stop()
}

func TestContextCancellationStops(t *testing.T) {
	gen := workload.NewIoT(5, 8)
	tbl := newTable(t, gen.Schema())
	p, _ := New(gen, tbl, Config{BatchSize: 10, RatePerSecond: 100})
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker did not exit on context cancellation")
	}
}

// --- bounded-queue background mode ------------------------------------

func newShardedTable(t *testing.T, schema *tuple.Schema, shards int) *core.Table {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{Schema: schema, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// Stop drains: every row handed to a shard queue is inserted before
// Stop returns, and the counters conserve (pulled = inserted +
// refiner-dropped + queue-shed).
func TestBoundedQueueDrainsOnStop(t *testing.T) {
	gen := workload.NewIoT(5, 11)
	tbl := newShardedTable(t, gen.Schema(), 4)
	p, err := New(gen, tbl, Config{BatchSize: 32, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWatched(t, p)
	wait("bounded-queue ingest too slow", func(st Stats) bool { return st.Inserted >= 500 })
	p.Stop()
	st := p.Stats()
	if st.Enqueued == 0 {
		t.Fatal("nothing enqueued")
	}
	if st.Inserted != st.Enqueued {
		t.Errorf("inserted %d != enqueued %d (Stop must drain the queues)", st.Inserted, st.Enqueued)
	}
	if got := uint64(tbl.Len()); got != st.Inserted {
		t.Errorf("table %d != inserted %d", got, st.Inserted)
	}
	if st.Pulled != st.Inserted+st.Dropped+st.QueueDropped {
		t.Errorf("conservation broken: pulled %d != inserted %d + dropped %d + shed %d",
			st.Pulled, st.Inserted, st.Dropped, st.QueueDropped)
	}
	if st.Flushes == 0 {
		t.Error("no consumer flushes recorded")
	}
}

// QueueDepths reports one entry per shard while running, nil after.
func TestQueueDepthsLifecycle(t *testing.T) {
	gen := workload.NewIoT(5, 12)
	tbl := newShardedTable(t, gen.Schema(), 3)
	p, err := New(gen, tbl, Config{BatchSize: 16, RatePerSecond: 500})
	if err != nil {
		t.Fatal(err)
	}
	if p.QueueDepths() != nil {
		t.Error("queue depths non-nil before Start")
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.QueueDepths(); len(got) != 3 {
		t.Errorf("queue depths = %v, want 3 entries", got)
	}
	p.Stop()
	if p.QueueDepths() != nil {
		t.Error("queue depths non-nil after Stop")
	}
}

// DropWhenFull sheds instead of blocking: with a strict-durability
// (fsync-per-append) single shard and a one-slot queue, the unthrottled
// producer must overrun the consumer and count drops — while everything
// enqueued still lands.
func TestDropWhenFullShedsLoad(t *testing.T) {
	gen := workload.NewIoT(5, 13)
	db, err := core.Open(core.DBConfig{Seed: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", core.TableConfig{
		Schema: gen.Schema(), Shards: 1, Persist: true, Durability: wal.DurabilityStrict,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(gen, tbl, Config{BatchSize: 64, QueueDepth: 1, DropWhenFull: true})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWatched(t, p)
	wait("drop policy never shed a row", func(st Stats) bool { return st.QueueDropped > 0 })
	p.Stop()
	st := p.Stats()
	if st.Inserted != st.Enqueued {
		t.Errorf("inserted %d != enqueued %d", st.Inserted, st.Enqueued)
	}
	if st.Pulled != st.Inserted+st.Dropped+st.QueueDropped {
		t.Errorf("conservation broken: %+v", st)
	}
}

var (
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// exposition renders reg as Prometheus text and parses it back: every
// # TYPE follows its family's # HELP, every sample line is well formed
// and follows its own family's # TYPE. It returns family name -> type
// and sample (name plus rendered label set) -> value.
func exposition(t *testing.T, reg *obs.Registry) (types map[string]string, samples map[string]float64) {
	t.Helper()
	fams, err := reg.Gather()
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := obs.WriteText(&text, fams); err != nil {
		t.Fatal(err)
	}
	types, samples = map[string]string{}, map[string]float64{}
	var help, family string
	sc := bufio.NewScanner(strings.NewReader(text.String()))
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			help, _, _ = strings.Cut(name, " ")
			continue
		}
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if m[1] != help {
				t.Fatalf("# TYPE %s not preceded by its # HELP", m[1])
			}
			family, types[m[1]] = m[1], m[2]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil || m[1] != family {
			t.Fatalf("malformed or misplaced sample line %q (family %q)", line, family)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q", line)
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

// The pipeline's /metrics face: a queue-depth sample per shard while
// running and none after Stop, every counter equal to its Stats field,
// every sample labelled with the table (the lookups below key on the
// full label set), and valid exposition text.
func TestMetricsCollector(t *testing.T) {
	const shards = 3
	gen := workload.NewIoT(5, 15)
	tbl := newShardedTable(t, gen.Schema(), shards)
	p, err := New(gen, tbl, Config{BatchSize: 16, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Register(p.MetricsCollector("readings"))
	const depth = "fungusdb_ingest_queue_depth"
	wantTypes := map[string]string{
		"fungusdb_ingest_pulled_total":          "counter",
		"fungusdb_ingest_inserted_total":        "counter",
		"fungusdb_ingest_refiner_dropped_total": "counter",
		"fungusdb_ingest_batches_total":         "counter",
		"fungusdb_ingest_enqueued_total":        "counter",
		"fungusdb_ingest_queue_dropped_total":   "counter",
		"fungusdb_ingest_flushes_total":         "counter",
		depth:                                   "gauge",
	}
	depthSamples := func(samples map[string]float64) int {
		n := 0
		for key := range samples {
			if strings.HasPrefix(key, depth+"{") {
				n++
			}
		}
		return n
	}

	wait := startWatched(t, p)
	wait("background ingest too slow", func(st Stats) bool { return st.Inserted >= 100 })
	types, samples := exposition(t, reg)
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("families = %v, want %v", types, wantTypes)
	}
	for i := 0; i < shards; i++ {
		if _, ok := samples[fmt.Sprintf(`%s{table="readings",shard="%d"}`, depth, i)]; !ok {
			t.Errorf("no queue depth for shard %d", i)
		}
	}
	if n := depthSamples(samples); n != shards {
		t.Errorf("%d queue depth samples while running, want %d", n, shards)
	}

	p.Stop()
	st := p.Stats()
	types, samples = exposition(t, reg)
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("families after Stop = %v, want %v", types, wantTypes)
	}
	if n := depthSamples(samples); n != 0 {
		t.Errorf("%d queue depth samples after Stop, want none", n)
	}
	for name, want := range map[string]uint64{
		"fungusdb_ingest_pulled_total":          st.Pulled,
		"fungusdb_ingest_inserted_total":        st.Inserted,
		"fungusdb_ingest_refiner_dropped_total": st.Dropped,
		"fungusdb_ingest_batches_total":         st.Batches,
		"fungusdb_ingest_enqueued_total":        st.Enqueued,
		"fungusdb_ingest_queue_dropped_total":   st.QueueDropped,
		"fungusdb_ingest_flushes_total":         st.Flushes,
	} {
		if got, ok := samples[name+`{table="readings"}`]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), Stats says %d", name, got, ok, want)
		}
	}
}

// The refiner still runs (producer-side) in background mode, and
// refined-away rows never reach a queue.
func TestBackgroundRefinerRuns(t *testing.T) {
	gen := workload.NewSyslog(4, 14)
	tbl := newShardedTable(t, gen.Schema(), 2)
	refiner := RefinerFunc(func(row []tuple.Value) (bool, error) {
		return row[1].AsInt() < 6, nil
	})
	p, err := New(gen, tbl, Config{BatchSize: 25, Refiner: refiner})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWatched(t, p)
	wait("refiner starved", func(st Stats) bool { return st.Dropped > 50 && st.Inserted > 5 })
	p.Stop()
	st := p.Stats()
	if st.Enqueued+st.Dropped+st.QueueDropped != st.Pulled {
		t.Errorf("refined rows leaked into the queues: %+v", st)
	}
}

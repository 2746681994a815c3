package main

import (
	"fmt"
	"math/rand"
	"sort"

	"fungusdb/internal/tuple"
	datagen "fungusdb/internal/workload"
)

const (
	tableName = "t"
	iotSchema = "device STRING, temp FLOAT, battery FLOAT, alarm BOOL"
	shards    = 4
	devices   = 512
	// distinctParams is how many bindings each prepared class cycles
	// through. Warm-up runs each once; the first is checked row-for-row
	// against the in-process answer, the others fix the expected count.
	distinctParams = 4
	// adhocTexts is 8x the engine's 128-entry plan cache, so ad-hoc
	// statements always miss it.
	adhocTexts = 1024
	decayRate  = 0.02 // fungus.Linear: a tuple lives 50 ticks
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
	// checkpointEvery is the persistent table's checkpoint interval in
	// logged mutations; recoveryTail is how many batches the crash image's
	// logs hold beyond its snapshots (scale 1), and recoveries how often
	// it is recovered.
	checkpointEvery = 200000
	recoveryTail    = 100
	recoveries      = 5
)

// class is one statement shape a query client sends.
type class struct {
	name    string
	sql     string  // prepared text; for ad-hoc classes a Sprintf template
	adhoc   bool    // sent as SQL text with inlined literals via Client.Query
	consume bool    // SELECT CONSUME: mutates, so no row-for-row check
	params  [][]any // bindings, cycled; JSON-typed (float64, string, bool)
	ladderN int     // requests replayed per rung in a traced run (scale 1)
}

// request is the SQL text and the parameters of request k: the prepared
// text with a binding, or for an ad-hoc class the text with its literals
// inlined and nothing to bind.
func (c *class) request(k int) (text string, params []any) {
	params = c.params[k%len(c.params)]
	if c.adhoc {
		return fmt.Sprintf(c.sql, params...), nil
	}
	return c.sql, params
}

// workload is one traffic mix. Counts are at scale 1.
type workload struct {
	name string
	why  string

	preload   int     // rows inserted in set-up
	decay     float64 // fungus.Linear rate, 0 = no decay
	persist   bool    // WAL + snapshots in a temp dir, durability=grouped
	batchRows int     // rows per insert batch
	tickEvery int     // a tick follows every Nth insert batch

	queryClients int // closed-loop query connections
	// openLoopPerSec > 0: one more connection posts this many insert
	// batches per second on a fixed schedule (open loop).
	openLoopPerSec int
	// steadyTicks: set-up runs the insert/tick schedule in-process for
	// this many ticks, so the phase starts at the steady live count.
	steadyTicks int
	// writers > 0: that many closed-loop connections share a fixed
	// count of batchesPerSec x seconds insert batches. The rate is
	// calibrated once on the reference box and frozen, so the work, the
	// bytes and the recovery are the same on every commit.
	writers       int
	batchesPerSec int

	poolBatches int // distinct insert batches, cycled
	build       func(in *inputs, rng *rand.Rand)
}

// writes reports whether the workload's clients insert and tick.
func (w *workload) writes() bool { return w.openLoopPerSec > 0 || w.writers > 0 }

var workloads = []*workload{
	{
		name:    "read_stream",
		why:     "many rows out: materialise, merge, NDJSON encode, flush and client decode do the work; parse, plan and prune almost none",
		preload: 300000, batchRows: 500, tickEvery: 10, queryClients: 2, poolBatches: 40,
		build: func(in *inputs, _ *rand.Rand) {
			battery := in.column(2)
			temp := in.column(1)
			limit := class{name: "limit", ladderN: 60,
				sql: "SELECT device, temp, battery FROM t WHERE battery >= ? LIMIT 2000"}
			wide := class{name: "wide", ladderN: 12,
				sql: "SELECT * FROM t WHERE temp > ?"} // ~5 % of the table
			for i := 0; i < distinctParams; i++ {
				limit.params = append(limit.params, []any{quantile(battery, grid(i, 0.3, 0.9))})
				wide.params = append(wide.params, []any{quantile(temp, grid(i, 0.945, 0.955))})
			}
			in.classes = []class{limit, wide}
			in.cycle = []int{0, 1}
		},
	},
	{
		name:    "read_analytic",
		why:     "few rows out: parse, plan cache, zone-map pruning, kernels and top-k do the work; materialise and encode idle — the mirror of read_stream",
		preload: 300000, batchRows: 500, tickEvery: 10, queryClients: 2, poolBatches: 40,
		build: func(in *inputs, rng *rand.Rand) {
			temp := in.column(1)
			battery := in.column(2)
			agg := class{name: "agg", ladderN: 60,
				sql: "SELECT COUNT(*), SUM(temp), MIN(battery), MAX(temp) FROM t WHERE temp > ? AND battery < ?"}
			group := class{name: "group", ladderN: 12,
				sql: "SELECT device, COUNT(*), AVG(temp) FROM t WHERE battery < ? GROUP BY device"}
			sel := class{name: "selective", ladderN: 60, // 0.1 % of the table, pruned by zone maps
				sql: "SELECT _id, device, temp FROM t WHERE _id BETWEEN ? AND ?"}
			topk := class{name: "topk", ladderN: 12,
				sql: "SELECT device, temp FROM t WHERE battery < ? ORDER BY temp DESC LIMIT 50"}
			adhoc := class{name: "adhoc", adhoc: true, ladderN: 60,
				sql: "SELECT COUNT(*), MAX(battery) FROM t WHERE temp > %v"}
			rows := len(in.rows)
			span := rows / 1000
			for i := 0; i < distinctParams; i++ {
				agg.params = append(agg.params, []any{quantile(temp, grid(i, 0.2, 0.8)), quantile(battery, grid(i, 0.5, 1))})
				group.params = append(group.params, []any{quantile(battery, grid(i, 0.5, 1))})
				lo := 1 + rng.Intn(rows-span)
				sel.params = append(sel.params, []any{float64(lo), float64(lo + span - 1)})
				topk.params = append(topk.params, []any{quantile(battery, grid(i, 0.5, 1))})
			}
			for i := 0; i < adhocTexts; i++ {
				adhoc.params = append(adhoc.params, []any{quantile(temp, float64(i)/adhocTexts)})
			}
			in.classes = []class{agg, group, sel, topk, adhoc}
			in.cycle = []int{0, 1, 2, 4, 3, 0, 2, 4} // one request in four is ad-hoc
		},
	},
	{
		name: "mixed_decay",
		why:  "the paper's scenario: open-loop ingest and decay ticks beside closed-loop queries on the same shards, so shard-lock wait, tick cost and insert-time zone-map upkeep show",
		// One tuple lifetime (50 ticks x 10 batches) of distinct batches:
		// the live set is always the whole pool, so selectivities hold
		// still while the data churns.
		decay: decayRate, batchRows: 500, tickEvery: 10, queryClients: 1,
		openLoopPerSec: 40, steadyTicks: 60, poolBatches: 500,
		build: func(in *inputs, _ *rand.Rand) {
			temp := in.column(1)
			battery := in.column(2)
			limit := class{name: "limit", ladderN: 60,
				sql: "SELECT device, temp FROM t WHERE temp > ? LIMIT 100"}
			count := class{name: "count", ladderN: 60,
				sql: "SELECT COUNT(*) FROM t WHERE battery < ?"}
			// A tenth of the rows reach the heap, so this measures the scan
			// under contention; read_analytic has the top-k that
			// materialises most of the table.
			topk := class{name: "topk", ladderN: 24,
				sql: "SELECT device, temp FROM t WHERE battery < ? ORDER BY temp DESC LIMIT 50"}
			// The issue's `alarm = true` alone would eat half the table:
			// the generator's temperatures drift up until most rows
			// alarm. The temp bound keeps a consume at ~0.5 % of the live
			// rows.
			consume := class{name: "consume", consume: true, ladderN: 6,
				sql: "SELECT CONSUME device, temp FROM t WHERE alarm = true AND temp > ?"}
			for i := 0; i < distinctParams; i++ {
				limit.params = append(limit.params, []any{quantile(temp, grid(i, 0.3, 0.7))})
				count.params = append(count.params, []any{quantile(battery, grid(i, 0.3, 0.9))})
				topk.params = append(topk.params, []any{quantile(battery, grid(i, 0.05, 0.15))})
				consume.params = append(consume.params, []any{quantile(temp, grid(i, 0.994, 0.996))})
			}
			in.classes = []class{limit, count, topk, consume}
			for i := 0; i < 19; i++ {
				in.cycle = append(in.cycle, i%3)
			}
			in.cycle = append(in.cycle, 3) // one request in twenty consumes
		},
	},
	{
		name:    "ingest_durable",
		why:     "fixed count of durable insert batches, then crash recovery: JSON row decode, InsertBatch, WAL append, group commit, checkpoint and replay do the work; the query layers none",
		persist: true, decay: decayRate, preload: 100000, batchRows: 1000, tickEvery: 10,
		writers: 2, batchesPerSec: 300, poolBatches: 256,
		build: func(in *inputs, _ *rand.Rand) {
			// The only statement is the one that proves recovery; the
			// traced ladder replays it so the query rungs are defined.
			in.classes = []class{{name: "count", ladderN: 40, sql: "SELECT COUNT(*) FROM t", params: [][]any{{}}}}
			in.cycle = []int{0}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything generated from the seed before the program under
// test sees a byte: the rows, the insert batches and every parameter.
type inputs struct {
	schema    *tuple.Schema
	rows      [][]tuple.Value // set-up preload
	pool      [][][]any       // insert batches as Client.Insert takes them, cycled
	userBytes []int           // per batch: bytes of its rows under tuple.AppendEncode
	classes   []class
	cycle     []int // class index per request; each client sends it in a shuffled order
}

// scaled shrinks a count, keeping at least min.
func scaled(n int, scale float64, min int) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}

func buildInputs(w *workload, seed int64, scale float64) *inputs {
	gen := datagen.NewIoT(devices, seed)
	in := &inputs{schema: gen.Schema()}
	if w.preload > 0 {
		in.rows = make([][]tuple.Value, scaled(w.preload, scale, 2000))
		for i := range in.rows {
			in.rows[i] = gen.Next()
		}
	}
	batchRows := scaled(w.batchRows, scale, 4)
	var enc []byte
	for b := 0; b < w.poolBatches; b++ {
		boxed := make([][]any, batchRows)
		bytes := 0
		for r := range boxed {
			row := gen.Next()
			boxed[r] = []any{row[0].AsString(), row[1].AsFloat(), row[2].AsFloat(), row[3].AsBool()}
			enc = tuple.AppendEncode(enc[:0], tuple.New(tuple.ID(b*batchRows+r+1), 0, row))
			bytes += len(enc)
		}
		in.pool = append(in.pool, boxed)
		in.userBytes = append(in.userBytes, bytes)
	}
	w.build(in, rand.New(rand.NewSource(seed*7919+17)))
	return in
}

// grid spreads the distinctParams bindings of a class evenly over the
// quantile range lo..hi. The seed changes the data, and so the values
// bound, but not how selective the bindings are: runs with different
// seeds do the same amount of work.
func grid(i int, lo, hi float64) float64 {
	return lo + (hi-lo)*(float64(i)+0.5)/distinctParams
}

// column returns the ascending values of FLOAT column i over the rows
// the table holds while it is queried: the preload, or for a workload
// without one the insert pool, which is its live set.
func (in *inputs) column(i int) []float64 {
	var out []float64
	for _, row := range in.rows {
		out = append(out, row[i].AsFloat())
	}
	if len(in.rows) == 0 {
		for _, b := range in.pool {
			for _, row := range b {
				out = append(out, row[i].(float64))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// typed converts one pool batch to the engine's values, for the calls
// that bypass HTTP.
func typed(batch [][]any) [][]tuple.Value {
	out := make([][]tuple.Value, len(batch))
	for i, row := range batch {
		out[i] = []tuple.Value{tuple.String_(row[0].(string)), tuple.Float(row[1].(float64)), tuple.Float(row[2].(float64)), tuple.Bool(row[3].(bool))}
	}
	return out
}

// toValues types JSON-shaped parameters the way the server's
// decodeParams does, for the in-process rungs.
func toValues(params []any) []tuple.Value {
	out := make([]tuple.Value, len(params))
	for i, p := range params {
		switch x := p.(type) {
		case float64:
			if x == float64(int64(x)) {
				out[i] = tuple.Int(int64(x))
			} else {
				out[i] = tuple.Float(x)
			}
		case string:
			out[i] = tuple.String_(x)
		case bool:
			out[i] = tuple.Bool(x)
		}
	}
	return out
}

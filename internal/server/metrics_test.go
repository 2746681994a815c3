package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/tuple"
	"fungusdb/pkg/client"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)
	helpLine   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
)

// parseExposition validates the text format line by line and returns
// family name -> type, plus sample name -> value for singly-labelled
// table samples (label set {table="logs"}).
func parseExposition(t *testing.T, body string) (types map[string]string, tableVals map[string]float64) {
	t.Helper()
	types = map[string]string{}
	tableVals = map[string]float64{}
	var lastHelp, lastType string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if m := helpLine.FindStringSubmatch(line); m != nil {
			lastHelp = m[1]
			continue
		}
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if lastHelp != m[1] {
				t.Fatalf("# TYPE %s not preceded by its # HELP (saw %q)", m[1], lastHelp)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("family %s declared twice", m[1])
			}
			types[m[1]] = m[2]
			lastType = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if base != lastType && m[1] != lastType {
			// Samples must follow their family's TYPE comment.
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q before its # TYPE", line)
			}
		}
		if m[2] == `{table="logs"}` {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q", line)
			}
			tableVals[m[1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, tableVals
}

// TestMetricsExposition checks the scrape is a valid Prometheus text
// exposition covering the engine metric catalog (>= 12 engine families)
// plus the per-route latency histogram.
func TestMetricsExposition(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seed(t, c)
	if status, lines := postQuery(t, ts.URL, `{"sql":"SELECT * FROM logs WHERE sev > 1"}`); status != http.StatusOK {
		t.Fatalf("status %d, lines %q", status, lines)
	}
	if _, err := c.Tick(2); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, ts.URL)
	types, _ := parseExposition(t, body)

	engine := 0
	for name, kind := range types {
		if strings.HasPrefix(name, "fungusdb_table_") || strings.HasPrefix(name, "fungusdb_storage_") || strings.HasPrefix(name, "fungusdb_wal_") {
			engine++
		}
		if strings.HasSuffix(name, "_total") && kind != "counter" {
			t.Errorf("%s has _total suffix but TYPE %s", name, kind)
		}
	}
	if engine < 12 {
		t.Errorf("only %d engine families exposed, want >= 12:\n%v", engine, types)
	}
	if types["fungusdb_http_query_seconds"] != "histogram" {
		t.Errorf("latency histogram missing or mistyped: %q", types["fungusdb_http_query_seconds"])
	}
	// The query above must have landed in the route histogram.
	if !strings.Contains(body, `fungusdb_http_query_seconds_count{route="v2_query"} 1`) {
		t.Errorf("v2_query latency not recorded:\n%s", body)
	}
	// Stable names: the acceptance set the dashboards build on.
	for _, name := range []string{
		"fungusdb_table_inserted_total", "fungusdb_table_rotted_total",
		"fungusdb_table_consumed_total", "fungusdb_table_queries_total",
		"fungusdb_table_ticks_total", "fungusdb_table_live_tuples",
		"fungusdb_table_shard_tuples", "fungusdb_storage_segments_pruned_total",
		"fungusdb_storage_tuples_skipped_total", "fungusdb_storage_batches_scanned_total",
		"fungusdb_storage_rows_vectorized_total", "fungusdb_wal_generation",
	} {
		if _, ok := types[name]; !ok {
			t.Errorf("metric %s missing from scrape", name)
		}
	}
}

// TestMetricsStatsParity cross-checks every counter the scrape exports
// for a table against the /v1 stats endpoint: the two surfaces read the
// same engine state and must agree while the table is quiescent.
func TestMetricsStatsParity(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seed(t, c)
	if _, err := queryRows(c, "SELECT CONSUME * FROM logs WHERE sev = 7"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(4); err != nil { // linear 0.25 fungus: 4 ticks rots the survivors
		t.Fatal(err)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/tables/logs/stats", &st)
	_, vals := parseExposition(t, scrape(t, ts.URL))
	for name, want := range map[string]float64{
		"fungusdb_table_inserted_total":          float64(st.Inserted),
		"fungusdb_table_rotted_total":            float64(st.Rotted),
		"fungusdb_table_consumed_total":          float64(st.Consumed),
		"fungusdb_table_distilled_total":         float64(st.Distilled),
		"fungusdb_table_queries_total":           float64(st.Queries),
		"fungusdb_table_ticks_total":             float64(st.Ticks),
		"fungusdb_table_live_tuples":             float64(st.Live),
		"fungusdb_table_bytes":                   float64(st.Bytes),
		"fungusdb_table_shards":                  float64(st.Shards),
		"fungusdb_table_capture_rate":            st.CaptureRate,
		"fungusdb_storage_segments_pruned_total": float64(st.SegmentsPruned),
		"fungusdb_storage_tuples_skipped_total":  float64(st.TuplesSkipped),
		"fungusdb_storage_batches_scanned_total": float64(st.BatchesScanned),
		"fungusdb_storage_rows_vectorized_total": float64(st.RowsVectorized),
		"fungusdb_wal_generation":                float64(st.WALGeneration),
		"fungusdb_wal_shards":                    float64(st.WALShards),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("scrape missing %s{table=\"logs\"}", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, stats endpoint says %v", name, got, want)
		}
	}
	if st.Consumed == 0 || st.Rotted == 0 {
		t.Fatalf("test did not exercise consume/rot: %+v", st)
	}
}

// TestMetricsScrapeConcurrent scrapes while inserts, queries and decay
// ticks run — the -race CI job drives this to prove the scrape path
// takes consistent locks against the engine's writers, and that
// pkg/client decodes NDJSON streams cut from shards under that churn.
func TestMetricsScrapeConcurrent(t *testing.T) {
	db, err := core.Open(core.DBConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := tuple.MustSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindFloat},
	)
	tbl, err := db.CreateTable("hot", core.TableConfig{Schema: schema, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	run := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func() error { // writer
		rows := make([][]tuple.Value, 32)
		for i := range rows {
			rows[i] = core.Row(i, float64(i)*1.5)
		}
		_, err := tbl.InsertBatch(rows)
		return err
	})
	run(func() error { // decay
		_, err := db.Tick()
		return err
	})
	run(func() error { // reader
		_, err := tbl.SQL("SELECT COUNT(*) FROM hot WHERE k > 10")
		return err
	})
	stmt, err := client.New(ts.URL, ts.Client()).Prepare("SELECT k, v FROM hot WHERE k > ? LIMIT 600")
	if err != nil {
		t.Fatal(err)
	}
	bound, streamed := 0, 0
	run(func() error { // streamer: a prepared /v2/query decoded client-side
		bound = (bound + 7) % 32
		rows, err := stmt.Query(bound)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			if k := rows.Row()[0].(float64); k <= float64(bound) {
				return fmt.Errorf("streamed k=%v, bound %d", k, bound)
			}
			streamed++
		}
		return rows.Err()
	})
	for i := 0; i < 3; i++ { // three concurrent scrapers
		run(func() error {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("scrape status %d", resp.StatusCode)
			}
			return nil
		})
	}
	wg.Wait()
	if streamed == 0 {
		t.Error("the streamer decoded no rows")
	}
	// Post-churn scrape still parses.
	parseExposition(t, scrape(t, ts.URL))
}

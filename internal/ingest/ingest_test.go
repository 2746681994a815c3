package ingest

import (
	"bufio"
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/internal/obs"
	"fungusdb/internal/tuple"
	"fungusdb/internal/workload"
)

func newTable(t *testing.T, schema *tuple.Schema, shards int) *core.Table {
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

func TestRunIngestsExactly(t *testing.T) {
	gen := workload.NewIoT(10, 1)
	tbl := newTable(t, gen.Schema(), 1)
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
	tbl := newTable(t, gen.Schema(), 1)
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
	tbl := newTable(t, gen.Schema(), 1)
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
	tbl := newTable(t, gen.Schema(), 1)
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
	tbl := newTable(t, gen.Schema(), 1)
	if _, err := New(gen, tbl, Config{BatchSize: 0}); err == nil {
		t.Error("zero batch accepted")
	}
	other := newTable(t, workload.NewSyslog(2, 1).Schema(), 1)
	if _, err := New(gen, other, Config{BatchSize: 1}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// Run on a closed table fails on its first batch with the table's
// closed error and leaves the table as it was.
func TestRunOnClosedTable(t *testing.T) {
	gen := workload.NewIoT(5, 7)
	tbl := newTable(t, gen.Schema(), 3)
	p, err := New(gen, tbl, Config{BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	n, err := p.Run(20)
	if err == nil || !strings.Contains(err.Error(), `table "t" is closed`) {
		t.Fatalf("Run on a closed table: err = %v, want the closed-table error", err)
	}
	if n != 0 {
		t.Errorf("Run inserted %d rows into a closed table", n)
	}
	if st := p.Stats(); st.Inserted != 0 || st.Batches != 0 {
		t.Errorf("stats = %+v, want nothing inserted and no batch", st)
	}
	if got := tbl.Len(); got != 0 {
		t.Errorf("closed table holds %d rows", got)
	}
	if c := tbl.Counters(); c.Inserted != 0 {
		t.Errorf("closed table counted %d inserts", c.Inserted)
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

// The pipeline's /metrics face after Run: exactly the four counter
// families, each equal to its Stats field and labelled with the table
// (the lookups below key on the full label set), in valid exposition
// text.
func TestMetricsCollector(t *testing.T) {
	gen := workload.NewSyslog(4, 15)
	tbl := newTable(t, gen.Schema(), 3)
	refiner := RefinerFunc(func(row []tuple.Value) (bool, error) {
		return row[1].AsInt() < 6, nil
	})
	p, err := New(gen, tbl, Config{BatchSize: 16, Refiner: refiner})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Register(p.MetricsCollector("readings"))
	if _, err := p.Run(500); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Inserted == 0 || st.Dropped == 0 {
		t.Fatalf("want rows both inserted and refined away: %+v", st)
	}

	types, samples := exposition(t, reg)
	wantTypes := map[string]string{
		"fungusdb_ingest_pulled_total":          "counter",
		"fungusdb_ingest_inserted_total":        "counter",
		"fungusdb_ingest_refiner_dropped_total": "counter",
		"fungusdb_ingest_batches_total":         "counter",
	}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("families = %v, want %v", types, wantTypes)
	}
	if len(samples) != len(wantTypes) {
		t.Errorf("%d samples, want one per family: %v", len(samples), samples)
	}
	for name, want := range map[string]uint64{
		"fungusdb_ingest_pulled_total":          st.Pulled,
		"fungusdb_ingest_inserted_total":        st.Inserted,
		"fungusdb_ingest_refiner_dropped_total": st.Dropped,
		"fungusdb_ingest_batches_total":         st.Batches,
	} {
		if got, ok := samples[name+`{table="readings"}`]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), Stats says %d", name, got, ok, want)
		}
	}
}

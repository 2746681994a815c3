package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/pkg/client"
)

func spec() client.TableSpec {
	return client.TableSpec{
		Name:   "logs",
		Schema: "host STRING, sev INT, latency FLOAT, ok BOOL",
		Fungus: &client.FungusSpec{Kind: "linear", Rate: 0.25},
	}
}

func seed(t *testing.T, c *client.Client) {
	t.Helper()
	if err := c.CreateTable(spec()); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Insert("logs", [][]any{
		{"web-1", 2, 9.5, true},
		{"web-2", 7, 1.25, false},
		{"web-1", 5, 3.0, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != 3 || resp.FirstID != 0 {
		t.Fatalf("insert resp = %+v", resp)
	}
}

// queryRows runs sql over the streaming endpoint and collects its rows.
func queryRows(c *client.Client, sql string) ([][]any, error) {
	rows, err := c.Query(sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		out = append(out, append([]any(nil), rows.Row()...))
	}
	return out, rows.Err()
}

// postQuery posts a raw /v2/query body — the way to reach fields
// pkg/client does not send, such as "distill" — and returns the status
// and the answer's NDJSON lines.
func postQuery(t *testing.T, url, body string) (int, []string) {
	t.Helper()
	resp, err := http.Post(url+"/v2/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// getJSON decodes a GET answer for the fields pkg/client does not
// mirror (the full stats body, the container listing).
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestHealthAndTables(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	now, err := c.Health()
	if err != nil || now != 0 {
		t.Fatalf("health = %d, %v", now, err)
	}
	seed(t, c)
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "logs" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	rows, err := queryRows(c, "SELECT host, sev, latency, ok FROM logs WHERE sev <= 5 ORDER BY sev")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	r0 := rows[0]
	if r0[0] != "web-1" || r0[1] != float64(2) || r0[2] != 9.5 || r0[3] != true {
		t.Errorf("row 0 = %v", r0)
	}
}

func TestQueryGroupBy(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	rows, err := queryRows(c, "SELECT host, COUNT(*) AS n FROM logs GROUP BY host ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "web-1" || rows[0][1] != float64(2) {
		t.Errorf("rows = %+v", rows)
	}
}

// TestConsumeAndContainersOverHTTP is the CONSUME + distill check over
// /v2/query: pkg/client has no distill option, so the body is raw.
func TestConsumeAndContainersOverHTTP(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seed(t, c)
	status, lines := postQuery(t, ts.URL, `{"sql":"SELECT CONSUME * FROM logs WHERE sev <= 5","distill":"serious"}`)
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); status != http.StatusOK || err != nil || !trailer.Done {
		t.Fatalf("status %d, lines %q (%v)", status, lines, err)
	}
	if len(lines) != 4 || trailer.Rows != 2 { // header + 2 rows + trailer
		t.Fatalf("consumed rows = %d, lines %q", trailer.Rows, lines)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/tables/logs/stats", &st)
	if st.Live != 1 || st.Consumed != 2 || st.Distilled != 2 {
		t.Errorf("stats = %+v", st)
	}
	var cs struct{ Containers []ContainerInfo }
	getJSON(t, ts.URL+"/v1/tables/logs/containers", &cs)
	if len(cs.Containers) != 1 || cs.Containers[0].Name != "serious" || cs.Containers[0].Count != 2 {
		t.Errorf("containers = %+v", cs.Containers)
	}
}

func TestAskContainerOverHTTP(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seed(t, c)
	if status, lines := postQuery(t, ts.URL, `{"sql":"SELECT CONSUME * FROM logs","distill":"all"}`); status != http.StatusOK {
		t.Fatalf("status %d, lines %q", status, lines)
	}
	cases := []struct {
		q    string
		want float64
	}{
		{"count", 3},
		{"sum:sev", 14},
		{"ndv:host", 2},
	}
	for _, tc := range cases {
		resp, err := c.Ask("logs", "all", tc.q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", tc.q, err)
		}
		if resp.Value != tc.want {
			t.Errorf("Ask(%q) = %v, want %v", tc.q, resp.Value, tc.want)
		}
	}
	resp, err := c.Ask("logs", "all", "q:latency:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value < 1 || resp.Value > 10 {
		t.Errorf("median latency = %v", resp.Value)
	}
	resp, err = c.Ask("logs", "all", "top:host")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Top) != 2 || resp.Top[0].Item != "web-1" {
		t.Errorf("top = %+v", resp.Top)
	}
	resp, err = c.Ask("logs", "all", "has:host:web-1")
	if err != nil || resp.Bool == nil || !*resp.Bool {
		t.Errorf("has:host:web-1 = %+v, %v", resp, err)
	}
	resp, err = c.Ask("logs", "all", "has:sev:99")
	if err != nil || resp.Bool == nil || *resp.Bool {
		t.Errorf("has:sev:99 = %+v, %v", resp, err)
	}
	// Errors.
	for _, q := range []string{"nonsense", "ndv", "mean:host", "q:latency:x", "has:sev"} {
		if _, err := c.Ask("logs", "all", q); err == nil {
			t.Errorf("Ask(%q) accepted", q)
		}
	}
	if _, err := c.Ask("logs", "nosuch", "count"); err == nil {
		t.Error("missing container accepted")
	}
}

func TestTickDecaysOverHTTP(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	// Linear rate 0.25: everything rots on the 4th tick.
	resp, err := c.Tick(4)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rotted != 3 || resp.Live != 0 || resp.Now != 4 {
		t.Errorf("tick resp = %+v", resp)
	}
	st, _ := c.Stats("logs")
	if st.Live != 0 || st.Rotted != 3 {
		t.Errorf("stats after rot = %+v", st)
	}
}

func TestDropTable(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	if err := c.DropTable("logs"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("logs"); err == nil {
		t.Error("double drop succeeded")
	}
	tables, _ := c.Tables()
	if len(tables) != 0 {
		t.Errorf("tables = %v", tables)
	}
}

func TestErrorsSurfaceAsJSON(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	persistent := spec()
	persistent.Persist = true
	cases := []func() error{
		func() error { return c.CreateTable(spec()) }, // duplicate
		func() error { return c.CreateTable(client.TableSpec{Name: "x", Schema: "bad"}) },
		func() error { return c.CreateTable(persistent) }, // persist without Dir
		func() error { _, err := c.Insert("nosuch", [][]any{{1}}); return err },
		func() error { _, err := c.Insert("logs", [][]any{{"only-one"}}); return err },
		func() error { _, err := c.Insert("logs", [][]any{{1, 2, 3, 4}}); return err }, // wrong kinds
		func() error { _, err := c.Insert("logs", nil); return err },
		func() error { _, err := queryRows(c, "SELECT nosuch FROM logs"); return err },
		func() error { _, err := queryRows(c, "SELECT * FROM nosuch"); return err },
		func() error { _, err := queryRows(c, "not sql"); return err },
		func() error { _, err := c.Tick(2_000_000); return err },
	}
	for i, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("case %d succeeded", i)
		} else if !strings.Contains(err.Error(), "server:") {
			t.Errorf("case %d error not from server envelope: %v", i, err)
		}
	}
}

func TestIntColumnRejectsFractional(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seed(t, c)
	if _, err := c.Insert("logs", [][]any{{"h", 2.5, 1.0, true}}); err == nil {
		t.Error("fractional INT accepted")
	}
}

func TestPersistentSpecOverHTTP(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(core.DBConfig{Seed: 5, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	c := client.New(ts.URL, ts.Client())
	persistent := spec()
	persistent.Persist = true
	if err := c.CreateTable(persistent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("logs", [][]any{{"web-1", 1, 1.0, true}}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	db.Close()

	// Restart the whole stack on the same dir.
	db2, err := core.Open(core.DBConfig{Seed: 5, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ts2 := httptest.NewServer(New(db2))
	defer ts2.Close()
	c2 := client.New(ts2.URL, ts2.Client())
	rows, err := queryRows(c2, "SELECT COUNT(*) FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != float64(1) {
		t.Errorf("count after restart = %v", rows[0][0])
	}
}

func TestUnknownRoute(t *testing.T) {
	_, _, ts := newServer(t, Config{})
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestDurabilityStatsOverHTTP(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(core.DBConfig{Seed: 5, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	s := spec()
	s.Durability = "grouped"
	s.Persist = true
	if err := c.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(s.Name, [][]any{{"web-1", 1, 1.0, true}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(s.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Persistent || st.WALSyncMode != "grouped" {
		t.Errorf("stats = %+v, want persistent grouped", st)
	}
	// Unknown durability levels are rejected at create time.
	bad := spec()
	bad.Name = "bad"
	bad.Durability = "paranoid"
	if err := c.CreateTable(bad); err == nil {
		t.Error("bad durability accepted over HTTP")
	}
}

func TestPruningCountersOverHTTP(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seed(t, c)
	// sev spans [2, 7]; a disjoint range predicate lets the zone map
	// skip the whole (single) segment without touching a tuple.
	rows, err := queryRows(c, "SELECT host FROM logs WHERE sev > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(rows))
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/tables/logs/stats", &st)
	if st.SegmentsPruned == 0 || st.TuplesSkipped == 0 {
		t.Errorf("pruning counters missing from stats: %+v", st)
	}
}

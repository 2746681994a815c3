package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fungusdb/internal/core"
	"fungusdb/pkg/client"
)

// newServer spins up a server plus the public client.
func newServer(t *testing.T, cfg Config) (*client.Client, *core.DB, *httptest.Server) {
	t.Helper()
	db, err := core.Open(core.DBConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := httptest.NewServer(NewWithConfig(db, cfg))
	t.Cleanup(ts.Close)
	return client.New(ts.URL, ts.Client()), db, ts
}

func seedV2(t *testing.T, c *client.Client, rows int) {
	t.Helper()
	if err := c.CreateTable(client.TableSpec{
		Name:   "logs",
		Schema: "host STRING, sev INT, latency FLOAT, ok BOOL",
		Shards: 4,
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([][]any, 0, 1000)
	for i := 0; i < rows; i++ {
		batch = append(batch, []any{fmt.Sprintf("web-%d", i%5), i % 10, float64(i % 100), i%2 == 0})
		if len(batch) == cap(batch) || i == rows-1 {
			if _, err := c.Insert("logs", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

func TestV2PrepareAndStreamWithParams(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seedV2(t, c, 500)
	stmt, err := c.Prepare("SELECT host, sev FROM logs WHERE sev >= ? AND latency <= ? ORDER BY sev DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams != 2 {
		t.Fatalf("params = %d, want 2", stmt.NumParams)
	}
	if len(stmt.Cols) != 2 || stmt.Cols[0] != "host" {
		t.Fatalf("cols = %v", stmt.Cols)
	}
	rows, err := stmt.Query(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if sev, ok := rows.Row()[1].(float64); !ok || sev < 8 {
			t.Fatalf("row %v violates sev >= 8", rows.Row())
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("rows = %d, want 10", n)
	}
	// Re-preparing the same SQL reuses the handle.
	stmt2, err := c.Prepare("SELECT host, sev FROM logs WHERE sev >= ? AND latency <= ? ORDER BY sev DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.Handle != stmt.Handle {
		t.Fatalf("handle = %q, want reuse of %q", stmt2.Handle, stmt.Handle)
	}
}

// TestV2HandleHealsAfterTableRecreate drops and recreates the table
// behind a prepared handle: executing the stale handle fails (the old
// plan is bound to the closed table), and re-preparing the same SQL
// must re-bind the handle to the new table rather than hand the stale
// compilation back.
func TestV2HandleHealsAfterTableRecreate(t *testing.T) {
	c, _, _ := newServer(t, Config{})
	seedV2(t, c, 20)
	stmt, err := c.Prepare("SELECT host FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("logs"); err != nil {
		t.Fatal(err)
	}
	seedV2(t, c, 5)
	if _, err := stmt.Query(); err == nil {
		t.Fatal("stale handle executed against a dropped table")
	}
	stmt2, err := c.Prepare("SELECT host FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.Handle != stmt.Handle {
		t.Fatalf("re-prepare minted a new handle %q (had %q)", stmt2.Handle, stmt.Handle)
	}
	rows, err := stmt2.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("healed handle streamed %d rows, want 5", n)
	}
}

// TestV2Streams100kRows is the acceptance criterion: a 100k-row answer
// arrives complete over the NDJSON stream, and the server's own
// response writer never buffers it whole (httptest's default recorder
// would; the real server flushes every flushBytes bytes).
func TestV2Streams100kRows(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row stream in -short mode")
	}
	c, _, _ := newServer(t, Config{})
	seedV2(t, c, 100_000)
	rows, err := c.Query("SELECT host, sev, latency FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100_000 {
		t.Fatalf("streamed %d rows, want 100000", n)
	}
	if rows.Scanned() != 100_000 {
		t.Fatalf("scanned = %d, want 100000", rows.Scanned())
	}
}

// TestV2EarlyDisconnectReleasesServer closes the response body after a
// few rows and checks the server-side scan unwinds (the table accepts
// writes promptly afterwards).
func TestV2EarlyDisconnectReleasesServer(t *testing.T) {
	c, db, _ := newServer(t, Config{})
	seedV2(t, c, 50_000)
	rows, err := c.Query("SELECT host FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
	}
	rows.Close()
	tbl, err := db.Table("logs")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.Insert(core.Row("late", 1, 0.5, true))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert blocked after client disconnect")
	}
}

func TestV2ErrorCodes(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seedV2(t, c, 10)
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"parse", "/v2/prepare", `{"sql":"SELEC nope"}`, 400, ErrCodeParse},
		{"plan", "/v2/prepare", `{"sql":"SELECT nosuch FROM logs"}`, 400, ErrCodePlan},
		{"no table", "/v2/prepare", `{"sql":"SELECT * FROM nosuch"}`, 404, ErrCodeNotFound},
		{"stale handle", "/v2/query", `{"handle":"p999"}`, 404, ErrCodeNotFound},
		{"both", "/v2/query", `{"sql":"SELECT * FROM logs","handle":"p1"}`, 400, ErrCodeBadRequest},
		{"neither", "/v2/query", `{}`, 400, ErrCodeBadRequest},
		{"bad param", "/v2/query", `{"sql":"SELECT * FROM logs WHERE sev > ?","params":[null]}`, 400, ErrCodeBadRequest},
		{"arity", "/v2/query", `{"sql":"SELECT * FROM logs WHERE sev > ?"}`, 400, ErrCodeExec},
		{"sql parse", "/v2/query", `{"sql":"SELEC nope"}`, 400, ErrCodeParse},
		{"sql no table", "/v2/query", `{"sql":"SELECT * FROM nosuch"}`, 404, ErrCodeNotFound},
		{"sql plan", "/v2/query", `{"sql":"SELECT nosuch FROM logs"}`, 400, ErrCodePlan},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var env errorBody
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s: got %d/%q (%s), want %d/%q",
				tc.name, resp.StatusCode, env.Error.Code, env.Error.Message, tc.status, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestV2AskErrorShape checks the v1 ask handler speaks the same error
// envelope with compile-time validation.
func TestV2AskErrorShape(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seedV2(t, c, 10)
	get := func(path string) (int, errorBody) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorBody
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}
	if status, env := get("/v1/tables/logs/containers/none/ask?q=count"); status != 404 || env.Error.Code != ErrCodeNotFound {
		t.Fatalf("missing container = %d/%q", status, env.Error.Code)
	}
	// Unknown column now fails at compile time with plan_error.
	if status, env := get("/v1/tables/logs/containers/none/ask?q=ndv:nosuch"); status != 400 || env.Error.Code != ErrCodePlan {
		t.Fatalf("unknown ask column = %d/%q", status, env.Error.Code)
	}
}

func TestMaxRequestBytesConfigurable(t *testing.T) {
	c, _, ts := newServer(t, Config{MaxRequestBytes: 256})
	if err := c.CreateTable(client.TableSpec{Name: "logs", Schema: "host STRING, sev INT, latency FLOAT, ok BOOL"}); err != nil {
		t.Fatal(err)
	}
	// A body over the 256-byte cap must be rejected.
	var big bytes.Buffer
	big.WriteString(`{"rows":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`["hostname-padding-padding",1,2.5,true]`)
	}
	big.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/tables/logs/rows", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	// Small bodies still work.
	if _, err := c.Insert("logs", [][]any{{"w", 1, 2.5, true}}); err != nil {
		t.Fatal(err)
	}
}

// TestV2WireFormat reads the raw NDJSON to pin the wire contract:
// header line, row lines, trailer line.
func TestV2WireFormat(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seedV2(t, c, 3)
	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"sql":"SELECT host FROM logs"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 5 { // header + 3 rows + trailer
		t.Fatalf("lines = %d (%v)", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], `{"cols":["host"]}`) {
		t.Fatalf("header = %q", lines[0])
	}
	for _, l := range lines[1:4] {
		if !strings.HasPrefix(l, "[") {
			t.Fatalf("row line = %q", l)
		}
	}
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(lines[4]), &trailer); err != nil || !trailer.Done || trailer.Rows != 3 {
		t.Fatalf("trailer = %q (%v)", lines[4], err)
	}
}

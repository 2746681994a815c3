// Package client is the Go client for a fungusd server. It speaks
// both API generations: the materialised v1 endpoints (table DDL, bulk
// insert, decay ticks, stats, container questions) and the v2
// prepared-statement surface, where SELECTs compile once into a
// server-side handle and results stream back as NDJSON rows instead of
// one buffered grid.
//
// The package is self-contained — it mirrors the wire JSON with its
// own types rather than importing engine internals — so external tools
// can depend on it without pulling the engine in.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client talks to one fungusd server.
type Client struct {
	base string
	hc   *http.Client
}

// New targets base (e.g. "http://localhost:8044"). A nil httpClient
// uses http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Error is a decoded server error: a stable machine-readable code plus
// a human message (the {"error":{"code","message"}} envelope).
type Error struct {
	Code    string
	Message string
	Status  int
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: %s (%s)", e.Message, e.Code)
	}
	return fmt.Sprintf("server: status %d: %s", e.Status, e.Message)
}

type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// decodeError turns a non-2xx response body into an *Error.
func decodeError(status int, data []byte) error {
	var env errEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		return &Error{Code: env.Error.Code, Message: env.Error.Message, Status: status}
	}
	return &Error{Status: status, Message: strings.TrimSpace(string(data))}
}

// do runs one materialised JSON round trip.
func (c *Client) do(method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal: %w", err)
		}
	}
	return c.send(method, path, data, out)
}

// send is do with the request body already encoded; nil sends none.
func (c *Client) send(method, path string, data []byte, out any) error {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: request: %w", err)
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read: %w", err)
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, answer)
	}
	if out != nil {
		if err := json.Unmarshal(answer, out); err != nil {
			return fmt.Errorf("client: decode: %w", err)
		}
	}
	return nil
}

// FungusSpec mirrors the server's declarative fungus description (the
// subset external tools configure).
type FungusSpec struct {
	Kind     string  `json:"kind"`
	Rate     float64 `json:"rate,omitempty"`
	Lifetime uint64  `json:"lifetime,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	HalfLife float64 `json:"half_life,omitempty"`
	Seeds    int     `json:"seeds,omitempty"`
	AgeBias  float64 `json:"age_bias,omitempty"`
}

// TableSpec mirrors the server's declarative table description.
type TableSpec struct {
	Name         string      `json:"name"`
	Schema       string      `json:"schema"`
	Fungus       *FungusSpec `json:"fungus,omitempty"`
	Shards       int         `json:"shards,omitempty"`
	TickEvery    int         `json:"tick_every,omitempty"`
	DistillOnRot bool        `json:"distill_on_rot,omitempty"`
	Durability   string      `json:"durability,omitempty"`
	Persist      bool        `json:"persist,omitempty"`
}

// Health checks liveness and returns the server's logical time.
func (c *Client) Health() (uint64, error) {
	var resp struct {
		OK  bool   `json:"ok"`
		Now uint64 `json:"now"`
	}
	if err := c.do(http.MethodGet, "/healthz", nil, &resp); err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("client: server not ok")
	}
	return resp.Now, nil
}

// Tables lists table names.
func (c *Client) Tables() ([]string, error) {
	var resp struct {
		Tables []string `json:"tables"`
	}
	if err := c.do(http.MethodGet, "/v1/tables", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// CreateTable creates a table from a spec.
func (c *Client) CreateTable(spec TableSpec) error {
	return c.do(http.MethodPost, "/v1/tables", spec, nil)
}

// DropTable removes a table.
func (c *Client) DropTable(name string) error {
	return c.do(http.MethodDelete, "/v1/tables/"+name, nil, nil)
}

// InsertResult reports a bulk insert.
type InsertResult struct {
	Inserted int    `json:"inserted"`
	FirstID  uint64 `json:"first_id"`
}

// Insert bulk-inserts positional rows. The request body is exactly what
// json.Marshal(map[string]any{"rows": rows}) writes; values of the
// types a row usually holds (string, float64, bool, int, int64, nil)
// are appended without reflection.
//
// A nil error means the server stored every row, not that they are
// durable: on a table with grouped durability the server answers before
// the group commit fsyncs them (docs/DURABILITY.md, "What you can
// lose").
func (c *Client) Insert(table string, rows [][]any) (InsertResult, error) {
	body, ok := appendInsertBody(nil, rows)
	if !ok {
		var err error
		if body, err = json.Marshal(map[string]any{"rows": rows}); err != nil {
			return InsertResult{}, fmt.Errorf("client: marshal: %w", err)
		}
	}
	var resp InsertResult
	err := c.send(http.MethodPost, "/v1/tables/"+table+"/rows", body, &resp)
	return resp, err
}

// TickResult reports the aggregate decay outcome.
type TickResult struct {
	Now    uint64 `json:"now"`
	Rotted int    `json:"rotted"`
	Live   int    `json:"live"`
}

// Tick advances decay by n cycles.
func (c *Client) Tick(n int) (TickResult, error) {
	var resp TickResult
	err := c.do(http.MethodPost, "/v1/tick", map[string]int{"n": n}, &resp)
	return resp, err
}

// Stats is a table's freshness profile and counters (the fields
// external tools read; the server may send more).
type Stats struct {
	Live        int     `json:"live"`
	Shards      int     `json:"shards"`
	Bytes       int     `json:"bytes"`
	MeanFresh   float64 `json:"mean_freshness"`
	Inserted    uint64  `json:"inserted"`
	Rotted      uint64  `json:"rotted"`
	Consumed    uint64  `json:"consumed"`
	Queries     uint64  `json:"queries"`
	Ticks       uint64  `json:"ticks"`
	WALSyncMode string  `json:"wal_sync_mode"`
	Persistent  bool    `json:"persistent"`
	// Replication is present only on a follower: its position and lag
	// against the leader it tails.
	Replication *ReplStats `json:"replication,omitempty"`
}

// ReplStats describes a follower table's replication position.
type ReplStats struct {
	Leader     string `json:"leader"`
	Generation uint64 `json:"generation"`
	LagRecords uint64 `json:"lag_records"`
	Inserts    uint64 `json:"applied_inserts"`
	Evicts     uint64 `json:"applied_evicts"`
	Ticks      uint64 `json:"applied_ticks"`
	Batches    uint64 `json:"batches"`
	Reconnects uint64 `json:"reconnects"`
	Rebases    uint64 `json:"rebases"`
	Connected  bool   `json:"connected"`
}

// Stats fetches a table's profile and counters.
func (c *Client) Stats(table string) (Stats, error) {
	var resp Stats
	err := c.do(http.MethodGet, "/v1/tables/"+table+"/stats", nil, &resp)
	return resp, err
}

// AskResult answers one knowledge-container question.
type AskResult struct {
	Question string  `json:"question"`
	Value    float64 `json:"value,omitempty"`
	Bool     *bool   `json:"bool,omitempty"`
	Top      []struct {
		Item  string `json:"item"`
		Count uint64 `json:"count"`
	} `json:"top,omitempty"`
}

// Ask poses a question to a knowledge container ("count", "ndv:col",
// "mean:col", "sum:col", "q:col:0.95", "top:col", "has:col:value").
func (c *Client) Ask(table, container, question string) (AskResult, error) {
	var resp AskResult
	err := c.do(http.MethodGet,
		"/v1/tables/"+table+"/containers/"+container+"/ask?q="+url.QueryEscape(question), nil, &resp)
	return resp, err
}

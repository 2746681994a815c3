// Package server exposes a FungusDB over HTTP with a JSON API (its Go
// client is fungusdb/pkg/client). The API surface mirrors the embedded
// one:
//
//	GET    /healthz                          liveness
//	GET    /v1/tables                        table names
//	POST   /v1/tables                        create table (catalog.TableSpec JSON; non-persistent unless the DB has a Dir)
//	DELETE /v1/tables/{table}                drop table
//	POST   /v1/tables/{table}/rows           bulk insert
//	GET    /v1/tables/{table}/stats          profile + counters
//	GET    /v1/tables/{table}/containers     shelf listing
//	GET    /v1/tables/{table}/containers/{container}/ask?q=...   digest questions
//	POST   /v1/tick                          advance decay n cycles
//	POST   /v2/prepare                       compile SQL into a reusable handle
//	POST   /v2/query                         execute a handle or SQL, rows streamed as NDJSON
//	GET    /v2/replicate/tables              replicable table specs (leader side)
//	POST   /v2/replicate                     stream a table's shard WAL frames (leader side)
//	GET    /metrics                          Prometheus text exposition
//
// Every SQL statement, CONSUME and "distill" included, goes through
// POST /v2/query. Rows travel as natural JSON values (numbers, strings,
// booleans) positionally matched to the table schema.
//
// A bulk insert answers 200 once its rows are stored and logged. It
// does not wait for their commit future, so on a table with grouped
// durability the answer comes before the group commit fsyncs the rows
// (docs/DURABILITY.md, "What you can lose").
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/container"
	"fungusdb/internal/core"
	"fungusdb/internal/obs"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// DefaultMaxRequestBytes caps request bodies when Config leaves
// MaxRequestBytes unset: 64 MiB.
const DefaultMaxRequestBytes = 64 << 20

// Config tunes the HTTP front end.
type Config struct {
	// MaxRequestBytes caps every request body (bulk inserts are the
	// usual offender). 0 means DefaultMaxRequestBytes; negative
	// disables the cap entirely.
	MaxRequestBytes int64
	// Registry receives the server's metric collectors and backs the
	// GET /metrics endpoint. Nil builds a private registry; pass one in
	// to add your own collectors (ingest pipelines, harnesses) to the
	// same scrape.
	Registry *obs.Registry
	// ReadOnly turns the server into a replication follower front end:
	// every mutating route (table DDL, row inserts, decay ticks) answers
	// 403 with the stable "read_only" code. Reads — queries without
	// CONSUME, stats, containers, metrics — stay fully served.
	ReadOnly bool
	// ReplStatus, when set, reports a table's replication position; the
	// stats endpoint attaches it as the "replication" object. Follower
	// mode wires the repl daemon's per-table status in here.
	ReplStatus func(table string) (ReplStatus, bool)
}

// ReplStatus is a follower table's replication position as reported by
// GET /v1/tables/{table}/stats on a follower server.
type ReplStatus struct {
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

// Server is the HTTP front end of one DB.
type Server struct {
	db   *core.DB
	mux  *http.ServeMux
	cfg  Config
	prep *handleCache
	reg  *obs.Registry
	lat  map[string]*obs.Histogram // query latency per route
}

// latencyRoutes are the label values of the per-route query latency
// histogram: the SQL execution surface plus container questions.
var latencyRoutes = []string{"v2_query", "ask"}

// New wraps db with default configuration. The returned Server is an
// http.Handler.
func New(db *core.DB) *Server { return NewWithConfig(db, Config{}) }

// NewWithConfig wraps db with explicit limits.
func NewWithConfig(db *core.DB, cfg Config) *Server {
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		db: db, mux: http.NewServeMux(), cfg: cfg,
		prep: newHandleCache(),
		reg:  reg,
		lat:  make(map[string]*obs.Histogram, len(latencyRoutes)),
	}
	reg.Register(obs.EngineCollector(db))
	for _, route := range latencyRoutes {
		h := obs.NewHistogram(
			"fungusdb_http_query_seconds",
			"Query latency by route, from request decode to the last byte of the answer.",
			obs.DefLatencyBuckets,
			obs.Label{Name: "route", Value: route},
		)
		s.lat[route] = h
		reg.Register(h)
	}
	s.mux.Handle("GET /metrics", obs.Handler(reg))
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /v1/tables", s.listTables)
	s.mux.HandleFunc("POST /v1/tables", s.createTable)
	s.mux.HandleFunc("DELETE /v1/tables/{table}", s.dropTable)
	s.mux.HandleFunc("POST /v1/tables/{table}/rows", s.insertRows)
	s.mux.HandleFunc("GET /v1/tables/{table}/stats", s.tableStats)
	s.mux.HandleFunc("GET /v1/tables/{table}/containers", s.listContainers)
	s.mux.HandleFunc("GET /v1/tables/{table}/containers/{container}/ask", s.askContainer)
	s.mux.HandleFunc("POST /v1/tick", s.tick)
	s.mux.HandleFunc("POST /v2/prepare", s.prepareV2)
	s.mux.HandleFunc("POST /v2/query", s.queryV2)
	s.mux.HandleFunc("GET /v2/replicate/tables", s.replTables)
	s.mux.HandleFunc("POST /v2/replicate", s.replicate)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the metric registry behind GET /metrics, so hosts
// can register additional collectors into the same scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// observe records one query's wall time on the route's latency
// histogram. Call as `defer s.observe(route, time.Now())`.
func (s *Server) observe(route string, start time.Time) {
	if h := s.lat[route]; h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Stable machine-readable error codes. Every error response is
//
//	{"error": {"code": "<one of these>", "message": "..."}}
//
// so clients can branch without string-matching messages.
const (
	ErrCodeBadRequest = "bad_request" // malformed body, bad params
	ErrCodeParse      = "parse_error" // statement/question syntax
	ErrCodePlan       = "plan_error"  // compile-time validation (schema, grouping, arity)
	ErrCodeNotFound   = "not_found"   // unknown table/container/handle
	ErrCodeExec       = "exec_error"  // runtime query failure
	ErrCodeInternal   = "internal"    // engine-side failures
	// ErrCodeReadOnly rejects mutations on a replication follower: table
	// DDL, inserts, ticks and CONSUME/distilling queries all pin it.
	ErrCodeReadOnly = "read_only"
	// ErrCodeStaleGen fences a replication stream whose cursor claims a
	// WAL generation the leader has never produced — the follower tailed
	// a different (or since-reset) leader and must not be fed records.
	ErrCodeStaleGen = "stale_generation"
)

// ErrorDetail is the inner error object of the JSON envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error ErrorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// writeExecErr maps a runtime failure from the engine: a rejected
// mutation on a replica table gets its stable code (and 403), anything
// else is a plain exec error.
func writeExecErr(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrReadOnly) {
		writeErr(w, http.StatusForbidden, ErrCodeReadOnly, err)
		return
	}
	writeErr(w, http.StatusBadRequest, ErrCodeExec, err)
}

// rejectReadOnly answers a mutating route on a follower server. It
// returns true when the request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.cfg.ReadOnly {
		return false
	}
	writeErr(w, http.StatusForbidden, ErrCodeReadOnly,
		errors.New("server is a read-only replication follower"))
	return true
}

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(s.body(w, r), v); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return false
	}
	return true
}

// body is r's body under the configured size cap.
func (s *Server) body(w http.ResponseWriter, r *http.Request) io.Reader {
	if s.cfg.MaxRequestBytes > 0 {
		return http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	}
	return r.Body
}

// decodeStrict decodes one JSON value from body into v, refusing
// unknown fields.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "now": uint64(s.db.Now())})
}

func (s *Server) listTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.db.Tables()})
}

// CreateTableRequest is the POST /v1/tables body: a catalog spec plus a
// persistence toggle (persistent specs need the server DB to have a
// data directory).
type CreateTableRequest struct {
	catalog.TableSpec
	Persist bool `json:"persist,omitempty"`
}

func (s *Server) createTable(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req CreateTableRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	var err error
	if req.Persist {
		_, err = s.db.CreateTableFromSpec(req.TableSpec)
	} else {
		err = s.createEphemeral(req.TableSpec)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"created": req.Name})
}

func (s *Server) createEphemeral(spec catalog.TableSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	schema, err := tuple.ParseSchema(spec.Schema)
	if err != nil {
		return err
	}
	f, err := spec.Fungus.Build(schema)
	if err != nil {
		return err
	}
	durability, err := wal.ParseDurability(spec.Durability)
	if err != nil {
		return err
	}
	_, err = s.db.CreateTable(spec.Name, core.TableConfig{
		Schema:            schema,
		Fungus:            f,
		Shards:            spec.Shards,
		SegmentSize:       spec.SegmentSize,
		TickEvery:         spec.TickEvery,
		TouchOnRead:       spec.TouchOnRead,
		DistillOnRot:      spec.DistillOnRot,
		ContainerHalfLife: spec.ContainerHalfLife,
		Durability:        durability,
	})
	return err
}

func (s *Server) table(w http.ResponseWriter, r *http.Request) (*core.Table, bool) {
	name := r.PathValue("table")
	tbl, err := s.db.Table(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, err)
		return nil, false
	}
	return tbl, true
}

func (s *Server) dropTable(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("table")
	if err := s.db.DropTable(name); err != nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// InsertRequest is the bulk-insert body: rows of positional values.
type InsertRequest struct {
	Rows [][]any `json:"rows"`
}

// InsertResponse reports assigned tuple IDs.
type InsertResponse struct {
	Inserted int      `json:"inserted"`
	FirstID  uint64   `json:"first_id"`
	Errors   []string `json:"errors,omitempty"`
}

func (s *Server) insertRows(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	tbl, ok := s.table(w, r)
	if !ok {
		return
	}
	data, readErr := readBody(s.body(w, r), r.ContentLength)
	if readErr == nil {
		if cols, n, ok := decodeInsertBody(data, tbl.Schema()); ok {
			first, err := tbl.InsertColumns(cols, n)
			if err != nil {
				writeExecErr(w, err)
				return
			}
			writeJSON(w, http.StatusOK, InsertResponse{Inserted: n, FirstID: uint64(first)})
			return
		}
	}
	// Whatever the single-pass decoder declines goes through the
	// reference decode, which reads the same bytes (and the same read
	// error) and either takes the body or words the error.
	var body io.Reader = bytes.NewReader(data)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	rows, err := decodeRows(body, tbl.Schema())
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	// One batch insert: rows are grouped per shard and each shard lock
	// is taken once, instead of once per row.
	tps, err := tbl.InsertBatch(rows)
	if err != nil {
		writeExecErr(w, err)
		return
	}
	resp := InsertResponse{Inserted: len(tps), FirstID: uint64(tps[0].ID)}
	writeJSON(w, http.StatusOK, resp)
}

// maxBodyPresize caps the buffer readBody allocates before a byte has
// arrived: a declared length is only a claim, so a body larger than
// this grows as it is read.
const maxBodyPresize = 1 << 20

// readBody reads all of body into one buffer sized from the request's
// declared length.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(min(declared, maxBodyPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRows is the reference insert-body decode: encoding/json into an
// InsertRequest, then decodeRow per row. It words every insert-body
// error the route returns.
func decodeRows(body io.Reader, schema *tuple.Schema) ([][]tuple.Value, error) {
	var req InsertRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Rows) == 0 {
		return nil, errors.New("no rows")
	}
	rows := make([][]tuple.Value, len(req.Rows))
	for i, raw := range req.Rows {
		vals, err := decodeRow(schema, raw)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		rows[i] = vals
	}
	return rows, nil
}

// decodeRow converts JSON values to typed attributes positionally.
func decodeRow(schema *tuple.Schema, raw []any) ([]tuple.Value, error) {
	if len(raw) != schema.Len() {
		return nil, fmt.Errorf("have %d values, schema wants %d", len(raw), schema.Len())
	}
	vals := make([]tuple.Value, len(raw))
	for i, v := range raw {
		col := schema.Column(i)
		switch col.Kind {
		case tuple.KindInt:
			f, ok := v.(float64) // JSON numbers arrive as float64
			if !ok || f != float64(int64(f)) {
				return nil, fmt.Errorf("column %q wants INT, got %v", col.Name, v)
			}
			vals[i] = tuple.Int(int64(f))
		case tuple.KindFloat:
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("column %q wants FLOAT, got %v", col.Name, v)
			}
			vals[i] = tuple.Float(f)
		case tuple.KindString:
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("column %q wants STRING, got %v", col.Name, v)
			}
			vals[i] = tuple.String_(str)
		case tuple.KindBool:
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("column %q wants BOOL, got %v", col.Name, v)
			}
			vals[i] = tuple.Bool(b)
		}
	}
	return vals, nil
}

// StatsResponse is the GET stats body.
type StatsResponse struct {
	Live        int     `json:"live"`
	Shards      int     `json:"shards"`
	Bytes       int     `json:"bytes"`
	MeanFresh   float64 `json:"mean_freshness"`
	Infected    int     `json:"infected"`
	Inserted    uint64  `json:"inserted"`
	Rotted      uint64  `json:"rotted"`
	Consumed    uint64  `json:"consumed"`
	Distilled   uint64  `json:"distilled"`
	Queries     uint64  `json:"queries"`
	Ticks       uint64  `json:"ticks"`
	CaptureRate float64 `json:"capture_rate"`
	// SegmentsPruned counts extent segments that zone-map pruning
	// skipped wholesale across all scans; TuplesSkipped is the live
	// tuples those segments held — work the scan paths never did.
	SegmentsPruned uint64 `json:"segments_pruned"`
	TuplesSkipped  uint64 `json:"tuples_skipped"`
	// BatchesScanned counts column batches handed to the vectorized
	// scan route; RowsVectorized is the live rows those batches carried
	// — rows matched kernel-wise instead of tuple at a time.
	BatchesScanned uint64 `json:"batches_scanned"`
	RowsVectorized uint64 `json:"rows_vectorized"`
	// WALShards and WALGeneration describe the persistence layout (one
	// WAL file per shard, snapshots committed by generation); both are
	// omitted for in-memory tables.
	WALShards     int    `json:"wal_shards,omitempty"`
	WALGeneration uint64 `json:"wal_generation,omitempty"`
	// WALSyncMode is the resolved durability level ("none", "grouped",
	// "strict"); GroupCommits and AvgGroupSize report the group-commit
	// daemon's fsync batching in grouped mode. All omitted for
	// in-memory tables.
	WALSyncMode  string  `json:"wal_sync_mode,omitempty"`
	GroupCommits uint64  `json:"group_commits,omitempty"`
	AvgGroupSize float64 `json:"avg_group_size,omitempty"`
	Persistent   bool    `json:"persistent"`
	// Replication is present only on a follower: the table's position
	// and lag against the leader it tails.
	Replication *ReplStatus `json:"replication,omitempty"`
}

func (s *Server) tableStats(w http.ResponseWriter, r *http.Request) {
	tbl, ok := s.table(w, r)
	if !ok {
		return
	}
	p := tbl.Profile()
	c := tbl.Counters()
	wi := tbl.WALInfo()
	st := tbl.StoreStats()
	var repl *ReplStatus
	if s.cfg.ReplStatus != nil {
		if rs, ok := s.cfg.ReplStatus(tbl.Name()); ok {
			repl = &rs
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Live: p.Live, Shards: tbl.Shards(), Bytes: p.Bytes, MeanFresh: p.Mean, Infected: p.Infected,
		Inserted: c.Inserted, Rotted: c.Rotted, Consumed: c.Consumed,
		Distilled: c.DistilledRot + c.DistilledQuery,
		Queries:   c.Queries, Ticks: c.Ticks, CaptureRate: c.CaptureRate(),
		SegmentsPruned: st.SegsPruned, TuplesSkipped: st.TuplesSkipped,
		BatchesScanned: st.BatchesScanned, RowsVectorized: st.RowsVectorized,
		WALShards: wi.LogShards, WALGeneration: wi.Generation,
		WALSyncMode: wi.SyncMode, GroupCommits: wi.GroupCommits, AvgGroupSize: wi.AvgGroupSize,
		Persistent: wi.Persistent, Replication: repl,
	})
}

// ContainerInfo summarises one knowledge container.
type ContainerInfo struct {
	Name      string  `json:"name"`
	Count     uint64  `json:"count"`
	Bytes     int     `json:"bytes"`
	Freshness float64 `json:"freshness"`
}

func (s *Server) listContainers(w http.ResponseWriter, r *http.Request) {
	tbl, ok := s.table(w, r)
	if !ok {
		return
	}
	var out []ContainerInfo
	for _, c := range tbl.Shelf().List() {
		out = append(out, ContainerInfo{Name: c.Name, Count: c.Count, Bytes: c.Bytes, Freshness: float64(c.Freshness)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"containers": out})
}

// AskResponse answers one knowledge-container question.
type AskResponse struct {
	Question string  `json:"question"`
	Value    float64 `json:"value,omitempty"`
	Bool     *bool   `json:"bool,omitempty"`
	Top      []struct {
		Item  string `json:"item"`
		Count uint64 `json:"count"`
	} `json:"top,omitempty"`
}

// askContainer answers digest questions over HTTP:
//
//	GET .../containers/{c}/ask?q=count
//	GET .../containers/{c}/ask?q=ndv:col | mean:col | sum:col
//	GET .../containers/{c}/ask?q=q:col:0.95
//	GET .../containers/{c}/ask?q=top:col[:k]
//	GET .../containers/{c}/ask?q=has:col:value
//
// The question is checked against the schema before the container is
// looked up (a bad one is plan_error), then the shelf answers it under
// its lock and touches the container (consulted knowledge stays alive).
func (s *Server) askContainer(w http.ResponseWriter, r *http.Request) {
	defer s.observe("ask", time.Now())
	tbl, ok := s.table(w, r)
	if !ok {
		return
	}
	q := r.URL.Query().Get("q")
	question, err := container.ParseQuestion(tbl.Schema(), q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodePlan, err)
		return
	}
	ans, err := tbl.Shelf().Ask(r.PathValue("container"), question)
	if errors.Is(err, container.ErrNoContainer) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeExec, err)
		return
	}
	resp := AskResponse{Question: q}
	switch ans.Op {
	case container.OpTop:
		for _, e := range ans.Top {
			resp.Top = append(resp.Top, struct {
				Item  string `json:"item"`
				Count uint64 `json:"count"`
			}{e.Item, e.Count})
		}
	case container.OpHas:
		resp.Bool = &ans.Has
	default:
		resp.Value = ans.Value
	}
	writeJSON(w, http.StatusOK, resp)
}

// preparedForSQL routes a statement to its table and compiles it: the
// single front door every SQL-shaped handler goes through.
func (s *Server) preparedForSQL(w http.ResponseWriter, sql string) (*core.PreparedQuery, bool) {
	stmt, err := query.ParseStatement(sql)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeParse, err)
		return nil, false
	}
	tbl, err := s.db.Table(stmt.From())
	if err != nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, err)
		return nil, false
	}
	pq, err := tbl.PrepareStatement(stmt)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodePlan, err)
		return nil, false
	}
	return pq, true
}

// TickRequest advances decay.
type TickRequest struct {
	N int `json:"n"`
}

// TickResponse reports the aggregate decay outcome.
type TickResponse struct {
	Now    uint64 `json:"now"`
	Rotted int    `json:"rotted"`
	Live   int    `json:"live"`
}

func (s *Server) tick(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req TickRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.N < 1 {
		req.N = 1
	}
	if req.N > 1_000_000 {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, errors.New("n too large"))
		return
	}
	resp := TickResponse{}
	for i := 0; i < req.N; i++ {
		rep, err := s.db.Tick()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, ErrCodeInternal, err)
			return
		}
		resp.Rotted += rep.TotalRot
		resp.Now = uint64(rep.Now)
		resp.Live = rep.TotalLive
	}
	writeJSON(w, http.StatusOK, resp)
}

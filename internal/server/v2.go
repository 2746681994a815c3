// The /v2 query surface, the server's only SQL route: prepared
// statement handles plus NDJSON streaming execution. /v2/query writes
// one JSON value per line and flushes as it goes, so an arbitrarily
// large answer set streams through bounded server memory:
//
//	POST /v2/prepare  {"sql": "SELECT ... WHERE x > ?"}
//	  -> {"handle":"p1","table":"t","cols":[...],"params":1}
//	POST /v2/query    {"handle":"p1","params":[42]}   (or {"sql": ...})
//	  -> {"cols":[...]}            header line
//	     [1,"a",true]              one line per row
//	     {"done":true,"rows":2,"scanned":9}   trailer line
//
// A failure before the first byte is a normal error envelope with the
// usual status; a failure mid-stream (the status line is long gone)
// terminates the stream with an {"error":{...}} line instead of a
// trailer, so clients always know whether the row set is complete.
package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fungusdb/internal/core"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// defaultHandleCap bounds the prepared-handle cache.
const defaultHandleCap = 256

// handleCache is the server-side LRU of prepared statements. Handles
// are opaque tokens; preparing the same SQL twice returns the same
// handle. Eviction only forgets the server-side plan — an evicted
// handle fails with not_found and the client re-prepares.
type handleCache struct {
	mu    sync.Mutex
	seq   uint64
	byID  map[string]*list.Element
	bySQL map[string]*list.Element
	lru   *list.List // front = most recently used
}

type handleEntry struct {
	id    string
	sql   string
	table string
	pq    *core.PreparedQuery
}

func newHandleCache() *handleCache {
	return &handleCache{
		byID:  make(map[string]*list.Element, defaultHandleCap),
		bySQL: make(map[string]*list.Element, defaultHandleCap),
		lru:   list.New(),
	}
}

// add caches a prepared statement and returns its handle (reusing the
// existing one when the SQL is already cached). The entry's compiled
// query is always replaced with the caller's fresh compilation: if the
// table was dropped and recreated since the first prepare, the old
// PreparedQuery is bound to the closed table, and re-preparing must
// heal the handle rather than hand the stale binding back.
func (c *handleCache) add(sql, table string, pq *core.PreparedQuery) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.bySQL[sql]; ok {
		e := el.Value.(*handleEntry)
		e.table = table
		e.pq = pq
		c.lru.MoveToFront(el)
		return e.id
	}
	if c.lru.Len() >= defaultHandleCap {
		oldest := c.lru.Back()
		if oldest != nil {
			e := oldest.Value.(*handleEntry)
			c.lru.Remove(oldest)
			delete(c.byID, e.id)
			delete(c.bySQL, e.sql)
		}
	}
	c.seq++
	e := &handleEntry{id: "p" + strconv.FormatUint(c.seq, 10), sql: sql, table: table, pq: pq}
	el := c.lru.PushFront(e)
	c.byID[e.id] = el
	c.bySQL[sql] = el
	return e.id
}

// get resolves a handle to its compiled query, refreshing its
// recency. The PreparedQuery is copied out under the lock because
// add() may concurrently refresh the entry's binding.
func (c *handleCache) get(id string) (*core.PreparedQuery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*handleEntry).pq, true
}

// PrepareRequest is the POST /v2/prepare body.
type PrepareRequest struct {
	SQL string `json:"sql"`
}

// PrepareResponse describes the compiled statement.
type PrepareResponse struct {
	Handle string   `json:"handle"`
	Table  string   `json:"table"`
	Cols   []string `json:"cols"`
	Params int      `json:"params"`
}

func (s *Server) prepareV2(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	stmt, err := query.ParseStatement(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeParse, err)
		return
	}
	tbl, err := s.db.Table(stmt.From())
	if err != nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	pq, err := tbl.PrepareStatement(stmt)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodePlan, err)
		return
	}
	handle := s.prep.add(req.SQL, stmt.From(), pq)
	writeJSON(w, http.StatusOK, PrepareResponse{
		Handle: handle,
		Table:  stmt.From(),
		Cols:   pq.Cols(),
		Params: pq.NumParams(),
	})
}

// QueryV2Request is the POST /v2/query body: exactly one of SQL or
// Handle, plus positional parameter values for the statement's `?`
// placeholders.
type QueryV2Request struct {
	SQL     string `json:"sql,omitempty"`
	Handle  string `json:"handle,omitempty"`
	Params  []any  `json:"params,omitempty"`
	Distill string `json:"distill,omitempty"`
}

// StreamHeader is the first NDJSON line of a /v2/query response.
type StreamHeader struct {
	Cols []string `json:"cols"`
}

// StreamTrailer is the final NDJSON line of a successful response.
type StreamTrailer struct {
	Done    bool `json:"done"`
	Rows    int  `json:"rows"`
	Scanned int  `json:"scanned"`
}

// flushBytes is the streaming path's flush rule: row lines collect in
// one buffer and go out, in one Write and one flush, once the buffer
// holds at least this many bytes. So every chunk but the last is at
// least flushBytes and overshoots it by less than one line. It is large
// enough that the socket writes of a long answer cost little beside its
// encoding, and small enough that a client sees rows long before a
// large answer ends.
const flushBytes = 32 << 10

// rowBufPool recycles the streaming encode buffers. A buffer that one
// very long line grew past twice its usual size is dropped, not pooled.
var rowBufPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 2*flushBytes)
	return &buf
}}

// streamWriteTimeout bounds how long one flushed chunk may take to reach
// the client. The shard scan producers hold their shards' read locks
// for the life of the stream, so a stalled-but-connected client must
// not be able to park them (and block writers) indefinitely: once the
// kernel buffers fill and a write exceeds this deadline, the write
// errors, the handler returns, and Rows.Close aborts the scan.
const streamWriteTimeout = 30 * time.Second

func (s *Server) queryV2(w http.ResponseWriter, r *http.Request) {
	defer s.observe("v2_query", time.Now())
	var req QueryV2Request
	if !s.readJSON(w, r, &req) {
		return
	}
	var pq *core.PreparedQuery
	switch {
	case req.Handle != "" && req.SQL != "":
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("pass sql or handle, not both"))
		return
	case req.Handle != "":
		cached, ok := s.prep.get(req.Handle)
		if !ok {
			writeErr(w, http.StatusNotFound, ErrCodeNotFound, fmt.Errorf("no prepared handle %q (re-prepare)", req.Handle))
			return
		}
		pq = cached
	case req.SQL != "":
		var ok bool
		if pq, ok = s.preparedForSQL(w, req.SQL); !ok {
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("need sql or handle"))
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	var opt core.QueryOpts
	if req.Distill != "" {
		opt.Distill = req.Distill
	}
	rows, err := pq.ExecuteOpts(opt, params...)
	if err != nil {
		writeExecErr(w, err)
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Best effort: not every ResponseWriter supports per-write
	// deadlines (the error is ignored), but the net/http server does.
	rc := http.NewResponseController(w)
	armDeadline := func() { _ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) }
	armDeadline()
	if err := writeNDJSON(w, StreamHeader{Cols: rows.Cols()}); err != nil {
		return // client went away before the header
	}
	flush()
	ctx := r.Context()
	// Row lines collect in buf and reach the ResponseWriter once it
	// holds flushBytes, in one Write.
	bufp := rowBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() {
		if cap(buf) <= 2*flushBytes {
			*bufp = buf[:0]
			rowBufPool.Put(bufp)
		}
	}()
	n := 0
	for rows.Next() {
		blk, k := rows.Cursor()
		if buf, err = appendRowJSON(buf, blk, k); err != nil {
			break
		}
		n++
		if len(buf) >= flushBytes {
			if _, werr := w.Write(buf); werr != nil {
				return // write failure: client disconnected; Close aborts the scan
			}
			buf = buf[:0]
			flush()
			armDeadline()
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}
	if err == nil {
		err = rows.Err()
	}
	// The last line is the trailer or, after a mid-stream failure (the
	// 200 status is already on the wire), the error in its place; it
	// goes out with whatever rows are still buffered.
	var last any = StreamTrailer{Done: true, Rows: n, Scanned: rows.Scanned()}
	if err != nil {
		last = errorBody{Error: ErrorDetail{Code: ErrCodeExec, Message: err.Error()}}
	}
	line, _ := json.Marshal(last) // plain structs of strings and ints: cannot fail
	buf = append(append(buf, line...), '\n')
	_, _ = w.Write(buf)
	flush()
}

// writeNDJSON marshals v as one line (json.Encoder appends the
// newline itself). Row lines do not come this way: see appendRowJSON.
func writeNDJSON(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// decodeParams converts JSON parameter values into typed attribute
// values: integral numbers become INT, other numbers FLOAT, strings
// STRING, booleans BOOL. Comparisons coerce across the numeric kinds,
// so an INT parameter matches a FLOAT column and vice versa.
func decodeParams(raw []any) ([]tuple.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]tuple.Value, len(raw))
	for i, v := range raw {
		switch x := v.(type) {
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
		default:
			return nil, fmt.Errorf("param %d: unsupported value %v (want number, string or bool)", i+1, v)
		}
	}
	return out, nil
}

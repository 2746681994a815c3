package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Stmt is a server-side prepared statement: the SQL compiled once into
// a plan cached under an opaque handle. Execute it any number of times
// with different parameter bindings. If the server evicts the handle,
// Query returns a not_found *Error — re-Prepare and retry.
type Stmt struct {
	c *Client
	// Handle is the server-side token.
	Handle string
	// Cols are the statement's output column names.
	Cols []string
	// NumParams is how many `?` placeholders Query must bind.
	NumParams int
}

// Prepare compiles sql on the server and returns the reusable handle.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	var resp struct {
		Handle string   `json:"handle"`
		Cols   []string `json:"cols"`
		Params int      `json:"params"`
	}
	if err := c.do(http.MethodPost, "/v2/prepare", map[string]string{"sql": sql}, &resp); err != nil {
		return nil, err
	}
	return &Stmt{c: c, Handle: resp.Handle, Cols: resp.Cols, NumParams: resp.Params}, nil
}

// Query executes the prepared statement with the given positional
// parameters, streaming the result.
func (s *Stmt) Query(params ...any) (*Rows, error) {
	return s.c.stream(map[string]any{"handle": s.Handle, "params": params})
}

// Query executes sql in one shot over the streaming endpoint. Params
// bind the statement's `?` placeholders positionally.
func (c *Client) Query(sql string, params ...any) (*Rows, error) {
	return c.stream(map[string]any{"sql": sql, "params": params})
}

// stream POSTs to /v2/query and wires the NDJSON body into a Rows.
func (c *Client) stream(body map[string]any) (*Rows, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: marshal: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v2/query", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("client: request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, decodeError(resp.StatusCode, data)
	}
	return newRows(resp.Body)
}

// newRows wires an NDJSON response body into a Rows. The header is the
// first line; reading it here surfaces immediate failures from Query
// itself. The body is closed on failure.
func newRows(body io.ReadCloser) (*Rows, error) {
	r := &Rows{body: body, br: bufio.NewReaderSize(body, readBufferSize)}
	var header struct {
		Cols []string `json:"cols"`
	}
	line, err := r.readLine()
	if err == nil {
		err = json.Unmarshal(line, &header)
	}
	if err != nil {
		body.Close()
		return nil, fmt.Errorf("client: stream header: %w", err)
	}
	r.cols = header.Cols
	return r, nil
}

// readBufferSize is the line reader's buffer: a few hundred typical
// rows per read of the response body. Longer lines spill into a
// per-Rows buffer, so no line is too long.
const readBufferSize = 16 << 10

// Rows iterates an NDJSON result stream row by row; rows decode as the
// server produces them, so a very large answer never buffers in the
// client either. Always Close (or drain) the Rows.
type Rows struct {
	body    io.ReadCloser
	br      *bufio.Reader
	long    []byte // assembles a line longer than br's buffer
	cols    []string
	cur     []any
	err     error
	done    bool
	rows    int
	scanned int
	trailer bool // saw {"done":true,...}
}

// Cols returns the output column names.
func (r *Rows) Cols() []string { return r.cols }

// readLine returns the next non-blank line of the stream without its
// line ending and surrounding blanks, valid until the next call. At
// the end of the stream it returns io.EOF, or io.ErrUnexpectedEOF when
// the stream ends inside a line that is not a whole JSON value.
func (r *Rows) readLine() ([]byte, error) {
	for {
		line, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			r.long = append(r.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.br.ReadSlice('\n')
				r.long = append(r.long, line...)
			}
			line = r.long
		}
		line = bytes.Trim(line, " \t\r\n") // JSON's blanks, no others
		switch {
		case err == nil && len(line) > 0:
			return line, nil
		case err == nil:
			continue // blank line
		case err == io.EOF && json.Valid(line):
			return line, nil // a last line without its newline
		case err == io.EOF && len(line) > 0:
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
}

// Next advances to the next row. Once it returns false, check Err.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	line, err := r.readLine()
	if err != nil {
		// A truncated stream (no trailer) means the server died
		// mid-answer; io.EOF alone is not success.
		r.fail(fmt.Errorf("client: stream truncated: %w", err))
		return false
	}
	if line[0] == '[' {
		row, ok := parseRowLine(line, r.cur)
		if !ok {
			row = nil
			if err := json.Unmarshal(line, &row); err != nil {
				r.fail(fmt.Errorf("client: bad row: %w", err))
				return false
			}
		}
		r.cur = row
		r.rows++
		return true
	}
	// Object line: trailer or mid-stream error.
	var tail struct {
		Done    bool `json:"done"`
		Rows    int  `json:"rows"`
		Scanned int  `json:"scanned"`
		Error   *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(line, &tail); err != nil {
		r.fail(fmt.Errorf("client: bad stream line: %w", err))
		return false
	}
	if tail.Error != nil {
		r.fail(&Error{Code: tail.Error.Code, Message: tail.Error.Message, Status: http.StatusOK})
		return false
	}
	if !tail.Done {
		r.fail(fmt.Errorf("client: unexpected stream line"))
		return false
	}
	r.trailer = true
	r.scanned = tail.Scanned
	r.done = true
	return false
}

func (r *Rows) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.done = true
}

// Row returns the current row's values (JSON-typed: float64, string,
// bool). Valid until the next Next call.
func (r *Rows) Row() []any { return r.cur }

// Err returns the first error hit while streaming. It is nil after a
// complete, trailer-terminated stream.
func (r *Rows) Err() error { return r.err }

// Scanned reports how many live tuples the server examined (valid
// after the stream completed).
func (r *Rows) Scanned() int { return r.scanned }

// Count reports the rows received so far.
func (r *Rows) Count() int { return r.rows }

// Close releases the underlying response body. Closing before the
// stream ends aborts the server-side scan.
func (r *Rows) Close() error {
	r.done = true
	return r.body.Close()
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
	"fungusdb/pkg/client"
)

// boxRow boxes a row for encoding/json, the way the handlers did
// before they had an encoder of their own.
func boxRow(row []tuple.Value) []any {
	boxed := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case tuple.KindInt:
			boxed[i] = v.AsInt()
		case tuple.KindFloat:
			boxed[i] = v.AsFloat()
		case tuple.KindString:
			boxed[i] = v.AsString()
		case tuple.KindBool:
			boxed[i] = v.AsBool()
		}
	}
	return boxed
}

// jsonRowLine is the reference appendRowJSON is held to: the row boxed
// into a []any and written by encoding/json's Encoder.
func jsonRowLine(row []tuple.Value) ([]byte, error) {
	boxed := boxRow(row)
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(boxed)
	return buf.Bytes(), err
}

// blockOf lays rows out as a hand-off block. A column whose values all
// have one kind is typed, as a bare-column target's is; any other column,
// and every column when boxed is set, is boxed, as a computed target's
// or a memory-backed answer's is.
func blockOf(rows [][]tuple.Value, boxed bool) *query.Block {
	b := &query.Block{IDs: make([]tuple.ID, len(rows))}
	for c := range rows[0] {
		col := query.BlockCol{Kind: rows[0][c].Kind()}
		for _, row := range rows {
			if boxed || row[c].Kind() != col.Kind {
				col.Kind = tuple.KindInvalid
			}
		}
		for _, row := range rows {
			switch v := row[c]; col.Kind {
			case tuple.KindInt:
				col.Ints = append(col.Ints, v.AsInt())
			case tuple.KindFloat:
				col.Floats = append(col.Floats, v.AsFloat())
			case tuple.KindString:
				col.Strs = append(col.Strs, v.AsString())
			case tuple.KindBool:
				col.Bools = append(col.Bools, v.AsBool())
			default:
				col.Vals = append(col.Vals, v)
			}
		}
		b.Cols = append(b.Cols, col)
	}
	return b
}

// zeroRow is row with every value replaced by its kind's zero value.
func zeroRow(row []tuple.Value) []tuple.Value {
	out := make([]tuple.Value, len(row))
	for i, v := range row {
		switch v.Kind() {
		case tuple.KindInt:
			out[i] = tuple.Int(0)
		case tuple.KindFloat:
			out[i] = tuple.Float(0)
		case tuple.KindString:
			out[i] = tuple.String_("")
		case tuple.KindBool:
			out[i] = tuple.Bool(false)
		}
	}
	return out
}

// checkRowLine asserts appendRowJSON and encoding/json agree on row:
// the same bytes, or both refuse. The encoder reads the row twice: as
// the second row of a block of typed columns, and as the only row of a
// block of boxed ones.
func checkRowLine(t *testing.T, row []tuple.Value) {
	t.Helper()
	want, wantErr := jsonRowLine(row)
	if wantErr != nil {
		want = nil
	}
	prefix := []byte("kept\n")
	for _, tc := range []struct {
		name string
		b    *query.Block
		k    int
	}{
		{"typed", blockOf([][]tuple.Value{zeroRow(row), row}, false), 1},
		{"boxed", blockOf([][]tuple.Value{row}, true), 0},
	} {
		if len(row) == 0 {
			tc.b, tc.k = &query.Block{IDs: []tuple.ID{0}}, 0
		}
		got, err := appendRowJSON(append([]byte(nil), prefix...), tc.b, tc.k)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s row %v: appendRowJSON err %v, encoding/json err %v", tc.name, row, err, wantErr)
		}
		if err != nil && !strings.Contains(wantErr.Error(), err.Error()) {
			t.Errorf("%s row %v: error %q, encoding/json says %q", tc.name, row, err, wantErr)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s row %v:\n  appendRowJSON  %q\n  encoding/json  %q", tc.name, row, got[len(prefix):], want)
		}
	}
}

func TestAppendRowJSONMatchesEncodingJSON(t *testing.T) {
	ints := []int64{0, 1, -1, 42, 1e15, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 100, 1e6, 123456789.125,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1.2345e21, 1e22, 1e100, 1e-100, -1e-300,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64), 21.957486726422708,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	strs := []string{
		"", "web-1", "plain ascii ~ {}[]", `quote " backslash \ slash /`, "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "<script>&amp;</script>", "LS\u2028PS\u2029", "h\u00e9llo w\u00f6rld \u4e16\u754c \U0001F344",
		"bad \xff utf8 \xc3", "\xe2\x80", "truncated \xf0\x9f\x8d", strings.Repeat("long ", 2000),
	}
	for _, n := range ints {
		checkRowLine(t, []tuple.Value{tuple.Int(n)})
	}
	for _, f := range floats {
		checkRowLine(t, []tuple.Value{tuple.Float(f)})
	}
	for _, s := range strs {
		checkRowLine(t, []tuple.Value{tuple.String_(s)})
	}
	checkRowLine(t, nil)
	checkRowLine(t, []tuple.Value{tuple.Bool(true), tuple.Bool(false), {}})
	checkRowLine(t, []tuple.Value{tuple.String_("web-3"), tuple.Int(7), tuple.Float(12.5), tuple.Bool(true)})
	// A value that cannot be encoded leaves the buffer as it was, after
	// values that could.
	checkRowLine(t, []tuple.Value{tuple.String_("web-3"), tuple.Int(7), tuple.Float(math.NaN()), tuple.Bool(true)})
}

func FuzzAppendRowJSON(f *testing.F) {
	f.Add(int64(0), 0.0, "", false)
	f.Add(int64(math.MinInt64), 1e21, "a\"b\\c\n<>&\u2028\u2029", true)
	f.Add(int64(math.MaxInt64), 5e-324, "\xff\xfe bad \xe2\x80", false)
	f.Add(int64(-7), math.Copysign(0, -1), "\x00\x1f\x7f\b\f\r\t", true)
	f.Add(int64(1), 1e-7, "h\u00e9llo \U0001F344", false)
	f.Add(int64(2), math.Inf(-1), "x", true)
	f.Add(int64(3), 100.0, "1E+2", false)
	f.Add(int64(4), 0.1+0.2, "", true)
	f.Add(int64(5), math.Nextafter(1e-6, 0), "", false)
	f.Add(int64(6), math.Nextafter(1e21, 0), "", true)
	f.Add(int64(7), 2.2250738585072011e-308, "", false)
	f.Add(int64(8), -math.MaxFloat64, "", true)
	f.Fuzz(func(t *testing.T, n int64, x float64, s string, b bool) {
		checkRowLine(t, []tuple.Value{tuple.Int(n), tuple.Float(x), tuple.String_(s), tuple.Bool(b)})
		checkRowLine(t, []tuple.Value{tuple.String_(s), tuple.String_(s + s)})
	})
}

// TestV2StreamNonFiniteFloatEndsWithErrorLine: NaN and the infinities
// are storable FLOATs with no JSON encoding. A stream that reaches one
// must end the way every other mid-stream failure does — the rows
// before it, then an exec_error line in place of the trailer — not
// stop short as if the client had gone away.
func TestV2StreamNonFiniteFloatEndsWithErrorLine(t *testing.T) {
	c, db, ts := newServer(t, Config{})
	seedV2(t, c, 0)
	tbl, err := db.Table("logs")
	if err != nil {
		t.Fatal(err)
	}
	// No row line is shorter than "[0,0]\n", so the good rows alone
	// fill the first flush.
	const good = flushBytes/len("[0,0]\n") + 1
	for i := 0; i <= good; i++ {
		lat := float64(i)
		if i == good {
			lat = math.NaN()
		}
		if _, err := tbl.Insert(core.Row("web", i, lat, true)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"sql":"SELECT sev, latency FROM logs"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(body.String(), "\n"), "\n")
	if len(lines) != 1+good+1 {
		t.Fatalf("%d lines, want header + %d rows + error line:\n%s", len(lines), good, body.String())
	}
	if want := fmt.Sprintf("[%d,%d]", good-1, good-1); lines[good] != want {
		t.Errorf("last row line = %s, want %s", lines[good], want)
	}
	var tail errorBody
	if err := json.Unmarshal([]byte(lines[good+1]), &tail); err != nil || tail.Error.Code != ErrCodeExec ||
		!strings.Contains(tail.Error.Message, "NaN") {
		t.Errorf("last line = %s (%v), want an %s error naming NaN", lines[good+1], err, ErrCodeExec)
	}

	rows, err := c.Query("SELECT sev, latency FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	var cerr *client.Error
	if !errors.As(rows.Err(), &cerr) || cerr.Code != ErrCodeExec || rows.Count() != good {
		t.Errorf("client saw %d rows, err %v; want %d rows and an %s error", rows.Count(), rows.Err(), good, ErrCodeExec)
	}
}

// chunkRecorder is a ResponseWriter that keeps what reaches it between
// two flushes as one chunk.
type chunkRecorder struct {
	header http.Header
	cur    bytes.Buffer
	chunks []string
}

func (r *chunkRecorder) Header() http.Header         { return r.header }
func (r *chunkRecorder) WriteHeader(int)             {}
func (r *chunkRecorder) Write(p []byte) (int, error) { return r.cur.Write(p) }

func (r *chunkRecorder) Flush() {
	if r.cur.Len() > 0 {
		r.chunks = append(r.chunks, r.cur.String())
		r.cur.Reset()
	}
}

// TestV2FlushesByBytes pins the streaming flush rule: after the header,
// every chunk but the last holds at least flushBytes and would hold
// fewer without its last line; the last ends with the trailer; and the
// chunks put together are the whole answer.
func TestV2FlushesByBytes(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	const n = 20_000
	seedV2(t, c, n)
	rec := &chunkRecorder{header: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(`{"sql":"SELECT host, sev, latency, ok FROM logs"}`))
	ts.Config.Handler.ServeHTTP(rec, req)
	rec.Flush() // anything written after the last flush
	chunks := rec.chunks
	if len(chunks) < 4 {
		t.Fatalf("%d chunks, want the header, at least two full chunks and the last", len(chunks))
	}
	if !strings.HasPrefix(chunks[0], `{"cols":`) || strings.Count(chunks[0], "\n") != 1 {
		t.Errorf("first chunk %q, want the header line alone", chunks[0])
	}
	rowChunks := chunks[1:]
	for i, ch := range rowChunks[:len(rowChunks)-1] {
		lastLine := len(ch) - 1 - strings.LastIndexByte(ch[:len(ch)-1], '\n')
		if len(ch) < flushBytes || len(ch)-lastLine >= flushBytes || !strings.HasSuffix(ch, "\n") {
			t.Errorf("chunk %d: %d bytes ending in a %d-byte line, want >= %d and < %d without that line",
				i+1, len(ch), lastLine, flushBytes, flushBytes)
		}
	}
	last := rowChunks[len(rowChunks)-1]
	if len(last) > flushBytes+200 || !strings.HasSuffix(last, fmt.Sprintf(`{"done":true,"rows":%d,"scanned":%d}`+"\n", n, n)) {
		t.Errorf("last chunk: %d bytes ending %q, want at most one chunk's rows and the trailer", len(last), last[max(0, len(last)-60):])
	}
	lines := strings.Split(strings.TrimSuffix(strings.Join(rowChunks, ""), "\n"), "\n")
	if len(lines) != n+1 {
		t.Errorf("%d lines after the header, want %d rows and the trailer", len(lines), n)
	}
}

// TestCursorLinesMatchValues drives the row loop's two readers over the
// same merged blocks: the encoder through Rows.Cursor, and encoding/json
// over Rows.Values. A boxed column whose kind changes from row to row
// (INT, FLOAT, STRING, BOOL, no value) and a poisoned last row must give
// the same lines and the same error. No SQL target changes kind from
// row to row, so the blocks are made by hand.
func TestCursorLinesMatchValues(t *testing.T) {
	poison := errors.New("query: division by zero")
	blocks := func() []*query.Block {
		a := blockOf([][]tuple.Value{
			{tuple.Int(0), tuple.Int(7)},
			{tuple.Int(2), tuple.String_("<b>")},
			{tuple.Int(4), {}},
		}, false)
		b := blockOf([][]tuple.Value{
			{tuple.Int(1), tuple.Float(2.5)},
			{tuple.Int(3), tuple.Bool(true)},
			{tuple.Int(5), tuple.Float(1e21)},
		}, false)
		a.IDs = []tuple.ID{0, 2, 4}
		b.IDs = []tuple.ID{1, 3, 5}
		b.Err = poison
		return []*query.Block{a, b}
	}
	run := func(line func(rows *query.Rows) []byte) (lines []string, err error) {
		st := query.Stream{Cols: []string{"k", "x"}, Done: make(chan struct{}), Wait: func() (int, error) { return 0, nil }}
		for _, b := range blocks() {
			ch := make(chan *query.Block, 1)
			ch <- b
			close(ch)
			st.Blocks = append(st.Blocks, ch)
		}
		rows := query.NewStreamRows(st)
		for rows.Next() {
			lines = append(lines, string(line(rows)))
		}
		return lines, rows.Close()
	}
	got, gotErr := run(func(rows *query.Rows) []byte {
		b, k := rows.Cursor()
		line, err := appendRowJSON(nil, b, k)
		if err != nil {
			t.Fatal(err)
		}
		return line
	})
	want, wantErr := run(func(rows *query.Rows) []byte {
		line, err := jsonRowLine(rows.Values())
		if err != nil {
			t.Fatal(err)
		}
		return line
	})
	if strings.Join(got, "") != strings.Join(want, "") || len(got) != 5 {
		t.Errorf("cursor lines:\n%s\nValues lines:\n%s\nwant 5 rows", strings.Join(got, ""), strings.Join(want, ""))
	}
	if gotErr != poison || wantErr != poison {
		t.Errorf("errors %v and %v, want %v", gotErr, wantErr, poison)
	}
}

// TestV2ComputedTargetsMatchValues: bare and computed targets beside
// one another, up to a row whose projection fails, give over HTTP the
// lines encoding/json writes for the rows in-process Values returns,
// then the error that ends the in-process drain.
func TestV2ComputedTargetsMatchValues(t *testing.T) {
	c, db, ts := newServer(t, Config{})
	const n, bad = 3000, 2100
	seedV2(t, c, n)
	sql := fmt.Sprintf("SELECT host, sev + 1, latency * 2, host + \"<&>\", ok, _id, 100 / (_id - %d) FROM logs", bad)
	resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql":%q}`, sql)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(body.String(), "\n")
	tbl, err := db.Table("logs")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := tbl.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	i := 1 // after the header
	for ; rows.Next(); i++ {
		want, err := jsonRowLine(rows.Values())
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(lines) || lines[i] != string(want) {
			t.Fatalf("line %d over HTTP does not match in-process row %d: %q", i, i-1, want)
		}
	}
	if err := rows.Close(); err == nil || i != bad+1 {
		t.Fatalf("in process: %d rows, err %v; want %d rows and an error", i-1, err, bad)
	} else if tail := lines[i]; !strings.Contains(tail, ErrCodeExec) || !strings.Contains(tail, err.Error()) {
		t.Errorf("last line %q, want an %s line with %q", tail, ErrCodeExec, err)
	}
}

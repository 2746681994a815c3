package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rowsOver serves a canned NDJSON body (the header line is added).
func rowsOver(t testing.TB, body string) *Rows {
	t.Helper()
	r, err := newRows(io.NopCloser(strings.NewReader(`{"cols":["a","b"]}` + "\n" + body)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const trailer = `{"done":true,"rows":2,"scanned":9}` + "\n"

// sameValues reports whether two decoded rows are identical, telling
// -0 from 0 (which == does not).
func sameValues(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		if aok && bok {
			if math.Float64bits(fa) != math.Float64bits(fb) {
				return false
			}
		} else if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// drain collects every row (copied: Row is only valid until the next
// Next) and the final error.
func drain(r *Rows) ([][]any, error) {
	var out [][]any
	for r.Next() {
		out = append(out, append([]any(nil), r.Row()...))
	}
	return out, r.Err()
}

func TestRowsDecode(t *testing.T) {
	r := rowsOver(t, `["web-1",7,12.5,true,null]`+"\n"+
		"\n"+ // a blank line is not a row
		`[-0,1e21,5e-324,-9223372036854775808,""]`+"\r\n"+
		// Lines the single-pass parser hands to encoding/json: blanks
		// between tokens, escapes, a nested value.
		` [ "a" , 1 ] `+"\n"+
		`["q\"uote\n","é🍄"]`+"\n"+
		`[[1,2],{"k":"v"}]`+"\n"+
		`[]`+"\n"+
		`{"done":true,"rows":6,"scanned":42}`+"\n")
	if got := strings.Join(r.Cols(), ","); got != "a,b" {
		t.Errorf("cols = %s", got)
	}
	got, err := drain(r)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{"web-1", 7.0, 12.5, true, nil},
		{math.Copysign(0, -1), 1e21, 5e-324, -9223372036854775808.0, ""},
		{"a", 1.0},
		{"q\"uote\n", "é\U0001F344"},
		{[]any{1.0, 2.0}, map[string]any{"k": "v"}},
		{},
	}
	if len(got) != len(want) || r.Count() != 6 || r.Scanned() != 42 {
		t.Fatalf("%d rows (count %d, scanned %d), want 6 and 42", len(got), r.Count(), r.Scanned())
	}
	for i := range want {
		if !sameValues(got[i], want[i]) {
			t.Errorf("row %d = %#v, want %#v", i, got[i], want[i])
		}
	}
	if r.Next() {
		t.Error("Next after the trailer")
	}
}

// TestRowsLongLines: a line may be longer than the reader's buffer, and
// may end anywhere relative to it.
func TestRowsLongLines(t *testing.T) {
	var body strings.Builder
	var lens []int
	for _, n := range []int{readBufferSize - 6, readBufferSize - 5, readBufferSize - 4, readBufferSize, 3*readBufferSize + 1, 10, 200_000} {
		lens = append(lens, n)
		fmt.Fprintf(&body, "[%q,%d]\n", strings.Repeat("x", n), n)
	}
	got, err := drain(rowsOver(t, body.String()+trailer))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lens) {
		t.Fatalf("%d rows, want %d", len(got), len(lens))
	}
	for i, n := range lens {
		if s, _ := got[i][0].(string); len(s) != n || strings.Trim(s, "x") != "" || got[i][1] != float64(n) {
			t.Errorf("row %d: string of %d bytes, tag %v; want %d", i, len(s), got[i][1], n)
		}
	}
}

// TestRowsTruncatedStream: a stream that ends without its trailer is an
// error however it ends, because the rows seen so far are not the whole
// answer.
func TestRowsTruncatedStream(t *testing.T) {
	for name, tc := range map[string]struct {
		body string
		rows int
		want error
	}{
		"no trailer":         {"[1,2]\n[3,4]\n", 2, io.EOF},
		"nothing":            {"", 0, io.EOF},
		"cut inside a row":   {"[1,2]\n[3,", 1, io.ErrUnexpectedEOF},
		"cut inside trailer": {"[1,2]\n" + `{"done":tr`, 1, io.ErrUnexpectedEOF},
		"cut before newline": {"[1,2]\n[3,4]", 2, io.EOF},
	} {
		r := rowsOver(t, tc.body)
		got, err := drain(r)
		if len(got) != tc.rows || !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), "truncated") {
			t.Errorf("%s: %d rows, err %v; want %d rows and a truncation error wrapping %v", name, len(got), err, tc.rows, tc.want)
		}
	}
	// The trailer counts even when the stream ends right after it.
	if got, err := drain(rowsOver(t, "[1,2]\n"+strings.TrimSuffix(trailer, "\n"))); err != nil || len(got) != 1 {
		t.Errorf("trailer without a newline: %d rows, err %v", len(got), err)
	}
}

func TestRowsMidStreamError(t *testing.T) {
	r := rowsOver(t, "[1,2]\n"+`{"error":{"code":"exec_error","message":"division by zero"}}`+"\n[3,4]\n"+trailer)
	got, err := drain(r)
	var serr *Error
	if len(got) != 1 || !errors.As(err, &serr) || serr.Code != "exec_error" || serr.Message != "division by zero" {
		t.Fatalf("%d rows, err %v; want 1 row and the server's exec_error", len(got), err)
	}
	if r.Next() || r.Count() != 1 {
		t.Errorf("stream went on after its error line (count %d)", r.Count())
	}
	for name, body := range map[string]string{
		"malformed row":    "[1,,2]\n" + trailer,
		"two values":       "[1][2]\n" + trailer,
		"malformed object": "{nope}\n" + trailer,
		"stray object":     `{"rows":3}` + "\n" + trailer,
		"stray scalar":     "17\n" + trailer,
	} {
		if got, err := drain(rowsOver(t, body)); err == nil || len(got) != 0 {
			t.Errorf("%s: %d rows, err %v; want an error", name, len(got), err)
		}
	}
	if _, err := newRows(io.NopCloser(strings.NewReader("not a header\n"))); err == nil {
		t.Error("bad header accepted")
	}
}

// TestRowsRowReuse pins the Row contract: valid until the next Next,
// because every row of a stream decodes into the same slice.
func TestRowsRowReuse(t *testing.T) {
	r := rowsOver(t, `["a",1]`+"\n"+`["b",2]`+"\n"+`["c",3]`+"\n"+trailer)
	var first []any
	for i := 0; r.Next(); i++ {
		row := r.Row()
		if want := []any{string(rune('a' + i)), float64(i + 1)}; !sameValues(row, want) {
			t.Fatalf("row %d = %v, want %v", i, row, want)
		}
		if i == 0 {
			first = row
		} else if &first[0] != &row[0] {
			t.Errorf("row %d was decoded into a new slice", i)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if first[0] != "c" {
		t.Errorf("a kept Row() reads %v after the stream moved on; the contract says it is overwritten", first)
	}
	line, cur := []byte(`["web-12",21.957486726422708,87.5,true]`), make([]any, 0, 4)
	allocs := testing.AllocsPerRun(20, func() {
		dst, ok := parseRowLine(line, cur, nil)
		if !ok || len(dst) != 4 {
			t.Fatal("row not recognised")
		}
	})
	// The string's bytes, its box (nothing interns it here), and one
	// box per float.
	if allocs > 4 {
		t.Errorf("%.0f allocations to decode a 4-column row, want <= 4", allocs)
	}
}

// drainAllocs reports the allocations of reading body (row lines, then
// the trailer) through a Rows from its header on.
func drainAllocs(t *testing.T, body string, rows int) float64 {
	t.Helper()
	text := `{"cols":["a","b"]}` + "\n" + body + trailer
	src := strings.NewReader(text)
	return testing.AllocsPerRun(10, func() {
		src.Reset(text)
		r, err := newRows(io.NopCloser(src))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; r.Next(); n++ {
		}
		if err := r.Err(); err != nil || n != rows {
			t.Fatalf("%d rows, err %v; want %d", n, err, rows)
		}
	})
}

// TestRowsAllocsPerRow: after the first row (which sizes the row slice
// and interns its strings), a row line costs the boxes of its float64s
// and nothing else — no row header, no boolean, no repeated string.
func TestRowsAllocsPerRow(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		line  string
		boxes int // float64 cells per row
	}{
		{`[12.5,true,-0.25,false,null]`, 2},
		{`[true,false]`, 0},
		{`["web-12",true,"web-12"]`, 0},
		{`[21.957486726422708,"web-12",87.5,true]`, 2},
	} {
		first := drainAllocs(t, tc.line+"\n", 1)
		got := drainAllocs(t, strings.Repeat(tc.line+"\n", n), n) - first
		if limit := float64(tc.boxes * (n - 1)); got > limit {
			t.Errorf("%s: %.0f allocations over the %d rows after the first, want <= %.0f", tc.line, got, n-1, limit)
		}
	}
}

// TestRowsInternStrings: interned string cells decode exactly as
// encoding/json decodes them, and the intern table stays within its
// bounds on long and on many distinct strings. Across two Rows: the
// first fills the table, and once it is closed the second's strings
// are interned all the same.
func TestRowsInternStrings(t *testing.T) {
	long := strings.Repeat("x", internMaxLen+1)
	for _, prefix := range []string{"dev", "next"} {
		var body strings.Builder
		var want [][]any
		for i := 0; i < 3*internMaxEntries; i++ {
			line := fmt.Sprintf(`["%s-%d","web-12",%q,""]`, prefix, i, long)
			fmt.Fprintln(&body, line)
			var row []any
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				t.Fatal(err)
			}
			want = append(want, row)
		}
		r := rowsOver(t, body.String()+trailer)
		got, err := drain(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", prefix, len(got), len(want))
		}
		for i := range want {
			if !sameValues(got[i], want[i]) {
				t.Fatalf("%s: row %d = %#v, want %#v", prefix, i, got[i], want[i])
			}
		}
		strs := r.st.strs
		if len(strs) != internMaxEntries {
			t.Errorf("%s: intern table holds %d strings, want its bound %d", prefix, len(strs), internMaxEntries)
		}
		if _, ok := strs[prefix+"-0"]; !ok {
			t.Errorf("%s: the stream's first string was not interned", prefix)
		}
		if _, ok := strs[long]; ok {
			t.Errorf("%s: a %d-byte string was interned (bound %d)", prefix, len(long), internMaxLen)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if len(strs) != 0 {
			t.Errorf("%s: a full intern table still holds %d strings after Close", prefix, len(strs))
		}
	}
}

// TestRowsCloseTwice: a second Close must not hand the stream's decode
// state to the pool again, or two later streams would share one line
// reader.
func TestRowsCloseTwice(t *testing.T) {
	r := rowsOver(t, `[1]`+"\n"+trailer)
	for i := 0; i < 2; i++ {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := rowsOver(t, `["a"]`+"\n"+trailer), rowsOver(t, `["b"]`+"\n"+trailer)
	defer a.Close()
	defer b.Close()
	if a.st == b.st {
		t.Fatal("two open streams share one decode state")
	}
	for _, tc := range []struct {
		r    *Rows
		want string
	}{{a, "a"}, {b, "b"}} {
		if !tc.r.Next() || tc.r.Row()[0] != tc.want {
			t.Errorf("stream %q read %v (err %v)", tc.want, tc.r.Row(), tc.r.Err())
		}
	}
}

// TestRowsConcurrentEarlyClose runs many streams at once, each over
// its own rows and each closed early at a different point (some twice),
// so that decode state passes between goroutines through the pool. Every
// row must be its own stream's; under -race a state still in use when
// handed on is a data race. CI repeats it under -race.
func TestRowsConcurrentEarlyClose(t *testing.T) {
	const streams, rounds, rows = 8, 12, 2000 // about 48 KB a stream: several buffer fills
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				tag := fmt.Sprintf("s%d-r%d", g, round)
				var body strings.Builder
				fmt.Fprintln(&body, `{"cols":["tag","i"]}`)
				for i := 0; i < rows; i++ {
					fmt.Fprintf(&body, "[%q,%d,\"dev-%d\"]\n", tag, i, i%7)
				}
				body.WriteString(trailer)
				r, err := newRows(io.NopCloser(strings.NewReader(body.String())))
				if err != nil {
					t.Error(err)
					return
				}
				stop := (g*rounds + round) * 397 % (rows + 2) // rows+1: a full drain, trailer included
				for i := 0; i < stop && r.Next(); i++ {
					row := r.Row()
					if row[0] != tag || row[1] != float64(i) || row[2] != fmt.Sprintf("dev-%d", i%7) {
						t.Errorf("%s: row %d = %v", tag, i, row)
						break
					}
				}
				if err := r.Err(); err != nil {
					t.Errorf("%s: %v", tag, err)
				}
				r.Close()
				if round%3 == 0 {
					r.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRowsReuseConnection: a stream read to its last line leaves its
// connection to the next request, even when the end of the response
// comes after that line has been read — here the handler lingers after
// flushing it, so the chunked body's end always arrives late. Streams
// end at the trailer and at an error line.
func TestRowsReuseConnection(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			SQL string `json:"sql"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		fmt.Fprintln(w, `{"cols":["i"]}`)
		for i := 0; i < 3000; i++ { // more than one read buffer
			fmt.Fprintf(w, "[%d]\n", i)
		}
		if req.SQL == "fail" {
			fmt.Fprintln(w, `{"error":{"code":"exec","message":"boom"}}`)
		} else {
			fmt.Fprint(w, trailer)
		}
		w.(http.Flusher).Flush()
		time.Sleep(2 * time.Millisecond)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	for i := 0; i < 10; i++ {
		sql := "ok"
		if i%3 == 2 {
			sql = "fail"
		}
		r, err := c.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drain(r)
		r.Close()
		if len(rows) != 3000 || (err != nil) != (sql == "fail") {
			t.Fatalf("query %d: %d rows, err %v", i, len(rows), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("10 streams dialled %d connections, want 1", n)
	}
}

func FuzzRowLine(f *testing.F) {
	for _, s := range []string{
		`[]`, `["web-1",7,12.5,true,null]`, `[-0,1e21,5e-324,-9223372036854775808,""]`, `[1e400]`, `[01]`, `[1.]`, `[.5]`,
		`[-]`, `[+1]`, `[0x10]`, `[Infinity]`, `[NaN]`, `[1,]`, `[,1]`, `[1 ,2]`, `["a\nb"]`, `["é"]`, "[\"\xff\"]", "[\"\xc3\xa9\"]",
		`["unterminated]`, `[tru]`, `[truefalse]`, `[nulll]`, `[[1]]`, `[{"a":1}]`, `[1]]`, `[1][2]`, `[`, `]`, ``, `{"done":true}`,
		"[\"tab\there\"]", "[]\f", "\v[1]", "[1]\u00a0", `[1E5,2e+3,3e-3,-4.5E-10]`, `["]"]`, `[","]`,
		`[-0,1E+2,-0.0]`, `[123456789012345678901,1.00000000000000011102230246251565404236316680908203125]`,
		`[9007199254740993,2.2250738585072011e-308,4.9e-324]`, `[-1e400]`, `[1,1e400]`, `[-01]`, `[1.e5]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want []any
		wantErr := json.Unmarshal(line, &want)
		got, ok := parseRowLine(line, []any{"stale", 1.0}, map[string]any{})
		if ok && (wantErr != nil || !sameValues(got, want)) {
			t.Fatalf("line %q: fast parser decoded %#v, encoding/json %#v (err %v)", line, got, want, wantErr)
		}
		// Whatever the fast parser made of it, a Rows delivers what
		// encoding/json decodes, or fails where it fails.
		if strings.ContainsAny(string(line), "\r\n") || len(line) == 0 || line[0] != '[' {
			return // not one row line
		}
		r, err := newRows(io.NopCloser(strings.NewReader("{\"cols\":[]}\n" + string(line) + "\n" + trailer)))
		if err != nil {
			t.Fatal(err)
		}
		switch next := r.Next(); {
		case wantErr != nil && (next || r.Err() == nil):
			t.Fatalf("line %q: Rows accepted what encoding/json rejects (%v)", line, wantErr)
		case wantErr == nil && (!next || !sameValues(r.Row(), want)):
			t.Fatalf("line %q: Rows gave %#v (err %v), encoding/json %#v", line, r.Row(), r.Err(), want)
		}
	})
}

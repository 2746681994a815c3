package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
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
		dst, ok := parseRowLine(line, cur)
		if !ok || len(dst) != 4 {
			t.Fatal("row not recognised")
		}
	})
	// The string's bytes, its box, and one box per float.
	if allocs > 4 {
		t.Errorf("%.0f allocations to decode a 4-column row, want <= 4", allocs)
	}
}

func FuzzRowLine(f *testing.F) {
	for _, s := range []string{
		`[]`, `["web-1",7,12.5,true,null]`, `[-0,1e21,5e-324,-9223372036854775808,""]`, `[1e400]`, `[01]`, `[1.]`, `[.5]`,
		`[-]`, `[+1]`, `[0x10]`, `[Infinity]`, `[NaN]`, `[1,]`, `[,1]`, `[1 ,2]`, `["a\nb"]`, `["é"]`, "[\"\xff\"]", "[\"\xc3\xa9\"]",
		`["unterminated]`, `[tru]`, `[truefalse]`, `[nulll]`, `[[1]]`, `[{"a":1}]`, `[1]]`, `[1][2]`, `[`, `]`, ``, `{"done":true}`,
		"[\"tab\there\"]", "[]\f", "\v[1]", "[1]\u00a0", `[1E5,2e+3,3e-3,-4.5E-10]`, `["]"]`, `[","]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want []any
		wantErr := json.Unmarshal(line, &want)
		got, ok := parseRowLine(line, []any{"stale", 1.0})
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

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"fungusdb/internal/core"
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

// checkRowLine asserts appendRowJSON and encoding/json agree on row:
// the same bytes, or both refuse.
func checkRowLine(t *testing.T, row []tuple.Value) {
	t.Helper()
	want, wantErr := jsonRowLine(row)
	prefix := []byte("kept\n")
	got, err := appendRowJSON(append([]byte(nil), prefix...), row)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("row %v: appendRowJSON err %v, encoding/json err %v", row, err, wantErr)
	}
	if err != nil {
		if !strings.Contains(wantErr.Error(), err.Error()) {
			t.Errorf("row %v: error %q, encoding/json says %q", row, err, wantErr)
		}
		want = nil
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("row %v:\n  appendRowJSON  %q\n  encoding/json  %q", row, got[len(prefix):], want)
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
	const good = 100 // past the first 64-row flush
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
	if lines[good] != "[99,99]" {
		t.Errorf("last row line = %s, want [99,99]", lines[good])
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

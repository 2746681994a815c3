package client

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestInsertBodyMatchesEncodingJSON: Insert sends the bytes
// json.Marshal(map[string]any{"rows": rows}) writes, whether the
// appender wrote them or handed the batch to encoding/json.
func TestInsertBodyMatchesEncodingJSON(t *testing.T) {
	var mu sync.Mutex
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = body
		mu.Unlock()
		w.Write([]byte(`{"inserted":1,"first_id":0}`))
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())

	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		rows   [][]any
		direct bool // the appender writes it, without encoding/json
	}{
		{"nil rows", nil, true},
		{"no rows", [][]any{}, true},
		{"nil row", [][]any{nil, {}}, true},
		{"go ints", [][]any{{0, -1, math.MaxInt64, int64(math.MinInt64), int64(1<<53 + 1)}}, true},
		{"html", [][]any{{"<script>a && b</script>", `"q" \ /`}}, true},
		{"separators", [][]any{{"LS\u2028PS\u2029", "\x00\x1f\t\n\r\b\f\x7f"}}, true},
		{"invalid utf8", [][]any{{"bad \xff utf8 \xc3", "\xe2\x80", "h\u00e9llo \U0001F344"}}, true},
		{"floats", [][]any{{negZero, 1e21, 1e-7, 1e20, 1e-6, 0.1, 5e-324, math.MaxFloat64, -1.5e300}}, true},
		{"scalars", [][]any{{"web-1", 7.5, true, false, nil}, {"web-2", 1, 2.25, true, nil}}, true},
		{"float32", [][]any{{float32(1.1)}}, false},
		{"json.Number", [][]any{{json.Number("12.50")}}, false},
		{"nested", [][]any{{[]any{1, "a"}, map[string]any{"k": 1}}}, false},
		{"marshaler", [][]any{{time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}}, false},
		{"other ints", [][]any{{int8(-8), int32(32), uint(7), uint64(math.MaxUint64)}}, false},
		{"late fallback", [][]any{{"a", 1.5}, {"b", float32(2)}}, false},
	}
	for _, tc := range cases {
		want, err := json.Marshal(map[string]any{"rows": tc.rows})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if body, ok := appendInsertBody(nil, tc.rows); ok != tc.direct || (ok && !bytes.Equal(body, want)) {
			t.Errorf("%s: appender ok=%v (want %v)\n  appender      %s\n  encoding/json %s", tc.name, ok, tc.direct, body, want)
		}
		if _, err := c.Insert("t", tc.rows); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		sent := got
		mu.Unlock()
		if !bytes.Equal(sent, want) {
			t.Errorf("%s: sent\n  %s\nwant\n  %s", tc.name, sent, want)
		}
	}

	// A value encoding/json refuses keeps its error text and sends nothing.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got = nil
		rows := [][]any{{"web-1", 1.5}, {"web-2", bad}}
		_, jerr := json.Marshal(map[string]any{"rows": rows})
		_, err := c.Insert("t", rows)
		if err == nil || jerr == nil || err.Error() != "client: marshal: "+jerr.Error() {
			t.Errorf("Insert(%v) error %v, want client: marshal: %v", bad, err, jerr)
		}
		if got != nil {
			t.Errorf("Insert(%v) sent a body", bad)
		}
	}
}

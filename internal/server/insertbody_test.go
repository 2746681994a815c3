package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fungusdb/internal/core"
	"fungusdb/internal/tuple"
)

// fuzzKinds are the column kinds a fuzz schema byte selects from.
var fuzzKinds = []tuple.Kind{tuple.KindString, tuple.KindInt, tuple.KindFloat, tuple.KindBool}

// schemaOf builds a schema of one to six columns whose kinds are picked
// by the bytes of spec.
func schemaOf(spec []byte) *tuple.Schema {
	if len(spec) == 0 {
		spec = []byte{0}
	}
	cols := make([]tuple.Column, min(len(spec), 6))
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: fuzzKinds[int(spec[i])%len(fuzzKinds)]}
	}
	return tuple.MustSchema(cols...)
}

// sifb is the spec of a STRING, INT, FLOAT, BOOL schema.
var sifb = []byte{0, 1, 2, 3}

// checkInsertBody holds decodeInsertBody to the reference: when it
// accepts body it must yield exactly the rows decodeRows yields — the
// same count, kinds and values, floats bit for bit. It reports whether
// the single-pass decoder accepted the body.
func checkInsertBody(t *testing.T, body []byte, schema *tuple.Schema) bool {
	t.Helper()
	cols, n, ok := decodeInsertBody(body, schema)
	if !ok {
		return false
	}
	want, err := decodeRows(bytes.NewReader(body), schema)
	if err != nil {
		t.Fatalf("body %q: single-pass decoder accepted what the reference refuses: %v", body, err)
	}
	if n != len(want) {
		t.Fatalf("body %q: %d rows, reference %d", body, n, len(want))
	}
	if err := schema.ValidateColumns(cols, n); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	for r, row := range want {
		for c, w := range row {
			g := cols[c].Value(r)
			same := g.Kind() == w.Kind()
			if same {
				switch w.Kind() {
				case tuple.KindInt:
					same = g.AsInt() == w.AsInt()
				case tuple.KindFloat:
					same = math.Float64bits(g.AsFloat()) == math.Float64bits(w.AsFloat())
				case tuple.KindString:
					same = g.AsString() == w.AsString()
				case tuple.KindBool:
					same = g.AsBool() == w.AsBool()
				}
			}
			if !same {
				t.Fatalf("body %q: row %d column %d = %v, reference %v", body, r, c, g, w)
			}
		}
	}
	return true
}

// insertBodyCases are bodies for a STRING, INT, FLOAT, BOOL schema, and
// whether the single-pass decoder takes them.
var insertBodyCases = []struct {
	body   string
	accept bool
}{
	{`{"rows":[["web-1",2,9.5,true],["web-2",7,1.25,false]]}`, true},
	{" \t\r\n{ \"rows\" :\n[ [ \"a\" , 1 , 2 , false ] ,\t[\"b\",-3,4e-7,true] ] }\n ", true},
	{"{\"rows\":[[\"\",0,-0,true],[\"h\u00e9llo \U0001F344\",-0,-0.0,false]]}", true},
	{`{"rows":[["x",9007199254740993,9007199254740993,true]]}`, true},   // INT above 2^53 goes through float64
	{`{"rows":[["x",-9223372036854775808,1e308,true]]}`, true},          // the least int64
	{`{"rows":[["x",9223372036854775807,1,true]]}`, false},              // rounds to 2^63: not an int64
	{`{"rows":[["x",1E2,1.5e-400,true]]}`, true},                        // integral exponent form; underflow to 0
	{`{"rows":[["x",2.5,1,true]]}`, false},                              // fractional INT
	{`{"rows":[["x",1,1e400,true]]}`, false},                            // out of float64 range
	{`{"rows":[["esc\"aped",1,1,true]]}`, false},                        // escapes
	{`{"rows":[["\u0041",1,1,true]]}`, false},                           // escapes
	{"{\"rows\":[[\"bad \xff utf8\",1,1,true]]}", false},                // invalid UTF-8
	{"{\"rows\":[[\"ctl \x01\",1,1,true]]}", false},                     // control byte
	{`{"Rows":[["x",1,1,true]]}`, false},                                // encoding/json folds key case
	{`{"rows":[["x",1,1,true]],"rows":[["y",2,2,false]]}`, false},       // duplicate key
	{`{"rows":[["x",1,1,true]],"extra":1}`, false},                      // unknown field
	{`{"rows":[["x",1,1,true]]} trailing`, false},                       // trailing bytes
	{`{"rows":[["x",1,1,true]]}{}`, false},                              // a second value
	{`null`, false},                                                     // no object
	{`{"rows":null}`, false},                                            // no rows
	{`{"rows":[]}`, false},                                              // no rows
	{`{}`, false},                                                       // no rows
	{`{"rows":[["x",1,1]]}`, false},                                     // wrong arity
	{`{"rows":[["x",1,1,true,5]]}`, false},                              // wrong arity
	{`{"rows":[[1,1,1,true]]}`, false},                                  // wrong kind
	{`{"rows":[["x",1,1,null]]}`, false},                                // null value
	{`{"rows":[["x",1,1,true],]}`, false},                               // trailing comma
	{`{"rows":[["x",01,1,true]]}`, false},                               // leading zero
	{`{"rows":[["x",1,.5,true]]}`, false},                               // bare dot
	{`{"rows":[["x",1,1,tru]]}`, false},                                 // truncated literal
	{`{"rows":[["x",1,1,true]]`, false},                                 // truncated object
	{`{"rows":[["x",1,1,true]}`, false},                                 // unbalanced
	{`{"rows":[["x",[1],1,true]]}`, false},                              // nested value
	{`{"rows":[["x",1,1,true],{"a":1}]}`, false},                        // object row
	{"\xef\xbb\xbf" + `{"rows":[["x",1,1,true]]}`, false},               // byte-order mark
	{`{"rows":[["x",1,1,true]]}` + strings.Repeat(" ", 3) + "\n", true}, // trailing whitespace
	{`{"rows":[["x",-0,1E+2,true]]}`, true},                             // negative zero; signed upper-case exponent
	{`{"rows":[["x",1,123456789012345678901.5,true]]}`, true},           // past 19 digits: the strconv fallback
	{`{"rows":[["x",1,2.2250738585072011e-308,true]]}`, true},           // subnormal result
	{`{"rows":[["x",100000000000000000000000,1,true]]}`, false},         // integral, past int64
	{`{"rows":[["x",1,-1e400,true]]}`, false},                           // out of float64 range
	{`{"rows":[["x",1,01,true]]}`, false},                               // leading zero
	{`{"rows":[["x",1,1.,true]]}`, false},                               // trailing dot
}

func TestInsertBodyDecoder(t *testing.T) {
	schema := schemaOf(sifb)
	for _, tc := range insertBodyCases {
		if got := checkInsertBody(t, []byte(tc.body), schema); got != tc.accept {
			t.Errorf("body %q: accepted %v, want %v", tc.body, got, tc.accept)
		}
	}
}

// FuzzInsertBody: for any body and schema the single-pass decoder
// either declines or yields exactly the reference decode's rows.
func FuzzInsertBody(f *testing.F) {
	for _, tc := range insertBodyCases {
		f.Add([]byte(tc.body), sifb)
	}
	f.Add([]byte(`{"rows":[[1],[2.5],[-0],[1e21]]}`), []byte{2})
	f.Add([]byte(`{"rows":[[-0],[1E+2],[9007199254740993],[1.00000000000000011102230246251565404236316680908203125]]}`), []byte{2})
	f.Add([]byte(`{"rows":[[-0],[1E+2],[12345678901234567890123]]}`), []byte{1})
	f.Add([]byte(`{"rows":[[true,"a"],[false,"a"],[true,"b"]]}`), []byte{3, 0})
	f.Add([]byte("{\"rows\":[[\"a\"],[\"a\"],[\"\u00e9\"],[\"a\"]]}"), []byte{0})
	f.Fuzz(func(t *testing.T, body, spec []byte) {
		checkInsertBody(t, body, schemaOf(spec))
	})
}

// TestInsertRouteBothDecoders: a body the single-pass decoder takes and
// the same rows in a body it hands to the reference (an escape in a
// string) store the same rows, and each answer names its first row's ID.
func TestInsertRouteBothDecoders(t *testing.T) {
	c, _, ts := newServer(t, Config{})
	seedV2(t, c, 0)
	post := func(body string) InsertResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tables/logs/rows", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out InsertResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return out
	}
	if got := post(`{"rows":[["web\u002d1",2,9.5,true],["web-2",-7,-0,false],["web-1",3,1e-7,true]]}`); got.Inserted != 3 || got.FirstID != 0 {
		t.Errorf("reference insert answered %+v", got)
	}
	if got := post(`{"rows":[["web-1",2,9.5,true],["web-2",-7,-0,false],["web-1",3,1e-7,true]]}`); got.Inserted != 3 || got.FirstID != 3 {
		t.Errorf("single-pass insert answered %+v", got)
	}
	rows, err := queryRows(c, "SELECT host, sev, latency, ok FROM logs")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || fmt.Sprint(rows[:3]) != fmt.Sprint(rows[3:]) {
		t.Errorf("rows = %v, want the same three rows twice", rows)
	}
}

// TestInsertAllocsPerDistinctString: one 1000-row POST through
// ServeHTTP allocates a constant plus one string per distinct STRING
// value, not a value, a slice or a box per row.
func TestInsertAllocsPerDistinctString(t *testing.T) {
	db, err := core.Open(core.DBConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db)
	if _, err := db.CreateTable("logs", core.TableConfig{Schema: schemaOf(sifb), Shards: 4}); err != nil {
		t.Fatal(err)
	}
	const rows, distinct = 1000, 50
	batch := make([][]any, rows)
	for i := range batch {
		batch[i] = []any{fmt.Sprintf("web-%d", i%distinct), i, float64(i) / 8, i%3 == 0}
	}
	body, err := json.Marshal(map[string]any{"rows": batch})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tables/logs/rows", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	})
	const fixed = 150
	if allocs > fixed+distinct {
		t.Errorf("%.0f allocations for a %d-row insert with %d distinct strings, want at most %d", allocs, rows, distinct, fixed+distinct)
	}
}

package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Palettes the fuzzer picks key values from: the values a ranked walk
// or a typed heap key could get wrong — NaN, ±0, ±Inf and INT keys
// around 2^53, where distinct values share one float image.
var (
	fuzzVs = []float64{math.NaN(), 0, math.Copysign(0, -1), 1, 2, 3, 1.5, -1,
		1<<53 - 1, 1 << 53, 1<<53 + 2, math.Inf(1), math.Inf(-1), 0.5, 7, 2}
	fuzzKs = []int64{0, 1, 2, 3, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1,
		-(1 << 53), -(1<<53 + 1), 5, 7, 1 << 62, -(1 << 62), 100, 2}
	fuzzOrders = []string{"v DESC", "v ASC", "k DESC", "k ASC", "_id DESC", "_t ASC",
		"v DESC, k ASC", "k ASC, v DESC", "v ASC, _id DESC", "k DESC, _id DESC", "v, name DESC"}
)

// FuzzOrderedTopK builds a table from the input — shard count, segment
// size, rows drawn from the palettes above with ticks between some, and
// a consume that evicts every m-th ID — and runs one ORDER BY ... LIMIT statement through the
// top-k route, ranked walk included, and through the sort barrier (the
// statement without LIMIT, cut by the reader). Where the barrier
// answers, the top-k route must answer the same rows. Where it errors
// (a NaN key is incomparable), the top-k route must error the same way
// when the NaN is in the first key, which it must always meet; a NaN in
// a later key is compared only where the first keys tie, which the two
// routes need not both reach. An error from the top-k route must be one
// the barrier reports too.
func FuzzOrderedTopK(f *testing.F) {
	f.Add([]byte{0, 2, 4, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 1, 6, 3, 1, 8, 5, 9, 6, 10, 7, 8, 6, 1, 0, 2, 1, 3, 2})
	f.Add([]byte{2, 3, 0, 9, 2, 0, 5, 6, 6, 7, 5, 6, 9, 9, 4, 4, 4, 4, 11, 12, 13})
	f.Add([]byte{0, 1, 2, 1, 0, 0, 0x10, 1, 0x12, 3, 2, 0x20, 0, 0x31, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		shards, limit, seg := 1+int(data[0]%3), 1+int(data[1]%6), 2+int(data[2]%8)
		order := fuzzOrders[int(data[3]>>1)%len(fuzzOrders)]
		where := ""
		if data[3]&1 != 0 {
			where = " WHERE hot"
		}
		db, err := Open(DBConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", TableConfig{Schema: vecSchema, Shards: shards, SegmentSize: seg})
		if err != nil {
			t.Fatal(err)
		}
		rows := data[6:]
		if len(rows) > 512 {
			rows = rows[:512] // 256 rows: enough segments, and quick
		}
		for ; len(rows) >= 2; rows = rows[2:] {
			a, b := rows[0], rows[1]
			if _, err := tbl.Insert(Row(fuzzKs[b&15], fuzzVs[a&15], fmt.Sprintf("n%d", (b>>4)%3), a&16 != 0)); err != nil {
				t.Fatal(err)
			}
			if a&32 != 0 {
				if _, err := db.Tick(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m := int(data[4] % 5); m > 1 {
			if _, err := tbl.SQL(fmt.Sprintf("SELECT CONSUME k FROM t WHERE _id %% %d = %d", m, int(data[5])%m)); err != nil {
				t.Fatal(err)
			}
		}
		src := "SELECT k, v, name, _t, _id FROM t" + where + " ORDER BY " + order
		got, gerr := drainAny(mustPrepare(t, tbl, fmt.Sprintf("%s LIMIT %d", src, limit)), QueryOpts{})
		want, werr := drainAny(mustPrepare(t, tbl, src), QueryOpts{})
		if len(want) > limit {
			want = want[:limit]
		}
		switch {
		case werr == nil && (gerr != nil || strings.Join(got, " ") != strings.Join(want, " ")):
			t.Fatalf("%q LIMIT %d: top-k %q (err %v), barrier %q", src, limit, got, gerr, want)
		case gerr != nil && fmt.Sprint(gerr) != fmt.Sprint(werr):
			t.Fatalf("%q LIMIT %d: top-k err %v, barrier err %v", src, limit, gerr, werr)
		case werr != nil && gerr == nil && strings.HasPrefix(order, "v"):
			t.Fatalf("%q LIMIT %d: barrier err %v, top-k none (rows %q)", src, limit, werr, got)
		}
	})
}

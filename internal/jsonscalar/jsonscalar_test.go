package jsonscalar

import (
	"encoding/json"
	"testing"
)

// TestAppendStringByteSweep puts every byte value, and every pair of
// byte values, after a run of plain bytes, where AppendString's table
// scan hands over to its escaping loop, and before one; the output must
// be encoding/json's.
func TestAppendStringByteSweep(t *testing.T) {
	check := func(s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for c := 0; c < 256; c++ {
		check("sensor-" + string(rune(c)))
		check(string([]byte{byte(c)}) + "-tail")
		for d := 0; d < 256; d++ {
			check("ab" + string([]byte{byte(c), byte(d)}) + "cd")
		}
	}
}

var sinkEnd int

func BenchmarkAppendString(b *testing.B) {
	for _, s := range []string{"sensor-123", "a longer device name with spaces", "héllo"} {
		b.Run(s, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBytes = AppendString(sinkBytes[:0], s)
			}
		})
	}
}

func BenchmarkStringEnd(b *testing.B) {
	line := AppendString(nil, "sensor-123")
	for i := 0; i < b.N; i++ {
		sinkEnd = StringEnd(line, 0)
	}
}

package jsonscalar

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fungusdb/internal/tuple"
	"fungusdb/internal/workload"
)

// refAppendFloat is the strconv formatter AppendFloat replaced: the
// reference its output must equal byte for byte.
func refAppendFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && (buf[n-3] == '-' || buf[n-3] == '+') && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// refNumberEnd is the JSON number grammar check ParseNumber replaced:
// the end of the number starting at b[i], or -1.
func refNumberEnd(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// checkFloat: AppendFloat writes what the strconv reference and
// encoding/json write, and ParseNumber reads it back to the same bits.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got := AppendFloat([]byte("x"), f)
	if want := refAppendFloat([]byte("x"), f); string(got) != string(want) {
		t.Fatalf("AppendFloat(%b) = %s, strconv reference %s", math.Float64bits(f), got[1:], want[1:])
	}
	if want, err := json.Marshal(f); err != nil || string(got[1:]) != string(want) {
		t.Fatalf("AppendFloat(%b) = %s, encoding/json %s (%v)", math.Float64bits(f), got[1:], want, err)
	}
	back, end, ok := ParseNumber(got, 1)
	if !ok || end != len(got) || math.Float64bits(back) != math.Float64bits(f) {
		t.Fatalf("ParseNumber(%s) = %v, %d, %v; want %b, %d, true", got[1:], back, end, ok, math.Float64bits(f), len(got))
	}
}

// checkNumber: ParseNumber at b[i] accepts what the grammar check plus
// strconv.ParseFloat accept, ends where the grammar check ends, and
// yields strconv's bits.
func checkNumber(t *testing.T, b []byte, i int) {
	t.Helper()
	wantEnd := refNumberEnd(b, i)
	var want float64
	wantOK := wantEnd >= 0
	if wantOK {
		var err error
		want, err = strconv.ParseFloat(string(b[i:wantEnd]), 64)
		wantOK = err == nil
	}
	f, end, ok := ParseNumber(b, i)
	switch {
	case ok != wantOK:
		t.Fatalf("ParseNumber(%q, %d) ok = %v, reference %v", b, i, ok, wantOK)
	case ok && end != wantEnd:
		t.Fatalf("ParseNumber(%q, %d) end = %d, reference %d", b, i, end, wantEnd)
	case ok && math.Float64bits(f) != math.Float64bits(want):
		t.Fatalf("ParseNumber(%q, %d) = %v (%b), strconv %v (%b)", b, i, f, math.Float64bits(f), want, math.Float64bits(want))
	}
}

func checkNumberString(t *testing.T, s string) {
	t.Helper()
	checkNumber(t, []byte(s), 0)
	checkNumber(t, []byte("["+s+"]"), 1)
}

func TestPow10Table(t *testing.T) {
	// Spot values, as strconv's own table holds them.
	for _, tc := range []struct {
		e      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{1, 0xA000000000000000, 0},
	} {
		if got := pow10[tc.e-pow10Min]; got != (uint128{tc.hi, tc.lo}) {
			t.Errorf("pow10[1e%d] = %#x, want %#x", tc.e, got, uint128{tc.hi, tc.lo})
		}
	}
	for e := pow10Min; e <= pow10Max; e++ {
		m := pow10[e-pow10Min]
		if m.hi>>63 != 1 || m.hi == math.MaxUint64 && m.lo == math.MaxUint64 {
			t.Errorf("pow10[1e%d] = %#x: not normalised, or +1 would overflow", e, m)
		}
		// floor(log2(10^e)) from the exact power.
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen() // 10^-e is not a power of two
		}
		if got := floorLog2Pow10(e); got != want {
			t.Errorf("floorLog2Pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// TestAppendFloatSweep: every binary exponent with the mantissas at
// its edges, every power of ten and five times it, and the named
// extremes format as the reference does.
func TestAppendFloatSweep(t *testing.T) {
	for exp := uint64(0); exp <= 2046; exp++ {
		for _, mant := range []uint64{0, 1, 2, 3, 1 << 51, 1<<52 - 1} {
			for _, sign := range []uint64{0, 1} {
				checkFloat(t, math.Float64frombits(sign<<63|exp<<52|mant))
			}
		}
	}
	for k := -324; k <= 308; k++ {
		for _, m := range []string{"1", "5"} {
			f, err := strconv.ParseFloat(m+"e"+strconv.Itoa(k), 64)
			if err != nil {
				continue // 5e308 overflows
			}
			checkFloat(t, f)
			checkFloat(t, -f)
		}
	}
	for _, f := range []float64{
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), math.MaxFloat64,
		math.Copysign(0, -1), 0, 1e21, 1e-6, math.Nextafter(1e21, 0), math.Nextafter(1e-6, 0),
		0.1, 0.3, 2.0 / 3, 123456.789, 1e23, 9.007199254740993e15,
	} {
		checkFloat(t, f)
	}
	for d := -4.0; d <= 4; d++ {
		for _, p := range []float64{1 << 53, 1 << 54, 1 << 62} {
			checkFloat(t, p+d)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200_000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, f)
		if g := math.Round(f*1e3) / 1e3; !math.IsInf(g, 0) {
			checkFloat(t, g)
		}
	}
}

// TestParseNumberSweep: every decimal exponent the table covers, with
// mantissas short enough for the exact path, as long as 19 digits and
// one digit past that fallback, and the classic halfway strings.
func TestParseNumberSweep(t *testing.T) {
	for _, m := range []string{"1", "7", "4503599627370497", "9007199254740993", "12345678901234567",
		"1844674407370955161", "9999999999999999999", "18446744073709551617"} {
		for e := pow10Min - 1; e <= pow10Max+1; e++ {
			s := m + "e" + strconv.Itoa(e)
			checkNumberString(t, s)
			checkNumberString(t, "-"+s)
			if len(m) > 1 {
				checkNumberString(t, m[:1]+"."+m[1:]+"E"+strconv.Itoa(e))
			}
		}
	}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e5", "0e99999999999999", "1", "-1", "0.1", "1E+2", "1e-2", "123.456e-7",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "5e-324", "1e-400", "-1e-400",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "1e400", "-1e400",
		"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124",
		"7.2057594037927933e16", "8.98846567431158e307", "1e23", "8.589973e9", "0.000000000000000000000000000000000000001",
		"123456789012345678901234567890", "0.1234567890123456789", "1234567890123456789", "12345678901234567890",
		"1e0000000000000000000000001", "1e-0000000000000000000000001", "0.0000000000000000000000000000001e31",
		"0.00000000000000000000000000000000", "-0.000000000000000000000000000000000e-5", "100000000000000000000",
		"0.00000000000000000000123456789012345678", "0.000000000000000000001234567890123456789",
		// Exponents that take the fraction's length to cancel.
		"0." + strings.Repeat("0", 99999) + "1e100050", "0." + strings.Repeat("0", 99999) + "1e99995",
		"1" + strings.Repeat("0", 100049) + "e-100050", "0." + strings.Repeat("0", 400) + "1234e401",
		"1e-100000", "-0e-100000", "1e100000", "1e99999", "1e-99999",
		// Not numbers, or only a leading part of the bytes is one.
		"", "-", "+1", ".5", "1.", "1.e5", "01", "-01", "00", "1e", "1e+", "1E-", "0x10", "Inf", "-Infinity", "NaN",
		"1_0", "1.5x", "1e5.5", "--1", "- 1", "1 ",
	} {
		checkNumberString(t, s)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200_000; i++ {
		digits := []byte(strconv.FormatUint(rng.Uint64(), 10))
		digits = digits[:1+rng.Intn(len(digits))]
		s := string(digits)
		if p := rng.Intn(len(s) + 1); p < len(s) {
			s = s[:p] + "." + s[p:]
			if p == 0 {
				s = "0" + s
			}
		}
		checkNumberString(t, s+"e"+strconv.Itoa(rng.Intn(700)-350))
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e21, 1e-7, 5e-324, math.MaxFloat64, 1e23, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if _, err := json.Marshal(x); err == nil {
				t.Fatalf("encoding/json encoded %v", x)
			}
			return
		}
		checkFloat(t, x)
	})
}

func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{"0", "-0", "1E+2", "12.5e-3", "9007199254740993", "2.2250738585072011e-308",
		"123456789012345678901", "1e400", "-1e400", "01", "1.", ".5", "-", "0x1p3", "1_000", "Inf"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i := 0; i <= len(b) && i < 4; i++ {
			checkNumber(t, b, i)
		}
	})
}

// iotFloats returns the FLOAT readings of n IoT rows.
func iotFloats(n int) []float64 {
	g := workload.NewIoT(100, 31)
	var out []float64
	for len(out) < n {
		for _, v := range g.Next() {
			if v.Kind() == tuple.KindFloat {
				out = append(out, v.AsFloat())
			}
		}
	}
	return out[:n]
}

var sinkBytes []byte

func BenchmarkAppendFloat(b *testing.B) {
	vals := iotFloats(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = AppendFloat(sinkBytes[:0], vals[i%len(vals)])
	}
}

var sinkFloat float64

func BenchmarkParseNumber(b *testing.B) {
	var lines [][]byte
	for _, f := range iotFloats(1024) {
		lines = append(lines, AppendFloat(nil, f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, ok := ParseNumber(lines[i%len(lines)], 0)
		if !ok {
			b.Fatalf("ParseNumber(%q) declined", lines[i%len(lines)])
		}
		sinkFloat = f
	}
}

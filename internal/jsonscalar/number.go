package jsonscalar

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The decimal exponents pow10 covers: every one Schubfach needs for a
// float64 (10^-292 … 10^324) and the range in which Eisel–Lemire can
// answer at all.
const (
	pow10Min = -348
	pow10Max = 347
)

// uint128 is hi·2^64 + lo.
type uint128 struct{ hi, lo uint64 }

// pow10[e-pow10Min] is the 128-bit mantissa of 10^e, normalised so its
// top bit is set and rounded down:
// 10^e ≈ (hi·2^64 + lo) · 2^(floorLog2Pow10(e)-127). Exact for
// 0 <= e <= 55, where 5^e fits in 128 bits.
var pow10 = pow10Table()

func pow10Table() (tab [pow10Max - pow10Min + 1]uint128) {
	mantissa := func(m *big.Int) uint128 {
		return uint128{new(big.Int).Rsh(m, 64).Uint64(), m.Uint64()}
	}
	p := big.NewInt(1) // 5^k
	m := new(big.Int)
	for k := 0; k <= -pow10Min; k++ {
		if k <= pow10Max {
			// 10^k = 5^k·2^k: 5^k's top 128 bits.
			if n := p.BitLen(); n <= 128 {
				m.Lsh(p, uint(128-n))
			} else {
				m.Rsh(p, uint(n-128))
			}
			tab[k-pow10Min] = mantissa(m)
		}
		if k > 0 {
			// 10^-k = 2^-k/5^k: 2^n/5^k lies in [2^127, 2^128) when 5^k
			// has n-127 bits (no power of five is a power of two).
			m.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			tab[-k-pow10Min] = mantissa(m.Quo(m, p))
		}
		p.Mul(p, big.NewInt(5))
	}
	return tab
}

// floorLog2Pow10 returns floor(log2(10^e)) for |e| <= 1500.
func floorLog2Pow10(e int) int { return e * 217706 >> 16 }

// AppendFloat formats a finite float the way encoding/json (and ES6)
// does: shortest round-trip digits, exponent form below 1e-6 and from
// 1e21, the exponent without leading zeros ("1e-7", "1e+21"). NaN and
// the infinities have no JSON encoding; callers refuse them first.
func AppendFloat(buf []byte, f float64) []byte {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		buf = append(buf, '-')
		b &^= 1 << 63
	}
	if b == 0 {
		return append(buf, '0')
	}
	d, e := shortest(b)

	// d's digits, two at a time from the last, then its trailing zeros
	// dropped.
	var digs [20]byte
	i := len(digs)
	for ; d >= 100; d /= 100 {
		i -= 2
		r := d % 100
		digs[i], digs[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if d >= 10 {
		i -= 2
		digs[i], digs[i+1] = digitPairs[2*d], digitPairs[2*d+1]
	} else {
		i--
		digs[i] = byte('0' + d)
	}
	end := len(digs)
	for digs[end-1] == '0' {
		end--
		e++
	}
	n := end - i
	point := n + e // digits before the decimal point

	switch {
	case point < -5 || point > 21: // below 1e-6 or from 1e21
		buf = append(buf, digs[i])
		if n > 1 {
			buf = append(buf, '.')
			buf = append(buf, digs[i+1:end]...)
		}
		x := point - 1
		if x < 0 {
			buf = append(buf, 'e', '-')
			x = -x
		} else {
			buf = append(buf, 'e', '+')
		}
		if x >= 100 {
			buf = append(buf, byte('0'+x/100))
		}
		if x >= 10 {
			buf = append(buf, byte('0'+x/10%10))
		}
		return append(buf, byte('0'+x%10))
	case point <= 0:
		buf = append(buf, '0', '.')
		for ; point < 0; point++ {
			buf = append(buf, '0')
		}
		return append(buf, digs[i:end]...)
	case point < n:
		buf = append(buf, digs[i:i+point]...)
		buf = append(buf, '.')
		return append(buf, digs[i+point:end]...)
	default:
		buf = append(buf, digs[i:end]...)
		for ; n < point; n++ {
			buf = append(buf, '0')
		}
		return buf
	}
}

const digitPairs = "00010203040506070809101112131415161718192021222324" +
	"25262728293031323334353637383940414243444546474849" +
	"50515253545556575859606162636465666768697071727374" +
	"75767778798081828384858687888990919293949596979899"

// shortest returns the decimal d·10^e with the fewest digits that reads
// back as the positive finite float64 with bits b; among as short ones
// the nearest to the float, and on a tie the one with an even d. d may
// end in zeros. This is Schubfach (Giulietti, "The Schubfach way to
// render doubles", 2020): the rounding interval's ends and the float are
// scaled by g ≈ 10^-k, which makes exactly one or two candidate digit
// strings possible, at 10^(k+1) and 10^k.
func shortest(b uint64) (d uint64, e int) {
	frac, exp := b&(1<<52-1), int(b>>52)
	c, q := frac, -1074 // b is c·2^q
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if -52 <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
			return c >> uint(-q), 0 // an integer below 2^53 is its own shortest form
		}
	}

	// The interval of reals that round to b, times 4·2^-q: (cbl, cbr)
	// around cb = 4c, its ends included when c is even. Where the float
	// below is half as far as the one above, the interval is lopsided.
	cbl := 4*c - 2
	var k int // floor(log10) of the interval's width
	if frac == 0 && exp > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // floor(log10(3/4·2^q))
	} else {
		k = q * 1262611 >> 22 // floor(log10(2^q))
	}
	h := q + floorLog2Pow10(-k) + 1 // 1…4

	// g = floor(10^-k·2^r) + 1 over-approximates 10^-k by less than one
	// unit in its last place, which is close enough for round-to-odd
	// products to order the candidates exactly.
	g := pow10[-k-pow10Min]
	if g.lo++; g.lo == 0 {
		g.hi++
	}
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	odd := c & 1
	lower, upper := vbl+odd, vbr-odd

	// One digit fewer: at most one multiple of 10^(k+1) fits.
	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upIn := lower <= 40*sp
		wpIn := 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	// s·10^k and (s+1)·10^k bracket the float: the one inside, or the
	// nearer one when both are.
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns g·cp/2^128 rounded down, with its last bit set if
// that dropped a fraction. g's excess leaves less than 2^-63 on a product
// that is exactly an integer, so a fraction that small counts as none.
func roundToOdd(g uint128, cp uint64) uint64 {
	x1, _ := bits.Mul64(g.lo, cp)
	y1, y0 := bits.Mul64(g.hi, cp)
	y0, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}

// ParseNumber reads the JSON number starting at b[i]. It returns the
// float64 strconv.ParseFloat makes of it, bit for bit, and the index
// just past it. ok is false, and end meaningless, when the bytes there
// are not a JSON number (strconv accepts more: hex, "Inf", a bare
// leading or trailing dot, underscores) or when the number overflows
// float64. A leading run of the bytes may be a number: "01" reads as 0
// with end at the '1'.
//
// Grammar check and digit collection are one pass. Up to 19 significant
// digits m and a decimal exponent e make m·10^e, which is converted
// exactly by one float operation when m < 2^53 and |e| <= 22, and by
// Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", 2021)
// otherwise. strconv.ParseFloat reads the number only when it has more
// than 19 significant digits or an exponent of 100000 or more, or
// when Eisel–Lemire declines it: a product too close to a halfway
// point, a subnormal, an overflow, or e outside pow10's range.
func ParseNumber(b []byte, i int) (f float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// All digits go into m, which wraps past 19 of them; nd counts them.
	var m uint64
	first := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
	default:
		return 0, i, false
	}
	nd, e := i-first, 0 // m·10^e is the number so far
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, i, false
		}
		nd += i - frac
		e = frac - i
	}
	x := 0 // the explicit exponent's magnitude, up to where it stops counting
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if x < 1e5 { // keep x from overflowing; strconv reads such numbers
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, i, false
		}
		if eneg {
			e -= x
		} else {
			e += x
		}
	}

	if nd > 19 {
		// Zeros before the first other digit ("0.000123") are not
		// significant.
		for j := first; j < i && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				nd--
			}
		}
	}
	switch {
	case nd > 19 || x >= 1e5:
	case m == 0:
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	case m < 1<<53 && -22 <= e && e <= 22:
		f = float64(m)
		if e >= 0 {
			f *= exactPow10[e]
		} else {
			f /= exactPow10[-e]
		}
		if neg {
			f = -f
		}
		return f, i, true
	default:
		if f, ok := eiselLemire(m, e, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns the float64 nearest m·10^e for m != 0, or ok
// false when one 128-bit product cannot decide it (Lemire 2021; the
// steps follow Nigel Tao's description, as strconv's own copy does).
// It declines subnormal and overflowing results too.
func eiselLemire(m uint64, e int, neg bool) (f float64, ok bool) {
	if e < pow10Min || pow10Max < e {
		return 0, false
	}
	// Normalise m to its top bit; the result's biased exponent follows.
	clz := bits.LeadingZeros64(m)
	m <<= uint(clz)
	exp2 := uint64(floorLog2Pow10(e)+64+1023) - uint64(clz)

	p := pow10[e-pow10Min]
	xHi, xLo := bits.Mul64(m, p.hi)
	// The low 9 bits of xHi all set: the rounding may hang on the bits a
	// 64-bit power drops, so take the next 64 too.
	if xHi&0x1FF == 0x1FF && xLo+m < m {
		yHi, yLo := bits.Mul64(m, p.lo)
		hi, lo := xHi, xLo+yHi
		if lo < xLo {
			hi++
		}
		if hi&0x1FF == 0x1FF && lo+1 == 0 && yLo+m < m {
			return 0, false
		}
		xHi, xLo = hi, lo
	}

	// The top 54 bits, then round half to even to 53.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly halfway, as far as the product can tell
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal (exp2 <= 0, wrapped) or infinite
		return 0, false
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}

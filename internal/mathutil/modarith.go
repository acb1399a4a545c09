// Package mathutil provides the 64-bit modular arithmetic primitives that
// underpin the RNS-CKKS implementation: Barrett and Shoup modular
// multiplication, modular exponentiation and inversion, Miller–Rabin
// primality testing, generation of NTT-friendly primes, primitive roots of
// unity, and bit-reversal permutations.
//
// All moduli handled by this package are odd primes strictly below 2^62 so
// that lazy-reduction tricks (values kept below 2q) never overflow uint64.
package mathutil

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest bit-length of a modulus supported by the
// arithmetic in this package. Keeping moduli below 2^62 leaves headroom for
// lazy reductions in the NTT (values in [0, 4q)).
const MaxModulusBits = 61

// AddMod returns (a + b) mod q. It requires a, b < q.
func AddMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// SubMod returns (a - b) mod q. It requires a, b < q.
func SubMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}

// NegMod returns (-a) mod q. It requires a < q.
func NegMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// MulMod returns (a * b) mod q using a 128-bit intermediate product.
// It makes no assumptions about a and b beyond both being < 2^64.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// Barrett holds the precomputed constants for Barrett reduction modulo a
// fixed q. The zero value is not usable; construct with NewBarrett.
type Barrett struct {
	Q  uint64 // the modulus
	hi uint64 // high 64 bits of floor(2^128 / q)
	lo uint64 // low 64 bits of floor(2^128 / q)
}

// NewBarrett precomputes the Barrett constant floor(2^128/q) for modulus q.
// It panics if q is zero or exceeds MaxModulusBits bits, which indicates a
// programming error rather than a runtime condition.
func NewBarrett(q uint64) Barrett {
	if q == 0 || bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("mathutil: modulus %d out of supported range", q))
	}
	// floor(2^128 / q): divide (2^128 - 1) by q; since q does not divide
	// 2^128 exactly for q > 1 and not a power of two, the floor of
	// (2^128-1)/q equals floor(2^128/q) for all odd q > 1.
	hi, r := bits.Div64(1, 0, q) // floor(2^64 / q), remainder r
	lo, _ := bits.Div64(r, 0, q)
	return Barrett{Q: q, hi: hi, lo: lo}
}

// Reduce returns x mod q for any 64-bit x.
func (b Barrett) Reduce(x uint64) uint64 {
	if x < b.Q {
		return x
	}
	return b.Reduce128(0, x)
}

// MulMod returns (x*y) mod q via the precomputed Barrett constant.
// x and y may be any values < 2^64.
func (b Barrett) MulMod(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return b.Reduce128(hi, lo)
}

// Reduce128 reduces the 128-bit value hi·2^64 + lo modulo q.
func (b Barrett) Reduce128(hi, lo uint64) uint64 {
	// Estimate quotient qhat = floor(x / q) using the precomputed
	// m = floor(2^128/q) split into (b.hi, b.lo):
	//   qhat ≈ floor( (x * m) / 2^128 )
	// x = hi*2^64 + lo, m = mh*2^64 + ml. The product x*m spans 256 bits;
	// we need bits [128, 256).
	mh, ml := b.hi, b.lo

	// lo * ml: contributes carries only
	c1h, _ := bits.Mul64(lo, ml)
	// lo * mh: contributes bits [64, 192)
	c2h, c2l := bits.Mul64(lo, mh)
	// hi * ml: contributes bits [64, 192)
	c3h, c3l := bits.Mul64(hi, ml)
	// hi * mh: contributes bits [128, 256)
	c4h, c4l := bits.Mul64(hi, mh)

	// Sum the [64,128) column to extract its carry into [128,192).
	mid, carry1 := bits.Add64(c2l, c3l, 0)
	mid, carry2 := bits.Add64(mid, c1h, 0)
	_ = mid

	// Sum the [128,192) column.
	q128, carryA := bits.Add64(c2h, c3h, 0)
	q128, carryB := bits.Add64(q128, c4l, 0)
	q128, carryC := bits.Add64(q128, carry1+carry2, 0)

	qTop := c4h + carryA + carryB + carryC // bits [192, 256)

	// qhat = qTop*2^64 + q128; the true quotient fits in 64 bits when the
	// input is < q*2^64, but reduce defensively using 128-bit arithmetic.
	// r = x - qhat*q (mod 2^128), then correct.
	ph, pl := bits.Mul64(q128, b.Q)
	ph += qTop * b.Q // wraps; only low 128 bits of the product matter
	rlo, borrow := bits.Sub64(lo, pl, 0)
	rhi, _ := bits.Sub64(hi, ph, borrow)

	// The estimate is off by at most 2, so at most two corrections.
	for rhi != 0 || rlo >= b.Q {
		rlo, borrow = bits.Sub64(rlo, b.Q, 0)
		rhi -= borrow
	}
	return rlo
}

// ShoupPrecomp returns the Shoup precomputation floor(w * 2^64 / q) for a
// fixed multiplicand w < q. Pair it with MulModShoup for a fast modular
// multiplication by the constant w.
func ShoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulModShoup returns (x * w) mod q where wShoup = ShoupPrecomp(w, q).
// It requires x < q (w is already < q by construction). This is the
// workhorse multiplication inside the NTT where one operand (the twiddle
// factor) is fixed.
func MulModShoup(x, w, wShoup, q uint64) uint64 {
	qhat, _ := bits.Mul64(x, wShoup)
	r := x*w - qhat*q
	if r >= q {
		r -= q
	}
	return r
}

// PowMod returns a^e mod q using square-and-multiply.
func PowMod(a, e, q uint64) uint64 {
	br := NewBarrett(q)
	result := uint64(1)
	base := br.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = br.MulMod(result, base)
		}
		base = br.MulMod(base, base)
		e >>= 1
	}
	return result
}

// InvMod returns the multiplicative inverse of a modulo prime q.
// It panics if a ≡ 0 (mod q), which has no inverse.
func InvMod(a, q uint64) uint64 {
	if a%q == 0 {
		panic("mathutil: zero has no modular inverse")
	}
	// Fermat: a^(q-2) mod q for prime q.
	return PowMod(a, q-2, q)
}

// BitReverse returns the bit-reversal of x in logN bits.
func BitReverse(x uint64, logN int) uint64 {
	return bits.Reverse64(x) >> (64 - logN)
}

// BitReversePermute permutes the slice in place by the bit-reversal of the
// indices. len(v) must be a power of two.
func BitReversePermute(v []uint64) {
	n := len(v)
	if n&(n-1) != 0 {
		panic("mathutil: BitReversePermute requires power-of-two length")
	}
	logN := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(BitReverse(uint64(i), logN))
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// ReduceFloat returns the residue of the (possibly huge, possibly negative)
// real integer v modulo q. v is split into 32-bit chunks so magnitudes far
// beyond 2^64 — e.g. doubled CKKS scales Δ² ≈ 2^90 — reduce exactly, up to
// the 53-bit float64 mantissa of v itself.
func ReduceFloat(v float64, q uint64) uint64 {
	neg := v < 0
	if neg {
		v = -v
	}
	br := NewBarrett(q)
	base := br.Reduce(1 << 32)
	var res uint64
	// Horner over base-2^32 chunks, most significant first.
	var chunks []uint64
	for v >= 1 {
		chunks = append(chunks, uint64(mod232(v)))
		v = floorDiv232(v)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		res = br.MulMod(res, base)
		res = AddMod(res, br.Reduce(chunks[i]), q)
	}
	if neg {
		res = NegMod(res, q)
	}
	return res
}

func mod232(v float64) float64 {
	return v - floorDiv232(v)*4294967296.0
}

func floorDiv232(v float64) float64 {
	f := v / 4294967296.0
	return float64(uint64(f))
}

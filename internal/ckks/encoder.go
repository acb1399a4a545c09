package ckks

import (
	"math"
	"math/big"
	"math/cmplx"

	"repro/internal/ring"
)

// Encoder maps complex vectors to ring plaintexts and back through the
// canonical embedding: slot j of a plaintext is the evaluation of the
// polynomial at the primitive 2N-th root of unity ζ^{5^j}. The forward
// and inverse maps are computed with the HEAAN "special FFT", the
// complex analogue of the negacyclic NTT.
type Encoder struct {
	params   *Parameters
	m        int          // 2N
	rotGroup []int        // 5^i mod 2N
	ksiPows  []complex128 // e^{2πi·k/m}
}

// NewEncoder builds an encoder for the given parameters.
func NewEncoder(params *Parameters) *Encoder {
	n := params.Slots()
	m := 2 * params.N()
	e := &Encoder{
		params:   params,
		m:        m,
		rotGroup: make([]int, n),
		ksiPows:  make([]complex128, m+1),
	}
	five := 1
	for i := 0; i < n; i++ {
		e.rotGroup[i] = five
		five = five * 5 % m
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksiPows[k] = cmplx.Exp(complex(0, angle))
	}
	return e
}

func bitReverseComplex(v []complex128) {
	n := len(v)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// specialFFT evaluates the polynomial-coefficient pairs in vals at the
// canonical roots: the decode direction.
func (e *Encoder) specialFFT(vals []complex128) {
	n := len(vals)
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * (e.m / lenq)
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// specialIFFT is the encode direction: it maps slot values to the complex
// coefficient representation.
func (e *Encoder) specialIFFT(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - e.rotGroup[j]%lenq) * (e.m / lenq)
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Plaintext is an encoded message: a ring polynomial in NTT form together
// with its scaling factor and level.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
	Level int
}

// coeffsFromValues runs the encode-direction FFT and returns the N signed
// integer coefficients (as float64s) of the plaintext polynomial at the
// given scale.
func (e *Encoder) coeffsFromValues(values []complex128, scale float64) []float64 {
	n := e.params.Slots()
	if len(values) > n {
		panic("ckks: more values than slots")
	}
	buf := make([]complex128, n)
	copy(buf, values)
	e.specialIFFT(buf)
	coeffs := make([]float64, 2*n)
	for j := 0; j < n; j++ {
		coeffs[j] = math.Round(real(buf[j]) * scale)
		coeffs[j+n] = math.Round(imag(buf[j]) * scale)
	}
	return coeffs
}

// EncodeAtLevel encodes up to n complex values into a plaintext at the
// given level and scale. Shorter inputs are zero-padded.
func (e *Encoder) EncodeAtLevel(values []complex128, scale float64, level int) *Plaintext {
	value := e.encodeLimbs(e.params.RingQ().AtLevel(level), e.coeffsFromValues(values, scale))
	return &Plaintext{Value: value, Scale: scale, Level: level}
}

// encodeLimbs writes the signed integer coefficients into a new
// polynomial over r and returns it in NTT form.
func (e *Encoder) encodeLimbs(r *ring.Ring, coeffs []float64) *ring.Poly {
	p := r.NewPoly()
	for j, c := range coeffs {
		e.setSigned(r, p, j, c)
	}
	p.IsNTT = false
	r.NTTPoly(p)
	return p
}

// Encode encodes at the top level with the default scale Δ.
func (e *Encoder) Encode(values []complex128) *Plaintext {
	return e.EncodeAtLevel(values, e.params.Scale(), e.params.MaxLevel())
}

// setSigned writes the signed float64 integer v (|v| < 2^62) into
// coefficient j of every limb.
func (e *Encoder) setSigned(rQ *ring.Ring, p *ring.Poly, j int, v float64) {
	neg := v < 0
	// Large plaintext magnitudes (e.g. Δ² intermediates) exceed int64;
	// split into 32-bit halves so the per-limb reduction stays exact.
	abs := math.Abs(v)
	hi := uint64(abs / 4294967296.0)
	lo := uint64(math.Mod(abs, 4294967296.0))
	for i, s := range rQ.SubRings {
		val := s.Barrett.Reduce(hi)
		val = s.Barrett.MulMod(val, 4294967296%s.Q)
		val = (val + s.Barrett.Reduce(lo)) % s.Q
		if neg && val != 0 {
			val = s.Q - val
		}
		p.Coeffs[i][j] = val
	}
}

// Decode maps a plaintext back into n complex slot values, reconstructing
// each coefficient through the CRT so plaintexts whose coefficients exceed
// a single limb decode correctly.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	n := e.params.Slots()
	rQ := e.params.RingQ().AtLevel(pt.Level)
	poly := pt.Value.CopyNew()
	if poly.IsNTT {
		rQ.INTTPoly(poly)
	}
	coeffs := e.signedCoeffs(rQ, poly)
	vals := make([]complex128, n)
	inv := 1 / pt.Scale
	for j := 0; j < n; j++ {
		vals[j] = complex(coeffs[j]*inv, coeffs[j+n]*inv)
	}
	e.specialFFT(vals)
	return vals
}

// signedCoeffs reconstructs the centered (signed) coefficients of a
// coefficient-form polynomial as float64s.
func (e *Encoder) signedCoeffs(rQ *ring.Ring, poly *ring.Poly) []float64 {
	n2 := e.params.N()
	out := make([]float64, n2)
	if poly.Level() == 0 || len(rQ.Moduli) == 1 {
		q := rQ.Moduli[0]
		half := q >> 1
		for j := 0; j < n2; j++ {
			v := poly.Coeffs[0][j]
			if v > half {
				out[j] = -float64(q - v)
			} else {
				out[j] = float64(v)
			}
		}
		return out
	}
	big1 := rQ.ToBigCoeffs(poly)
	bigQ := big.NewInt(1)
	for _, q := range rQ.Moduli {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(q))
	}
	half := new(big.Int).Rsh(bigQ, 1)
	for j := 0; j < n2; j++ {
		v := big1[j]
		if v.Cmp(half) > 0 {
			v.Sub(v, bigQ)
		}
		f, _ := new(big.Float).SetInt(v).Float64()
		out[j] = f
	}
	return out
}

// FFTStageCount returns the number of radix-2 butterfly stages in the
// special FFT (= log2 of the slot count). Bootstrapping's CoeffToSlot and
// SlotToCoeff group these stages into fftIter homomorphic matrix products.
func (e *Encoder) FFTStageCount() int {
	n := e.params.Slots()
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// ApplyFFTStages applies butterfly stages [from, to) of the special FFT to
// vals in place, in the decode (inverse = false) or encode
// (inverse = true) direction. The bit-reversal permutation and the 1/n
// normalization are deliberately NOT applied: bootstrapping elides the
// permutation (it commutes with the slot-wise EvalMod) and folds 1/n into
// one group's matrix. Stage indices follow application order: stage 0 is
// the first butterfly pass the full transform would run.
func (e *Encoder) ApplyFFTStages(vals []complex128, from, to int, inverse bool) {
	n := len(vals)
	if n != e.params.Slots() {
		panic("ckks: ApplyFFTStages needs a full slot vector")
	}
	if inverse {
		// Encode direction: lengths n, n/2, …, 2 (stage s has length n>>s).
		for s := from; s < to; s++ {
			length := n >> s
			lenh := length >> 1
			lenq := length << 2
			for i := 0; i < n; i += length {
				for j := 0; j < lenh; j++ {
					idx := (lenq - e.rotGroup[j]%lenq) * (e.m / lenq)
					u := vals[i+j] + vals[i+j+lenh]
					v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
					vals[i+j] = u
					vals[i+j+lenh] = v
				}
			}
		}
		return
	}
	// Decode direction: lengths 2, 4, …, n (stage s has length 2<<s).
	for s := from; s < to; s++ {
		length := 2 << s
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * (e.m / lenq)
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

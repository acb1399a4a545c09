// Package ckks is a from-scratch implementation of the RNS-CKKS
// approximate homomorphic encryption scheme: canonical-embedding encoding,
// key generation with the Han–Ki hybrid (dnum-digit) key-switching keys,
// encryption, and the full evaluator surface of the paper's Table 2 —
// PtAdd, Add, PtMult, Mult, Rotate, Conjugate — together with Rescale,
// KeySwitch, hoisted rotations, and BSGS plaintext matrix–vector products.
//
// The package exists for two reasons: it is the substrate the paper's
// memory analysis is grounded in, and it lets the repository verify
// functionally that the MAD algorithmic optimizations (ModDown merge,
// ModDown hoisting, key compression) compute the same results as the
// textbook operation sequences they replace.
package ckks

import (
	"fmt"
	"math"

	"repro/internal/mathutil"
	"repro/internal/ring"
	"repro/internal/rns"
)

// ParametersLiteral is the user-facing description of a CKKS parameter
// set. LogQ lists the bit sizes of the ciphertext modulus chain
// (q_0 first), LogP the bit sizes of the special primes used to raise the
// basis during key switching (α = len(LogP)).
type ParametersLiteral struct {
	LogN     int   // ring degree N = 2^LogN
	LogQ     []int // bit sizes of q_0 … q_L
	LogP     []int // bit sizes of p_0 … p_{α-1}
	LogScale int   // log2 of the plaintext scaling factor Δ
}

// Parameters holds a fully instantiated CKKS parameter set with its
// modulus chains and conversion tables.
type Parameters struct {
	logN     int
	logScale int
	scale    float64

	ringQ *ring.Ring
	ringP *ring.Ring
	conv  *rns.Converter
}

// NewParameters instantiates a parameter literal, generating NTT-friendly
// primes of the requested sizes.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN %d outside [4,17]", lit.LogN)
	}
	if len(lit.LogQ) == 0 || len(lit.LogP) == 0 {
		return nil, fmt.Errorf("ckks: need at least one q and one p modulus")
	}
	// The key-switch inner product sums one product per digit in a 128-bit
	// accumulator (ring.SubRing.DotPairVec), which caps the digit count.
	if dnum := (len(lit.LogQ) + len(lit.LogP) - 1) / len(lit.LogP); dnum > ring.MaxDotTerms {
		return nil, fmt.Errorf("ckks: %d key-switching digits (got=%d Q / %d P limbs, want at most %d digits)",
			dnum, len(lit.LogQ), len(lit.LogP), ring.MaxDotTerms)
	}
	// Group the requested bit sizes so equal sizes share one downward scan.
	sizes := map[int]int{}
	for _, b := range append(append([]int{}, lit.LogQ...), lit.LogP...) {
		sizes[b]++
	}
	pool := map[int][]uint64{}
	for b, cnt := range sizes {
		ps, err := mathutil.GenerateNTTPrimesNear(b, lit.LogN, cnt)
		if err != nil {
			return nil, err
		}
		pool[b] = ps
	}
	take := func(b int) uint64 {
		p := pool[b][0]
		pool[b] = pool[b][1:]
		return p
	}
	qs := make([]uint64, len(lit.LogQ))
	for i, b := range lit.LogQ {
		qs[i] = take(b)
	}
	ps := make([]uint64, len(lit.LogP))
	for i, b := range lit.LogP {
		ps[i] = take(b)
	}

	ringQ, err := ring.NewRing(1<<lit.LogN, qs)
	if err != nil {
		return nil, err
	}
	ringP, err := ring.NewRing(1<<lit.LogN, ps)
	if err != nil {
		return nil, err
	}
	return &Parameters{
		logN:     lit.LogN,
		logScale: lit.LogScale,
		scale:    math.Exp2(float64(lit.LogScale)),
		ringQ:    ringQ,
		ringP:    ringP,
		conv:     rns.NewConverter(ringQ, ringP),
	}, nil
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << p.logN }

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// Slots returns the number of plaintext slots n = N/2.
func (p *Parameters) Slots() int { return 1 << (p.logN - 1) }

// MaxLevel returns the highest ciphertext level L.
func (p *Parameters) MaxLevel() int { return p.ringQ.MaxLevel() }

// Alpha returns the number of special primes (limbs per key-switch digit).
func (p *Parameters) Alpha() int { return len(p.ringP.Moduli) }

// Beta returns the number of key-switching digits at the given level:
// β = ⌈(ℓ+1)/α⌉ (Table 1).
func (p *Parameters) Beta(level int) int {
	return (level + p.Alpha()) / p.Alpha() // = ceil((level+1)/alpha)
}

// Dnum returns the number of digits in a switching key, i.e. β at the top
// level.
func (p *Parameters) Dnum() int { return p.Beta(p.MaxLevel()) }

// Scale returns the default plaintext scaling factor Δ.
func (p *Parameters) Scale() float64 { return p.scale }

// RingQ returns the ciphertext-modulus ring (all L+1 limbs).
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the special-modulus ring.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// Converter returns the RNS basis converter shared by all evaluators.
func (p *Parameters) Converter() *rns.Converter { return p.conv }

// Q returns the moduli of the ciphertext chain.
func (p *Parameters) Q() []uint64 { return p.ringQ.Moduli }

// P returns the special moduli.
func (p *Parameters) P() []uint64 { return p.ringP.Moduli }

// QAtLevel returns the product of moduli q_0…q_level as a float64 (used
// only for scale bookkeeping, where float precision suffices).
func (p *Parameters) QAtLevel(level int) float64 {
	prod := 1.0
	for _, q := range p.ringQ.Moduli[:level+1] {
		prod *= float64(q)
	}
	return prod
}

package bootstrap

import (
	"fmt"
	"math/cmplx"
	"sort"

	"repro/internal/ckks"
)

// dftGroup is one homomorphic stage of CoeffToSlot or SlotToCoeff: a
// plaintext matrix–vector product (the paper's PtMatVecMult) costing one
// level, with its diagonals encoded over Q∪P for the ModDown-hoisted
// schedule.
type dftGroup struct {
	lt *ckks.LinearTransform
}

// homomorphicDFT is a factorized DFT (or inverse DFT): fftIter groups of
// radix-2 butterfly stages, each evaluated as one PtMatVecMult. The
// bit-reversal permutation of the plain FFT is elided entirely — it
// commutes with the slot-wise EvalMod sitting between CoeffToSlot and
// SlotToCoeff, so the two factorizations cancel it between themselves.
type homomorphicDFT struct {
	groups []dftGroup
}

// buildDFT constructs the fftIter group transforms.
//   - inverse = true  → CoeffToSlot direction (encode-direction stages),
//   - inverse = false → SlotToCoeff direction (decode-direction stages).
//
// startLevel is the ciphertext level at which the first group is applied;
// each group consumes one level. fold is a real constant multiplied into
// the overall product, distributed evenly across the groups (this is how
// bootstrapping performs its divisions by 2n, K·q0/Δ, etc. for free).
func buildDFT(enc *ckks.Encoder, params *ckks.Parameters, fftIter, startLevel int, inverse bool, fold float64) *homomorphicDFT {
	n := params.Slots()
	stages := enc.FFTStageCount()
	if fftIter < 1 || fftIter > stages {
		panic(fmt.Sprintf("bootstrap: fftIter %d outside [1,%d]", fftIter, stages))
	}
	perGroupFold := cmplx.Pow(complex(fold, 0), complex(1/float64(fftIter), 0))

	// Distribute stages across groups as evenly as possible.
	bounds := make([]int, fftIter+1)
	for g := 0; g <= fftIter; g++ {
		bounds[g] = g * stages / fftIter
	}

	dft := &homomorphicDFT{}
	for g := 0; g < fftIter; g++ {
		from, to := bounds[g], bounds[g+1]
		diags := groupMatrixDiags(enc, n, from, to, inverse, perGroupFold)
		level := startLevel - g
		lt := ckks.NewLinearTransform(enc, diags, level, params.Scale(), 0, true)
		dft.groups = append(dft.groups, dftGroup{lt: lt})
	}
	return dft
}

// groupMatrixDiags numerically extracts the generalized diagonals of the
// linear map implemented by FFT stages [from, to), scaled by fold.
// Near-zero diagonals are dropped.
func groupMatrixDiags(enc *ckks.Encoder, n, from, to int, inverse bool, fold complex128) map[int][]complex128 {
	// cols[k] = map of unit vector e_k through the stages.
	cols := make([][]complex128, n)
	for k := 0; k < n; k++ {
		v := make([]complex128, n)
		v[k] = fold
		enc.ApplyFFTStages(v, from, to, inverse)
		cols[k] = v
	}
	diags := make(map[int][]complex128)
	for d := 0; d < n; d++ {
		vec := make([]complex128, n)
		maxAbs := 0.0
		for t := 0; t < n; t++ {
			vec[t] = cols[(t+d)%n][t]
			if a := cmplx.Abs(vec[t]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 1e-12 {
			diags[d] = vec
		}
	}
	return diags
}

// rotationSteps returns all rotation indices needed by the DFT's groups,
// in ascending order.
func (d *homomorphicDFT) rotationSteps() []int {
	seen := map[int]bool{}
	for _, g := range d.groups {
		for _, s := range g.lt.RotationSteps() {
			seen[s] = true
		}
	}
	steps := make([]int, 0, len(seen))
	for s := range seen {
		steps = append(steps, s)
	}
	// Keygen draws each key from one PRNG stream in step order; a sorted
	// list makes seeded keygen reproducible.
	sort.Ints(steps)
	return steps
}

// apply evaluates the groups in order, rescaling after each. Every group
// pays one Decomp+ModUp and one ModDown pair, however many diagonals it
// has (the MAD ModDown hoisting of §3.2).
func (d *homomorphicDFT) apply(ev *ckks.Evaluator, ct *ckks.Ciphertext) *ckks.Ciphertext {
	for _, g := range d.groups {
		if ct.Level > g.lt.Level {
			ct = ev.DropLevel(ct, g.lt.Level)
		}
		ct = ev.Rescale(ev.EvalLinearTransformHoistedModDown(ct, g.lt))
	}
	return ct
}

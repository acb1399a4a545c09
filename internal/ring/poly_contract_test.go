package ring

import (
	"runtime"
	"testing"

	"repro/internal/mathutil"
)

// TestOpsPreserveNTTFlag round-trips the representation flag through every
// limb-wise op: each must stamp the output with the input's representation,
// overwriting whatever the destination held before. Regression test for
// MulCoeffsThenAdd, which historically left out.IsNTT untouched.
func TestOpsPreserveNTTFlag(t *testing.T) {
	r := testRing(t, 16, 3)
	src := fixedSource()
	a, b := r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)

	ops := []struct {
		name string
		run  func(a, b, out *Poly)
	}{
		{"Add", func(a, b, out *Poly) { r.Add(a, b, out) }},
		{"Sub", func(a, b, out *Poly) { r.Sub(a, b, out) }},
		{"Neg", func(a, _, out *Poly) { r.Neg(a, out) }},
		{"MulCoeffs", func(a, b, out *Poly) { r.MulCoeffs(a, b, out) }},
		{"MulCoeffsThenAdd", func(a, b, out *Poly) { r.MulCoeffsThenAdd(a, b, out) }},
		{"MulScalar", func(a, _, out *Poly) { r.MulScalar(a, 7, out) }},
		{"AddScalar", func(a, _, out *Poly) { r.AddScalar(a, 7, out) }},
		{"Copy", func(a, _, out *Poly) { a.Copy(out) }},
	}
	for _, op := range ops {
		for _, ntt := range []bool{false, true} {
			a.IsNTT, b.IsNTT = ntt, ntt
			out := r.NewPoly()
			out.IsNTT = !ntt // stale flag the op must overwrite
			op.run(a, b, out)
			if out.IsNTT != ntt {
				t.Errorf("%s with IsNTT=%v produced output flagged %v", op.name, ntt, out.IsNTT)
			}
		}
	}
}

// TestAutomorphismAndNTTPathsStampFlag extends the flag contract to the
// ops the generic both-forms table above cannot express: the
// automorphisms each *require* one input form and must stamp that form
// on the output over any stale destination flag, and the (parallel)
// NTT/INTT drivers must flip the flag at every worker count — the
// parallel path stamps once in the driver, not per limb-worker, and a
// missing stamp there would poison every downstream form check.
func TestAutomorphismAndNTTPathsStampFlag(t *testing.T) {
	r := testRing(t, 16, 3)
	src := fixedSource()
	a := r.NewPoly()
	r.SampleUniform(src, a)
	k := r.GaloisElement(1)

	a.IsNTT = false
	out := r.NewPoly()
	out.IsNTT = true // stale flag the op must overwrite
	r.AutomorphismCoeffs(a, k, out)
	if out.IsNTT {
		t.Error("AutomorphismCoeffs output flagged NTT")
	}

	a.IsNTT = true
	out = r.NewPoly()
	out.IsNTT = false // stale
	r.AutomorphismNTT(a, k, out)
	if !out.IsNTT {
		t.Error("AutomorphismNTT output not flagged NTT")
	}

	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p := a.CopyNew()
		p.IsNTT = false
		r.NTTPolyParallel(p, w)
		if !p.IsNTT {
			t.Errorf("NTTPolyParallel(workers=%d) left IsNTT=false", w)
		}
		r.INTTPolyParallel(p, w)
		if p.IsNTT {
			t.Errorf("INTTPolyParallel(workers=%d) left IsNTT=true", w)
		}
	}
	p := a.CopyNew()
	p.IsNTT = false
	r.NTTPoly(p)
	if !p.IsNTT {
		t.Error("NTTPoly left IsNTT=false")
	}
	r.INTTPoly(p)
	if p.IsNTT {
		t.Error("INTTPoly left IsNTT=true")
	}
}

// TestMulCoeffsThenAddAccumulates pins the arithmetic contract alongside
// the flag fix: out += a⊙b, slot-wise, per limb.
func TestMulCoeffsThenAddAccumulates(t *testing.T) {
	r := testRing(t, 16, 2)
	src := fixedSource()
	a, b, out := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)
	r.SampleUniform(src, out)
	want := out.CopyNew()
	tmp := r.NewPoly()
	r.MulCoeffs(a, b, tmp)
	r.Add(want, tmp, want)

	r.MulCoeffsThenAdd(a, b, out)
	out.IsNTT = want.IsNTT // flags compared separately above
	if !out.Equal(want) {
		t.Error("MulCoeffsThenAdd disagrees with MulCoeffs + Add")
	}
}

// TestDotPairVecMatchesStrict pins the fused inner-product contract: one
// 128-bit accumulation and one reduction per coefficient must land on
// exactly the residues a per-product strictly reduced sum produces, for
// every term count up to MaxDotTerms at a 61-bit prime. The all-(q−1)
// inputs drive the accumulator to its largest value, 64·(q−1)² < 2^128.
func TestDotPairVecMatchesStrict(t *testing.T) {
	primes, err := mathutil.GenerateNTTPrimes(61, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(16, primes)
	if err != nil {
		t.Fatal(err)
	}
	s := r.SubRings[0]
	q := s.Q
	src := fixedSource()
	terms := func(beta int, fill func(p *Poly)) [][]uint64 {
		out := make([][]uint64, beta)
		for k := range out {
			p := r.NewPoly()
			fill(p)
			out[k] = p.Coeffs[0]
		}
		return out
	}
	random := func(p *Poly) { r.SampleUniform(src, p) }
	maximal := func(p *Poly) {
		for j := range p.Coeffs[0] {
			p.Coeffs[0][j] = q - 1
		}
	}
	for beta := 1; beta <= MaxDotTerms; beta++ {
		for _, in := range []struct {
			name string
			fill func(p *Poly)
		}{{"random", random}, {"all q-1", maximal}} {
			a0, a1, b := terms(beta, in.fill), terms(beta, in.fill), terms(beta, in.fill)
			want0, want1 := make([]uint64, r.N), make([]uint64, r.N)
			for k := 0; k < beta; k++ {
				s.MulThenAddVec(a0[k], b[k], want0)
				s.MulThenAddVec(a1[k], b[k], want1)
			}
			got0, got1 := make([]uint64, r.N), make([]uint64, r.N)
			s.DotPairVec(a0, a1, b, got0, got1)
			for j := range got0 {
				if got0[j] != want0[j] || got1[j] != want1[j] {
					t.Fatalf("β=%d %s coeff %d: got (%d, %d), want (%d, %d)",
						beta, in.name, j, got0[j], got1[j], want0[j], want1[j])
				}
			}
		}
	}
}

// TestDotPairVecRejectsTooManyTerms pins the overflow guard: a 65th term
// could carry the 128-bit accumulator out, so the kernel refuses it.
func TestDotPairVecRejectsTooManyTerms(t *testing.T) {
	r := testRing(t, 16, 1)
	terms := make([][]uint64, MaxDotTerms+1)
	for k := range terms {
		terms[k] = make([]uint64, r.N)
	}
	defer func() {
		if recover() == nil {
			t.Error("DotPairVec accepted more than MaxDotTerms terms")
		}
	}()
	r.SubRings[0].DotPairVec(terms, terms, terms, make([]uint64, r.N), make([]uint64, r.N))
}

// TestCopyPreservesDestinationCapacity exercises the buffer-reuse contract:
// copying a short polynomial into a previously-truncated destination must
// not permanently discard the destination's upper limbs — Resize recovers
// them, holding their original backing arrays.
func TestCopyPreservesDestinationCapacity(t *testing.T) {
	r := testRing(t, 16, 4)
	src := fixedSource()
	full := r.NewPoly()
	r.SampleUniform(src, full)
	topLimb := append([]uint64(nil), full.Coeffs[3]...)

	short := r.AtLevel(1).NewPoly()
	short.IsNTT = true
	for i := range short.Coeffs {
		for j := range short.Coeffs[i] {
			short.Coeffs[i][j] = uint64(100*i + j)
		}
	}

	// Copy the 2-limb poly into the 4-limb buffer: len shrinks to 2 …
	short.Copy(full)
	if full.Level() != short.Level() {
		t.Fatalf("after Copy, destination level %d, want %d", full.Level(), short.Level())
	}
	if !full.Equal(short) {
		t.Fatal("Copy did not reproduce the source")
	}

	// … but the upper limbs are recoverable, contents intact.
	full.Resize(4)
	if full.Level() != 3 {
		t.Fatalf("Resize gave level %d, want 3", full.Level())
	}
	for j, v := range topLimb {
		if full.Coeffs[3][j] != v {
			t.Fatalf("upper limb lost after Copy+Resize (coeff %d: got %d, want %d)", j, full.Coeffs[3][j], v)
		}
	}

	// A destination that never held enough limbs still panics.
	tiny := r.AtLevel(0).NewPoly()
	defer func() {
		if recover() == nil {
			t.Error("Copy into an undersized destination did not panic")
		}
	}()
	full.Copy(tiny)
}

// TestResizeBounds pins Resize's panic contract.
func TestResizeBounds(t *testing.T) {
	r := testRing(t, 16, 2)
	p := r.NewPoly()
	p.Resize(1)
	p.Resize(2)
	defer func() {
		if recover() == nil {
			t.Error("Resize beyond capacity did not panic")
		}
	}()
	p.Resize(3)
}

// TestScratchPoolRoundTrip checks that pooled scratch polynomials come back
// sized to the requesting AtLevel view and survive reuse across levels.
func TestScratchPoolRoundTrip(t *testing.T) {
	r := testRing(t, 16, 4)
	low := r.AtLevel(1)

	s1 := low.GetScratch()
	if s1.Level() != 1 {
		t.Fatalf("scratch at level-1 view has level %d", s1.Level())
	}
	s1.Coeffs[0][0] = 42
	low.PutScratch(s1)

	s2 := r.GetScratch()
	if s2.Level() != 3 {
		t.Fatalf("scratch at full ring has level %d", s2.Level())
	}
	r.PutScratch(s2)
}

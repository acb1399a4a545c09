package bootstrap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// bootParams returns a test-scale parameter set with enough levels for a
// full bootstrap: L = 16 (one 55-bit base prime + 16 40-bit primes),
// three 50-bit special primes.
func bootParams(t testing.TB) *ckks.Parameters {
	t.Helper()
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	p, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     10,
		LogQ:     logQ,
		LogP:     []int{50, 50, 50},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func bootSource() *prng.Source {
	var seed [prng.SeedSize]byte
	copy(seed[:], "bootstrap deterministic testing!")
	return prng.NewSource(seed)
}

func maxErrC(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestChebyshevCoeffsAccuracy(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(3 * x) }
	coeffs := ChebyshevCoeffs(f, 20)
	for x := -1.0; x <= 1.0; x += 0.05 {
		if d := math.Abs(EvalChebyshevPlain(coeffs, x) - f(x)); d > 1e-10 {
			t.Fatalf("cheb approx error %.3g at x=%.2f", d, x)
		}
	}
}

func TestChebyshevDepth(t *testing.T) {
	// Depth must be positive and grow slowly (≈ 2·log2 d).
	prev := 0
	for _, d := range []int{3, 7, 15, 31, 63} {
		dep := ChebyshevDepth(d)
		if dep <= 0 || dep > 2*20 {
			t.Fatalf("ChebyshevDepth(%d) = %d", d, dep)
		}
		if dep < prev {
			t.Fatalf("depth not monotone: %d then %d", prev, dep)
		}
		prev = dep
	}
	if ChebyshevDepth(0) != 0 {
		t.Error("ChebyshevDepth(0) != 0")
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk, false)
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk})
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	dec := ckks.NewDecryptor(params, sk)

	f := func(x float64) float64 { return math.Cos(5*x) * math.Exp(-x*x) }
	coeffs := ChebyshevCoeffs(f, 23)

	n := params.Slots()
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := encryptor.Encrypt(enc.Encode(xs))
	out := EvalChebyshev(ev, ct, coeffs)

	got := enc.Decode(dec.DecryptToPlaintext(out))
	worst := 0.0
	for i := range xs {
		want := f(real(xs[i]))
		if d := cmplx.Abs(got[i] - complex(want, 0)); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Errorf("homomorphic Chebyshev error %.3g too large", worst)
	}
}

// TestCoeffToSlotRoundTrip checks that applying CtS then (conjugate-split,
// recombine) then StC without EvalMod is the identity up to the folded
// constants — isolating the homomorphic DFT from the sine machinery.
func TestDFTGroupsComposeToFullTransform(t *testing.T) {
	params := bootParams(t)
	enc := ckks.NewEncoder(params)
	n := params.Slots()

	// Plain check: the group matrices composed in order must equal the
	// full stage sequence (no bit reversal, no 1/n).
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(rand.Float64()-0.5, rand.Float64()-0.5)
	}
	want := append([]complex128(nil), vals...)
	enc.ApplyFFTStages(want, 0, enc.FFTStageCount(), true)

	got := append([]complex128(nil), vals...)
	stages := enc.FFTStageCount()
	fftIter := 3
	for g := 0; g < fftIter; g++ {
		from := g * stages / fftIter
		to := (g + 1) * stages / fftIter
		enc.ApplyFFTStages(got, from, to, true)
	}
	if err := maxErrC(want, got); err > 1e-9 {
		t.Fatalf("grouped stages diverge from full transform: %.3g", err)
	}
}

func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)

	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, false)
	if err != nil {
		t.Fatal(err)
	}

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	dec := ckks.NewDecryptor(params, sk)

	n := params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = btp.Evaluator().DropLevel(ct, 0) // simulate an exhausted ciphertext

	out := btp.Bootstrap(ct)
	if out.Level <= 0 {
		t.Fatalf("bootstrap output level %d, want > 0", out.Level)
	}

	got := enc.Decode(dec.DecryptToPlaintext(out))
	if err := maxErrC(msg, got); err > 5e-4 {
		t.Errorf("bootstrap error %.3g too large", err)
	}
	t.Logf("bootstrap: output level %d, max slot error %.3g", out.Level, maxErrC(msg, got))
}

// TestBootstrapHoistedModDownMatches verifies that the ModDown-hoisted
// DFT schedule computes the same PtMatVecMult as the textbook per-diagonal
// loop on a real CoeffToSlot stage, and that the whole bootstrap built on
// it (with compressed keys) refreshes the message.
func TestBootstrapHoistedModDownMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)

	bp := DefaultParameters()
	btp, err := NewBootstrapper(params, bp, sk, src, true) // compressed keys too
	if err != nil {
		t.Fatal(err)
	}

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	dec := ckks.NewDecryptor(params, sk)

	n := params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))

	// One CoeffToSlot stage both ways: the hoisted schedule's single
	// ModDown pair must land on the textbook result up to key-switch noise.
	ev := btp.Evaluator()
	lt := btp.cts.groups[0].lt
	hoisted := enc.Decode(dec.DecryptToPlaintext(ev.Rescale(ev.EvalLinearTransformHoistedModDown(ct, lt))))
	textbook := enc.Decode(dec.DecryptToPlaintext(ev.Rescale(ev.EvalLinearTransform(ct, lt))))
	if err := maxErrC(textbook, hoisted); err > 1e-6 {
		t.Errorf("hoisted CoeffToSlot stage differs from the textbook loop by %.3g", err)
	}

	out := btp.Bootstrap(ev.DropLevel(ct, 0))
	got := enc.Decode(dec.DecryptToPlaintext(out))
	if err := maxErrC(msg, got); err > 5e-4 {
		t.Errorf("hoisted-ModDown bootstrap error %.3g too large", err)
	}
}

func TestRequiredKMonotone(t *testing.T) {
	// K grows with the secret weight and (slowly) with the ring degree
	// and the failure exponent.
	if RequiredK(32, 10, 32) <= RequiredK(16, 10, 32) {
		t.Error("K not monotone in h")
	}
	if RequiredK(16, 16, 32) < RequiredK(16, 10, 32) {
		t.Error("K not monotone in logN")
	}
	if RequiredK(16, 10, 64) < RequiredK(16, 10, 32) {
		t.Error("K not monotone in kappa")
	}
}

func TestDefaultParametersKIsSafe(t *testing.T) {
	// The test fixtures use h = 16 sparse secrets at N = 2^10; the default
	// K = 12 must cover that regime at a 2^-32 failure level, and the
	// worst case must exceed the probabilistic bound.
	bp := DefaultParameters()
	if !bp.ValidateK(16, 10, 32) {
		t.Errorf("default K = %d below RequiredK(16,10,32) = %d", bp.K, RequiredK(16, 10, 32))
	}
	if WorstCaseK(16) < RequiredK(16, 10, 32) {
		t.Error("worst case cannot be below the probabilistic bound")
	}
}

func TestRequiredKValues(t *testing.T) {
	// Spot values: the bound should land in the usual literature range
	// (K ≈ 10-12 for h = 16, K ≈ 25-40 for dense secrets at N = 2^16).
	if k := RequiredK(16, 10, 32); k < 8 || k > 14 {
		t.Errorf("RequiredK(16,10,32) = %d outside [8,14]", k)
	}
	if k := RequiredK(192, 16, 32); k < 25 || k > 50 {
		t.Errorf("RequiredK(192,16,32) = %d outside [25,50]", k)
	}
}

// goldenBootstrapHash is the SHA-256 of the serialized bootstrap output in
// TestBootstrapGoldenHash. A schedule change (for example how the DFT
// stages key-switch) changes the noise and so this hash, by design; a
// kernel rewrite must not.
const goldenBootstrapHash = "503875f1aeecaaa9f3df4da6629ba9188fdec25c61c765f94c29992b9503b7bf"

// TestBootstrapGoldenHash pins the refreshed ciphertext bits of one
// seeded bootstrap: same seed, same keys, same message, same output in
// every process and at every worker count. The message goes through the
// float64 encoder, whose rounding is pinned on amd64 (other architectures
// may fuse multiply-adds), so the hash is only checked there.
func TestBootstrapGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash is recorded on amd64 (GOARCH=%s)", runtime.GOARCH)
	}
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%17)/17-0.5, float64(i%5)/5-0.4)
	}
	ct := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(msg))
	out := btp.Bootstrap(btp.Evaluator().DropLevel(ct, 0))

	var buf bytes.Buffer
	if _, err := out.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenBootstrapHash {
		t.Errorf("bootstrap output hash %s, want %s", got, goldenBootstrapHash)
	}
}

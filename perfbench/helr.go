package main

import (
	"math"

	"repro/internal/ckks"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/prng"
)

// helrTol bounds the error of the decrypted mean gradient against its
// plaintext evaluation.
const helrTol = 1e-3

// helrRate is the gradient step size of examples/lr_training.
const helrRate = 4.0

// helrEnv is the helr workload: gradient steps of the lr_training
// kernel at N = 2^12 on the example's 9-limb chain, one worker, and
// seed-compressed keys in an unlimited, unpinned key vault. Each slot
// holds one synthetic training example, y ≈ sigmoid(2.5·x).
type helrEnv struct {
	params *ckks.Parameters
	ev     *ckks.Evaluator
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	dec    *ckks.Decryptor
	xs, ys []complex128
	ctX    *ckks.Ciphertext
	w      float64 // the model weight, updated from each decrypted gradient
}

func newHELREnv(seed uint64) (*helrEnv, error) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     12,
		LogQ:     []int{50, 40, 40, 40, 40, 40, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		return nil, err
	}
	src := prng.NewSource(deriveSeed(seed, "helr.keys"))
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk, true)
	rlk.DropExpanded()
	gks := kg.GenGaloisKeys(ckks.InnerSumRotations(params.Slots()), sk)
	h := &helrEnv{
		params: params,
		ev:     ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks}, ckks.WithWorkers(1)),
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewSecretKeyEncryptor(params, sk, src),
		dec:    ckks.NewDecryptor(params, sk),
	}
	rng := newRand(seed, "helr.data")
	n := params.Slots()
	h.xs, h.ys = make([]complex128, n), make([]complex128, n)
	for i := range h.xs {
		x := 2*rng.Float64() - 1
		label := 0.0
		if rng.Float64() < 1/(1+math.Exp(-2.5*x)) {
			label = 1
		}
		h.xs[i], h.ys[i] = complex(x, 0), complex(label, 0)
	}
	h.ctX = h.encr.Encrypt(h.enc.Encode(h.xs))
	return h, nil
}

func runHELR(cfg runConfig) (*result, error) {
	return runClosedLoop(cfg, func() (*helrEnv, error) { return newHELREnv(cfg.seed) })
}

// step runs one encrypted gradient step at weight w and returns the
// decrypted slots of the gradient's inner sum.
func (h *helrEnv) step(p *phase, w float64) []complex128 {
	ev, n := h.ev, h.params.Slots()
	var ptW, ptY *ckks.Plaintext
	var ctW, ctSig *ckks.Ciphertext
	p.span("bench.encode", func() { ptW = h.enc.Encode(constSlots(n, w)) })
	p.span("bench.encrypt", func() { ctW = h.encr.Encrypt(ptW) })
	ctZ := ev.Mul(ctW, ev.DropLevel(h.ctX, ctW.Level))
	p.span("bench.evalpoly", func() { ctSig = ev.EvalPolynomial(ctZ, ckks.SigmoidCoeffs()) })
	p.span("bench.encode", func() { ptY = h.enc.EncodeAtLevel(h.ys, ctSig.Scale, ctSig.Level) })
	ctErr := ev.SubPlain(ctSig, ptY)
	ctGrad := ev.Mul(ctErr, ev.DropLevel(h.ctX, ctErr.Level))
	var sum *ckks.Ciphertext
	p.span("bench.innersum", func() { sum = ev.InnerSum(ctGrad, n) })
	var got []complex128
	p.span("bench.decrypt", func() { got = h.enc.Decode(h.dec.DecryptToPlaintext(sum)) })
	return got
}

// expectedMean evaluates the same gradient in the clear: the mean over
// the examples of (P(w·x) − y)·x, with P the SigmoidCoeffs polynomial.
func (h *helrEnv) expectedMean(w float64) float64 {
	coeffs := ckks.SigmoidCoeffs()
	sum := 0.0
	for i := range h.xs {
		x, y := real(h.xs[i]), real(h.ys[i])
		z, sig, pow := w*x, 0.0, 1.0
		for _, c := range coeffs {
			sig += c * pow
			pow *= z
		}
		sum += (sig - y) * x
	}
	return sum / float64(len(h.xs))
}

// verify compares every slot of the decrypted inner sum, scaled to a
// mean, with the plaintext mean gradient.
func (h *helrEnv) verify(t *tally, got []complex128, want float64) bool {
	n := float64(len(got))
	mean := make([]complex128, len(got))
	for i, v := range got {
		mean[i] = v / complex(n, 0)
	}
	return t.check(mean, constSlots(len(got), want), helrTol)
}

func (h *helrEnv) unit(p *phase) bool {
	var got []complex128
	p.timed(func() { got = h.step(p, h.w) })
	ok := h.verify(&p.t, got, h.expectedMean(h.w))
	if ok {
		h.w -= helrRate * real(got[0]) / float64(len(got))
	}
	return ok
}

func constSlots(n int, v float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(v, 0)
	}
	return out
}

func (h *helrEnv) setRecorder(rec *obs.Recorder) { h.ev.SetRecorder(rec) }

func (h *helrEnv) setTracer(tr *memtrace.Tracer) int {
	h.ev.SetTracer(tr)
	return h.params.LogN()
}

func (h *helrEnv) residentKeyBytes() int64 { return h.ev.KeyVaultStats().ResidentBytes }

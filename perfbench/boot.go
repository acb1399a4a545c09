package main

import (
	"math/rand/v2"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/prng"
)

// bootWorkers is the evaluator's worker count in boot: the host's two
// CPUs, the most the benchmark uses to generate load.
const bootWorkers = 2

// bootTol is the largest worst-slot error a refreshed ciphertext may
// carry (bootstrap_anatomy's regression bound, ~11 bits).
const bootTol = 5e-4

// bootEnv is the boot workload: the repository's bootstrap parameter set
// (N = 2^10, 17 Q + 3 P limbs, sparse secret h = 16) with seed-compressed
// keys in an unlimited key vault.
type bootEnv struct {
	btp  *bootstrap.Bootstrapper
	enc  *ckks.Encoder
	encr *ckks.Encryptor
	dec  *ckks.Decryptor
	rng  *rand.Rand
}

func newBootEnv(seed uint64) (*bootEnv, error) {
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		return nil, err
	}
	src := prng.NewSource(deriveSeed(seed, "boot.keys"))
	sk := ckks.NewKeyGenerator(params, src).GenSecretKeySparse(16)
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		return nil, err
	}
	btp.SetWorkers(bootWorkers)
	return &bootEnv{
		btp:  btp,
		enc:  ckks.NewEncoder(params),
		encr: ckks.NewSecretKeyEncryptor(params, sk, src),
		dec:  ckks.NewDecryptor(params, sk),
		rng:  newRand(seed, "boot.messages"),
	}, nil
}

func runBoot(cfg runConfig) (*result, error) {
	return runClosedLoop(cfg, func() (*bootEnv, error) { return newBootEnv(cfg.seed) })
}

// input encrypts the next seeded message (slots uniform in the unit
// square) and drops it to level 0, as a bootstrap receives it.
func (b *bootEnv) input() (*ckks.Ciphertext, []complex128) {
	msg := make([]complex128, b.btp.Evaluator().Params().Slots())
	for i := range msg {
		msg[i] = complex(2*b.rng.Float64()-1, 2*b.rng.Float64()-1)
	}
	ct := b.encr.Encrypt(b.enc.Encode(msg))
	return b.btp.Evaluator().DropLevel(ct, 0), msg
}

// verify decrypts a refreshed ciphertext and compares it with the message.
func (b *bootEnv) verify(t *tally, out *ckks.Ciphertext, want []complex128) bool {
	return t.check(b.enc.Decode(b.dec.DecryptToPlaintext(out)), want, bootTol)
}

func (b *bootEnv) unit(p *phase) bool {
	in, want := b.input()
	var out *ckks.Ciphertext
	p.timed(func() { out = b.btp.Bootstrap(in) })
	return b.verify(&p.t, out, want)
}

func (b *bootEnv) setRecorder(rec *obs.Recorder) { b.btp.SetRecorder(rec) }

// setTracer runs the memory-traced unit at one worker: the tracer
// serializes the basis-extension kernel, and one worker keeps the
// recorded stream in program order.
func (b *bootEnv) setTracer(tr *memtrace.Tracer) int {
	if tr != nil {
		b.btp.SetWorkers(1)
	} else {
		b.btp.SetWorkers(bootWorkers)
	}
	b.btp.SetTracer(tr)
	return b.btp.Evaluator().Params().LogN()
}

func (b *bootEnv) residentKeyBytes() int64 {
	return b.btp.Evaluator().KeyVaultStats().ResidentBytes
}

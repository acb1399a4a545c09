package ckks

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/rns"
)

func log2(x float64) float64 { return math.Log2(x) }

// Evaluator performs homomorphic operations on ciphertexts. It implements
// every primitive of the paper's Table 2 plus the hoisted variants used by
// the MAD algorithmic optimizations.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet
	iMono  map[int]*ring.Poly // cached NTT(X^{N/2}) per level (see MulByI)

	// workers is the parallelism budget for the limb-, digit- and
	// rotation-level fan-outs (1 = serial; set via WithWorkers/SetWorkers).
	// Results are bit-identical for every worker count.
	workers int

	// rec, when non-nil, receives a hierarchical span per primitive
	// ("ckks.Mult" owns its "ckks.Rescale"/"ckks.KeySwitch" children,
	// which own the rns sub-op and ring worker spans) and the counters
	// "ckks.ntt" (limb-sized (i)NTT invocations, counted analytically at
	// the converter call sites), "ckks.keyswitch", "ckks.mult",
	// "ckks.rotate", "ckks.rescale", "ckks.limbs" and "ckks.key.bytes"
	// (switching-key limb bytes read by inner products). A nil recorder
	// costs one nil check per call.
	rec *obs.Recorder

	// model, when non-nil, annotates every op span with the analytic
	// model's predicted cost at the op's exact (level, fanout) point —
	// the "pred.*" ledger attributes (see internal/obs/ledger).
	model obs.CostModel

	// tr, when non-nil, records the limb-granular memory access stream of
	// every primitive (internal/memtrace): the ring and rns hooks cover
	// the generic kernels, and the evaluator adds the operand-class
	// annotations only it knows — switching-key reads, plaintext tags,
	// accumulator residency.
	tr *memtrace.Tracer

	// fi, when non-nil, is a chaos-testing fault injector consulted at the
	// named hook sites of the checked (*E) methods and the key-switch
	// digit resolve (see internal/faultinject). Nil costs one pointer
	// comparison per hook. Injection mutates shared state: run chaos
	// experiments with SetWorkers(1).
	fi *faultinject.Injector

	// integrity, when true, makes the checked (*E) methods Seal every
	// ciphertext they return, arming the checksum comparison in Validate.
	integrity bool

	// vault is the bounded cache of demand-materialized uniform key
	// halves for seed-compressed switching keys (see keyvault.go). Always
	// non-nil; unlimited budget by default (WithKeyBudget/SetKeyBudget).
	vault *keyVault

	// opCtx, when non-nil, is the cancellation context bound to
	// subsequent operations (see SetOpContext in context.go): op
	// boundaries and fan-out units check it and abort with a typed
	// fherr.ErrCanceled once it is done.
	opCtx context.Context
}

// EvaluatorOption configures an Evaluator at construction time.
type EvaluatorOption func(*Evaluator)

// WithWorkers sets the evaluator's worker count (see SetWorkers).
func WithWorkers(n int) EvaluatorOption {
	return func(ev *Evaluator) { ev.SetWorkers(n) }
}

// WithKeyBudget bounds the bytes of demand-materialized switching-key
// material the evaluator keeps resident (see SetKeyBudget).
func WithKeyBudget(bytes int64) EvaluatorOption {
	return func(ev *Evaluator) { ev.SetKeyBudget(bytes) }
}

// NewEvaluator returns an evaluator with the given keys. The key set (or
// individual keys in it) may be nil if the corresponding operations are
// never used. By default the evaluator is serial; pass WithWorkers to
// enable limb-level parallelism.
func NewEvaluator(params *Parameters, keys *EvaluationKeySet, opts ...EvaluatorOption) *Evaluator {
	if keys == nil {
		keys = &EvaluationKeySet{}
	}
	ev := &Evaluator{params: params, keys: keys, workers: 1, vault: newKeyVault(params)}
	for _, opt := range opts {
		opt(ev)
	}
	return ev
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// Keys returns the evaluator's key set.
func (ev *Evaluator) Keys() *EvaluationKeySet { return ev.keys }

// SetKeyBudget bounds the bytes of expanded uniform key halves the
// evaluator's key vault keeps resident for seed-compressed switching
// keys; least-recently-used digits are evicted (and later rematerialized
// from their seeds on demand) once the bound is exceeded. bytes <= 0
// removes the bound. Any budget — even one smaller than a single digit —
// preserves correctness and progress; it trades expansion compute for
// resident key memory. Takes effect immediately: over-budget unpinned
// digits are evicted before this returns.
func (ev *Evaluator) SetKeyBudget(bytes int64) { ev.vault.setBudget(bytes) }

// KeyBudget returns the current vault byte budget (<= 0 = unlimited).
func (ev *Evaluator) KeyBudget() int64 { return ev.vault.budgetBytes() }

// KeyVaultStats snapshots the key vault's hit/miss/eviction counters and
// resident-byte occupancy.
func (ev *Evaluator) KeyVaultStats() KeyVaultStats { return ev.vault.stats() }

// FlushKeyVault drops every unpinned materialized digit, forcing
// rematerialization from seeds on next use — the recovery action after
// suspected corruption of cached key material.
func (ev *Evaluator) FlushKeyVault() { ev.vault.flush() }

// SetWorkers sets the parallelism budget for basis conversions, key-switch
// inner products and hoisted-rotation fan-outs. n ≤ 0 selects GOMAXPROCS.
// Every worker count produces bit-identical ciphertexts; the knob trades
// cores for latency only.
func (ev *Evaluator) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ev.workers = n
	ev.rec.SetGauge("ckks.workers", float64(n))
}

// Workers returns the evaluator's current worker count.
func (ev *Evaluator) Workers() int { return ev.workers }

// splitWorkers divides a worker budget between an outer fan-out over
// `tasks` independent items and the per-item inner (limb-level)
// parallelism, preferring the outer axis: fan-out parallelism has no
// synchronization points, whereas limb parallelism joins at every
// conversion step.
func splitWorkers(workers, tasks int) (outer, inner int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || tasks <= 1 {
		return 1, workers
	}
	if tasks >= workers {
		return workers, 1
	}
	return tasks, (workers + tasks - 1) / tasks
}

// SetRecorder attaches an observability recorder (nil detaches it). The
// recorder is propagated to the parameter set's shared basis-change
// Converter (the "rns.extend*" counters), to both rings (the "ring.ntt*"
// kernel and "ring.pool.*" occupancy counters) and to the ring worker
// pool (the "ring.parallel.task" latency histogram), so one attachment
// point lights up the whole stack.
func (ev *Evaluator) SetRecorder(r *obs.Recorder) {
	ev.rec = r
	ev.params.Converter().SetRecorder(r)
	ev.params.RingQ().SetRecorder(r)
	ev.params.RingP().SetRecorder(r)
	ring.SetTaskRecorder(r)
	ev.vault.rec = r
	r.SetGauge("ckks.workers", float64(ev.workers))
	r.SetGauge("ckks.keyvault.budget_bytes", float64(ev.vault.budgetBytes()))
}

// Recorder returns the attached recorder, which may be nil.
func (ev *Evaluator) Recorder() *obs.Recorder { return ev.rec }

// SetCostModel attaches a cost ledger (nil detaches it): with both a
// recorder and a model attached, every op span carries the model's
// predicted bytes/ops/NTTs for its exact parameter point, so traces and
// the drift report can put predicted next to measured per op.
func (ev *Evaluator) SetCostModel(m obs.CostModel) { ev.model = m }

// CostModel returns the attached cost ledger, which may be nil.
func (ev *Evaluator) CostModel() obs.CostModel { return ev.model }

// startOp opens the hierarchical span for one evaluator-level op and
// stamps the cost ledger on it: ciphertext telemetry (level, scale,
// degree), the model prediction at this (level, fanout) point when a
// cost model is attached, and the memtrace window start when a tracer is
// attached (drift replays [trace.begin, trace.end) through the cache sim
// for the measured side). kind is the span name minus the "ckks."
// prefix and doubles as the ledger key. Returns nil — and skips all
// annotation work — when no recorder is attached.
func (ev *Evaluator) startOp(kind string, level int, scale float64, fanout int) *obs.Span {
	// Every instrumented op boundary doubles as a cancellation point:
	// with a bound op context, a deadline that expired between ops stops
	// the next one before it starts (see context.go).
	ev.checkInterrupt()
	if ev.rec == nil {
		return nil
	}
	sp := ev.rec.StartOp("ckks." + kind)
	sp.SetAttr("ct.level", float64(level))
	sp.SetAttr("ct.degree", 1)
	if scale > 0 {
		sp.SetAttr("ct.scale_log2", log2(scale))
	}
	if fanout > 1 {
		sp.SetAttr("op.fanout", float64(fanout))
	}
	if ev.tr != nil {
		sp.SetAttr("trace.begin", float64(ev.tr.Len()))
	}
	if ev.model != nil {
		if c, ok := ev.model.PredictOp(kind, level+1, fanout); ok {
			sp.SetAttr("pred.bytes", float64(c.Bytes))
			sp.SetAttr("pred.ops", float64(c.Ops))
			sp.SetAttr("pred.ntt", float64(c.NTT))
		}
	}
	return sp
}

// endOp closes an op span, stamping the memtrace window end first.
func (ev *Evaluator) endOp(sp *obs.Span) {
	if sp == nil {
		return
	}
	if ev.tr != nil {
		sp.SetAttr("trace.end", float64(ev.tr.Len()))
	}
	sp.End()
}

// SetTracer attaches a memory access tracer (nil detaches it), propagating
// it to the shared Converter and both rings so every kernel the evaluator
// reaches records into the same stream. Tracing serializes the basis-
// extension kernel; run with SetWorkers(1) for a deterministic stream.
func (ev *Evaluator) SetTracer(t *memtrace.Tracer) {
	ev.tr = t
	ev.params.Converter().SetTracer(t)
	ev.params.RingQ().SetTracer(t)
	ev.params.RingP().SetTracer(t)
	ev.vault.tr = t
}

// Tracer returns the attached memory tracer, which may be nil.
func (ev *Evaluator) Tracer() *memtrace.Tracer { return ev.tr }

// tagPlaintext registers pt's limbs in the tracer's class registry, so the
// generic ring hooks' ct-class reads of the plaintext are reclassified as
// plaintext traffic at replay time.
func (ev *Evaluator) tagPlaintext(pt *Plaintext) {
	if ev.tr == nil {
		return
	}
	for i := range pt.Value.Coeffs {
		ev.tr.Tag(pt.Value.Coeffs[i], memtrace.ClassPt)
	}
}

// kP returns the number of special (P-basis) limbs, which every raised
// polynomial carries and the analytic NTT accounting needs.
func (ev *Evaluator) kP() int { return len(ev.params.RingP().Moduli) }

func minLevel(ct0, ct1 *Ciphertext) int {
	if ct0.Level < ct1.Level {
		return ct0.Level
	}
	return ct1.Level
}

func sameScale(a, b float64) bool {
	return math.Abs(a-b)/a < 1e-9
}

// Add returns ct0 + ct1 (Table 2 Add). Operands must share a scale.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	if !sameScale(ct0.Scale, ct1.Scale) {
		panic(fmt.Sprintf("ckks: Add scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct1.Scale), log2(ct0.Scale)))
	}
	level := minLevel(ct0, ct1)
	rQ := ev.params.RingQ().AtLevel(level)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct0.Scale, Level: level}
	rQ.Add(ct0.C0, ct1.C0, out.C0)
	rQ.Add(ct0.C1, ct1.C1, out.C1)
	return out
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) *Ciphertext {
	if !sameScale(ct0.Scale, ct1.Scale) {
		panic(fmt.Sprintf("ckks: Sub scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct1.Scale), log2(ct0.Scale)))
	}
	level := minLevel(ct0, ct1)
	rQ := ev.params.RingQ().AtLevel(level)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct0.Scale, Level: level}
	rQ.Sub(ct0.C0, ct1.C0, out.C0)
	rQ.Sub(ct0.C1, ct1.C1, out.C1)
	return out
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct.Scale, Level: ct.Level}
	rQ.Neg(ct.C0, out.C0)
	rQ.Neg(ct.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (Table 2 PtAdd). The plaintext must share the
// ciphertext's scale and be at a level ≥ the ciphertext's.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: AddPlain scale mismatch (got=2^%.2f, want=2^%.2f)", log2(pt.Scale), log2(ct.Scale)))
	}
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ct.CopyNew()
	rQ.Add(ct.C0, pt.Value, out.C0)
	return out
}

// SubPlain returns ct - pt.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: SubPlain scale mismatch (got=2^%.2f, want=2^%.2f)", log2(pt.Scale), log2(ct.Scale)))
	}
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ct.CopyNew()
	rQ.Sub(ct.C0, pt.Value, out.C0)
	return out
}

// MulPlain returns ct ⊙ pt without rescaling (the caller decides when to
// Rescale); the output scale is the product of the scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct.Scale * pt.Scale, Level: ct.Level}
	rQ.MulCoeffs(ct.C0, pt.Value, out.C0)
	rQ.MulCoeffs(ct.C1, pt.Value, out.C1)
	return out
}

// MulPlainRescale is the full PtMult of Table 2: multiply then Rescale.
func (ev *Evaluator) MulPlainRescale(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return ev.Rescale(ev.MulPlain(ct, pt))
}

// MulByConstReal multiplies every slot by the real constant c, carrying it
// at scale constScale (the output scale is ct.Scale·constScale and one
// Rescale is usually owed afterwards). constScale = 1 with integral c
// costs no scale at all. The rounding of c·constScale to an integer
// introduces an absolute slot error ≤ 0.5/constScale — pick constScale
// large enough (≈ Δ) that this vanishes below the noise floor.
func (ev *Evaluator) MulByConstReal(ct *Ciphertext, c float64, constScale float64) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	scaled := math.Round(c * constScale)
	outScale := ct.Scale * constScale
	neg := scaled < 0
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: outScale, Level: ct.Level}
	abs := math.Abs(scaled)
	if abs >= 1<<62 {
		// Gigantic constants (e.g. aligning to Δ² scales) exceed uint64:
		// reduce the float per modulus instead.
		for i, s := range rQ.SubRings {
			ci := mathutil.ReduceFloat(abs, s.Q)
			cs := mathutil.ShoupPrecomp(ci, s.Q)
			for j := 0; j < rQ.N; j++ {
				out.C0.Coeffs[i][j] = mathutil.MulModShoup(ct.C0.Coeffs[i][j], ci, cs, s.Q)
				out.C1.Coeffs[i][j] = mathutil.MulModShoup(ct.C1.Coeffs[i][j], ci, cs, s.Q)
			}
		}
		out.C0.IsNTT, out.C1.IsNTT = ct.C0.IsNTT, ct.C1.IsNTT
	} else {
		rQ.MulScalar(ct.C0, uint64(abs), out.C0)
		rQ.MulScalar(ct.C1, uint64(abs), out.C1)
	}
	if neg {
		rQ.Neg(out.C0, out.C0)
		rQ.Neg(out.C1, out.C1)
	}
	return out
}

// AddConstReal adds the real constant c to every slot, encoding it at the
// ciphertext's own scale (no level or scale change).
func (ev *Evaluator) AddConstReal(ct *Ciphertext, c float64) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ct.CopyNew()
	v := math.Round(c * ct.Scale)
	for i, s := range rQ.SubRings {
		ci := mathutil.ReduceFloat(v, s.Q)
		oi := out.C0.Coeffs[i]
		// In NTT form a constant polynomial is the same constant in every
		// slot, so the broadcast add is exact.
		for j := 0; j < rQ.N; j++ {
			oi[j] = mathutil.AddMod(oi[j], ci, s.Q)
		}
	}
	return out
}

// Rescale divides the ciphertext by its top limb modulus (Table 2's
// Rescale column), dropping one level and shrinking the scale by q_ℓ.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	level := ct.Level
	if level == 0 {
		panic("ckks: Rescale level (got=0, want>=1)")
	}
	sp := ev.startOp("Rescale", level, ct.Scale, 0)
	defer ev.endOp(sp)
	// Per poly: one iNTT of the dropped limb, one forward NTT per
	// remaining limb (rns.Converter.Rescale).
	ev.rec.Add("ckks.ntt", uint64(2*(1+level)))
	ev.rec.Add("ckks.rescale", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	rQ := ev.params.RingQ().AtLevel(level - 1)
	out := &Ciphertext{
		C0:    rQ.NewPoly(),
		C1:    rQ.NewPoly(),
		Scale: ct.Scale / float64(ev.params.Q()[level]),
		Level: level - 1,
	}
	// Rescale truncates the output slice itself; hand it full-size polys.
	out.C0.Coeffs = out.C0.Coeffs[:level]
	out.C1.Coeffs = out.C1.Coeffs[:level]
	conv.Rescale(level, ct.C0, out.C0, ev.workers)
	conv.Rescale(level, ct.C1, out.C1, ev.workers)
	return out
}

// DropLevel returns the ciphertext truncated to the given lower level
// without any scaling (the RNS representation just loses limbs).
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) *Ciphertext {
	if level > ct.Level {
		panic(fmt.Sprintf("ckks: DropLevel level (got=%d, want<=%d)", level, ct.Level))
	}
	out := ct.CopyNew()
	out.C0.Coeffs = out.C0.Coeffs[:level+1]
	out.C1.Coeffs = out.C1.Coeffs[:level+1]
	out.Level = level
	return out
}

// digit returns digit j of the switching key. Keys whose uniform half is
// materialized in place (uncompressed keys, or compressed keys after
// ExpandAll) are returned directly; seed-only digits are fetched from the
// evaluator's key vault, which expands them on demand within the key
// budget. Safe from any goroutine: the vault replaces the old memoizing
// write into the shared key (which raced under the limb-parallel paths)
// with a single-flight, lock-guarded cache that never mutates the key.
func (ev *Evaluator) digit(swk *SwitchingKey, j int) KSKDigit {
	d := swk.Digits[j]
	if d.A.Q == nil {
		d.A = ev.vault.acquire(swk, j, false)
	}
	return d
}

// pinDigits pins the first beta digits of a switching key in the vault
// for the duration of a fan-out (hoisted rotations, linear transforms):
// every key of the fan-out is materialized once up front and protected
// from eviction until the matching unpinDigits, so hoisting never
// thrashes a tight budget by evicting a key it is about to reuse (ARK's
// inter-operation key reuse). No-op for digits materialized in the key
// itself. Must be paired with unpinDigits on every return path.
func (ev *Evaluator) pinDigits(swk *SwitchingKey, beta int) {
	for j := 0; j < beta; j++ {
		if swk.Digits[j].A.Q == nil {
			ev.vault.acquire(swk, j, true)
		}
	}
}

// unpinDigits releases the pins taken by pinDigits.
func (ev *Evaluator) unpinDigits(swk *SwitchingKey, beta int) {
	for j := 0; j < beta; j++ {
		if swk.Digits[j].A.Q == nil {
			ev.vault.unpin(swk, j)
		}
	}
}

// getZeroPolyQP draws a pooled raised polynomial, zeroed and flagged NTT,
// ready to serve as a key-switch accumulator.
func (ev *Evaluator) getZeroPolyQP(level int) rns.PolyQP {
	p := ev.params.Converter().GetPolyQP(level)
	p.Q.Zero()
	p.P.Zero()
	p.Q.IsNTT, p.P.IsNTT = true, true
	return p
}

// decomposeModUp performs the Decomp + ModUp front half of KeySwitch
// (Algorithm 3 lines 1–2): it splits x into β digits and raises each to
// the Q∪P basis. The result can be reused across many automorphisms —
// this is exactly the standard "ModUp hoisting" for rotations. The digits
// are drawn from the converter's pool; release them with putDigits.
func (ev *Evaluator) decomposeModUp(level int, x *ring.Poly, workers int) []rns.PolyQP {
	p := ev.params
	conv := p.Converter()
	alpha := p.Alpha()
	beta := p.Beta(level)
	digits := make([]rns.PolyQP, beta)
	for j := 0; j < beta; j++ {
		digits[j] = conv.GetPolyQP(level)
	}
	outer, inner := splitWorkers(workers, beta)
	ev.fanOut(beta, outer, func(j int) {
		start := j * alpha
		end := min(start+alpha, level+1)
		conv.ModUpDigit(level, start, end, x, digits[j], inner)
	})
	// Per digit: iNTT of the digit limbs plus a forward NTT of every
	// generated limb — together exactly level+1+kP transforms.
	ev.rec.Add("ckks.ntt", uint64(beta*(level+1+ev.kP())))
	return digits
}

// putDigits returns a digit slice from decomposeModUp to the pool.
func (ev *Evaluator) putDigits(digits []rns.PolyQP) {
	conv := ev.params.Converter()
	for j := range digits {
		conv.PutPolyQP(digits[j])
	}
}

// kskInnerProduct sets the raised pair (u, v) to Σ_j ksk_j ⊙ digits_j —
// Algorithm 3 line 3. u and v are overwritten, so they may come straight
// from the pool. The parallel split is over limbs and every coefficient's
// sum is exact, so the result is bit-identical for any worker count.
func (ev *Evaluator) kskInnerProduct(level int, digits []rns.PolyQP, swk *SwitchingKey, u, v rns.PolyQP, workers int) {
	p := ev.params
	rQ := p.RingQ().AtLevel(level)
	rP := p.RingP()
	n := rQ.N
	nQ := level + 1
	nP := len(rP.Moduli)
	// Resolve (and, for compressed keys, vault-materialize) all digits
	// once before fanning out, so the limb loop below pays no per-limb
	// vault lookups. The resolve itself is goroutine-safe.
	ds := make([]KSKDigit, len(digits))
	for j := range digits {
		ds[j] = ev.digit(swk, j)
	}
	// Key traffic: each digit iteration streams both key halves over every
	// raised limb — 2·β·(ℓ+1+kP) limbs of 8N bytes.
	ev.rec.Add("ckks.key.bytes", 2*uint64(len(digits))*uint64(nQ+nP)*8*uint64(n))
	if ev.fi != nil {
		// Chaos hook: corrupt resolved switching-key digits in place. The
		// Visit counter selects which digit (hooks run in ascending digit
		// order). Key corruption is invisible to ciphertext checksums — it
		// is the fault class only the decrypt-compare precision guard (or
		// a downstream limb-shape panic) can catch.
		for j := range ds {
			ev.fi.Poly("ckks.ksk.digitB", ds[j].B.Q)
			ev.fi.Poly("ckks.ksk.digitA", ds[j].A.Q)
		}
	}
	// One fused kernel per limb: every coefficient sums its β products in
	// 128 bits and is reduced once (ring.SubRing.DotPairVec), which is
	// exact, so the result equals the per-digit strictly reduced sum.
	// Memory hooks: the pooled accumulators are untraced until here, so a
	// leading traced write declares them resident — their eventual
	// writeback is the model's 2·raised ciphertext writes. Each digit
	// reads two key limbs (class key) and the shared raised digit once;
	// the second product's digit reuse is register-resident.
	ev.fanOut(nQ+nP, workers, func(i int) {
		limb := func(p rns.PolyQP) []uint64 {
			if i < nQ {
				return p.Q.Coeffs[i][:n]
			}
			return p.P.Coeffs[i-nQ][:n]
		}
		var s *ring.SubRing
		if i < nQ {
			s = rQ.SubRings[i]
		} else {
			s = rP.SubRings[i-nQ]
		}
		var keyB, keyA, dig [ring.MaxDotTerms][]uint64
		ui, vi := limb(u), limb(v)
		ev.tr.Write(ui)
		ev.tr.Write(vi)
		for j := range digits {
			keyB[j], keyA[j], dig[j] = limb(ds[j].B), limb(ds[j].A), limb(digits[j])
			ev.tr.ReadClass(keyB[j], memtrace.ClassKey)
			ev.tr.Read(dig[j])
			ev.tr.ReadClass(keyA[j], memtrace.ClassKey)
		}
		beta := len(digits)
		s.DotPairVec(keyB[:beta], keyA[:beta], dig[:beta], ui, vi)
	})
	u.Q.IsNTT, u.P.IsNTT = true, true
	v.Q.IsNTT, v.P.IsNTT = true, true
}

// keySwitchRaised runs Algorithm 3 up to (but not including) the final
// ModDown: it returns the raised pair (u, v) = ⟦P·x·w⟧ over R²_{PQ},
// the "very important intermediate value" the MAD algorithmic
// optimizations operate on directly. The returned pair is pooled; the
// caller must release it with Converter().PutPolyQP when done.
func (ev *Evaluator) keySwitchRaised(level int, x *ring.Poly, swk *SwitchingKey) (u, v rns.PolyQP) {
	if err := ev.params.checkKeyLevels(swk); err != nil {
		panic(err)
	}
	conv := ev.params.Converter()
	u, v = conv.GetPolyQP(level), conv.GetPolyQP(level)
	digits := ev.decomposeModUp(level, x, ev.workers)
	ev.kskInnerProduct(level, digits, swk, u, v, ev.workers)
	ev.putDigits(digits)
	return u, v
}

// keySwitchDown applies the two ModDowns of Algorithm 3 line 4.
func (ev *Evaluator) keySwitchDown(level int, u, v rns.PolyQP, workers int) (p0, p1 *ring.Poly) {
	// Per ModDown: kP iNTTs of the P limbs plus level+1 forward NTTs of
	// the correction limbs. Every key switch funnels through here, so the
	// keyswitch counter lives here too.
	ev.rec.Add("ckks.ntt", uint64(2*(ev.kP()+level+1)))
	ev.rec.Add("ckks.keyswitch", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	rQ := ev.params.RingQ().AtLevel(level)
	p0, p1 = rQ.NewPoly(), rQ.NewPoly()
	conv.ModDown(level, u, p0, workers)
	conv.ModDown(level, v, p1, workers)
	return p0, p1
}

// KeySwitch computes ⟦x·w⟧ under the target key (full Algorithm 3).
func (ev *Evaluator) KeySwitch(level int, x *ring.Poly, swk *SwitchingKey) (p0, p1 *ring.Poly) {
	sp := ev.startOp("KeySwitch", level, 0, 0)
	defer ev.endOp(sp)
	u, v := ev.keySwitchRaised(level, x, swk)
	p0, p1 = ev.keySwitchDown(level, u, v, ev.workers)
	conv := ev.params.Converter()
	conv.PutPolyQP(u)
	conv.PutPolyQP(v)
	return p0, p1
}

// MulRelin returns ct0·ct1, relinearized with the evaluator's
// relinearization key, without the trailing Rescale (Table 2's Mult is
// MulRelin followed by Rescale; keeping them separate lets callers batch
// additions at the doubled scale first).
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext) *Ciphertext {
	if ev.keys.Rlk == nil {
		panic("ckks: relinearization key missing (got=nil, want=key)")
	}
	level := minLevel(ct0, ct1)
	sp := ev.startOp("MulRelin", level, ct0.Scale, 0)
	defer ev.endOp(sp)
	ev.rec.Add("ckks.mult", 1)
	rQ := ev.params.RingQ().AtLevel(level)

	d0, d1, d2 := rQ.NewPoly(), rQ.NewPoly(), rQ.NewPoly()
	rQ.MulCoeffs(ct0.C0, ct1.C0, d0)
	rQ.MulCoeffs(ct0.C0, ct1.C1, d1)
	rQ.MulCoeffsThenAdd(ct0.C1, ct1.C0, d1)
	rQ.MulCoeffs(ct0.C1, ct1.C1, d2)

	p0, p1 := ev.KeySwitch(level, d2, &ev.keys.Rlk.SwitchingKey)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct0.Scale * ct1.Scale, Level: level}
	rQ.Add(d0, p0, out.C0)
	rQ.Add(d1, p1, out.C1)
	return out
}

// Mul is the full Table 2 Mult: tensor, relinearize, rescale.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) *Ciphertext {
	sp := ev.startOp("Mult", minLevel(ct0, ct1), ct0.Scale, 0)
	defer ev.endOp(sp)
	return ev.Rescale(ev.MulRelin(ct0, ct1))
}

// galoisKey fetches the Galois key for element g.
func (ev *Evaluator) galoisKey(g uint64) *GaloisKey {
	gk, ok := ev.keys.Galois[g]
	if !ok {
		panic(fmt.Sprintf("ckks: Galois key missing (got=element %d, want=keyed element)", g))
	}
	return gk
}

// Rotate returns the ciphertext with slots rotated by k positions
// (Table 2 Rotate): Automorph on both halves, then KeySwitch on the c1
// half to return to the original key.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	g := ev.params.RingQ().GaloisElement(k)
	if g == 1 {
		return ct.CopyNew()
	}
	sp := ev.startOp("Rotate", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	ev.rec.Add("ckks.rotate", 1)
	return ev.automorphism(ct, g)
}

// Conjugate returns the slot-wise complex conjugate (Table 2 Conjugate).
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	sp := ev.startOp("Conjugate", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	return ev.automorphism(ct, ev.params.RingQ().GaloisElementConjugate())
}

func (ev *Evaluator) automorphism(ct *Ciphertext, g uint64) *Ciphertext {
	level := ct.Level
	rQ := ev.params.RingQ().AtLevel(level)
	gk := ev.galoisKey(g)

	c0r, c1r := rQ.NewPoly(), rQ.NewPoly()
	rQ.AutomorphismNTT(ct.C0, g, c0r)
	rQ.AutomorphismNTT(ct.C1, g, c1r)

	p0, p1 := ev.KeySwitch(level, c1r, &gk.SwitchingKey)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: p1, Scale: ct.Scale, Level: level}
	rQ.Add(c0r, p0, out.C0)
	return out
}

// automorphismPolyQP applies X → X^g to both parts of a raised polynomial.
func (ev *Evaluator) automorphismPolyQP(level int, a rns.PolyQP, g uint64) rns.PolyQP {
	p := ev.params
	rQ := p.RingQ().AtLevel(level)
	rP := p.RingP()
	out := p.Converter().NewPolyQP(level)
	rQ.AutomorphismNTT(a.Q, g, out.Q)
	rP.AutomorphismNTT(a.P, g, out.P)
	return out
}

// rotateFromDigits applies one hoisted rotation step given the shared
// raised digits of c1: rotate the digits, run the key-switch inner product
// and ModDown, and recombine with the rotated c0. All scratch is pooled.
// Callers fanning steps out in parallel should pin the Galois keys of the
// fan-out (pinDigits) first so a tight key budget cannot thrash.
func (ev *Evaluator) rotateFromDigits(level int, ct *Ciphertext, digits []rns.PolyQP, g uint64, gk *GaloisKey, workers int) *Ciphertext {
	p := ev.params
	rQ := p.RingQ().AtLevel(level)
	rP := p.RingP()
	conv := p.Converter()

	rot := make([]rns.PolyQP, len(digits))
	for j := range digits {
		rot[j] = conv.GetPolyQP(level)
		rQ.AutomorphismNTT(digits[j].Q, g, rot[j].Q)
		rP.AutomorphismNTT(digits[j].P, g, rot[j].P)
	}
	u, v := conv.GetPolyQP(level), conv.GetPolyQP(level)
	ev.kskInnerProduct(level, rot, &gk.SwitchingKey, u, v, workers)
	for j := range rot {
		conv.PutPolyQP(rot[j])
	}
	p0, p1 := ev.keySwitchDown(level, u, v, workers)
	conv.PutPolyQP(u)
	conv.PutPolyQP(v)

	c0r := rQ.NewPoly()
	rQ.AutomorphismNTT(ct.C0, g, c0r)
	res := &Ciphertext{C0: rQ.NewPoly(), C1: p1, Scale: ct.Scale, Level: level}
	rQ.Add(c0r, p0, res.C0)
	return res
}

// RotateHoisted rotates one ciphertext by many steps, sharing a single
// Decomp + ModUp across all of them (the standard ModUp hoisting of
// Halevi–Shoup/GAZELLE referenced in §3.2). The map includes step 0 as a
// copy when requested. The steps are independent of each other, so the
// worker budget fans out across them first and falls back to limb-level
// parallelism inside each step.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) map[int]*Ciphertext {
	fan := 0
	for _, k := range steps {
		if ev.params.RingQ().GaloisElement(k) != 1 {
			fan++
		}
	}
	sp := ev.startOp("RotateHoisted", ct.Level, ct.Scale, fan)
	defer ev.endOp(sp)
	level := ct.Level
	digits := ev.decomposeModUp(level, ct.C1, ev.workers)

	type stepJob struct {
		k  int
		g  uint64
		gk *GaloisKey
	}
	out := make(map[int]*Ciphertext, len(steps))
	var jobs []stepJob
	for _, k := range steps {
		g := ev.params.RingQ().GaloisElement(k)
		if g == 1 {
			out[k] = ct.CopyNew()
			continue
		}
		ev.rec.Add("ckks.rotate", 1)
		gk := ev.galoisKey(g)
		// Pin every key of the fan-out for the duration of the call: all
		// steps reuse their keys against the shared decomposition, and a
		// budget smaller than the fan-out must not evict a key between its
		// materialization and its use.
		ev.pinDigits(&gk.SwitchingKey, len(digits))
		jobs = append(jobs, stepJob{k: k, g: g, gk: gk})
	}
	defer func() {
		for _, j := range jobs {
			ev.unpinDigits(&j.gk.SwitchingKey, len(digits))
		}
	}()

	outer, inner := splitWorkers(ev.workers, len(jobs))
	results := make([]*Ciphertext, len(jobs))
	ev.fanOut(len(jobs), outer, func(idx int) {
		j := jobs[idx]
		results[idx] = ev.rotateFromDigits(level, ct, digits, j.g, j.gk, inner)
	})
	for idx, j := range jobs {
		out[j.k] = results[idx]
	}
	ev.putDigits(digits)
	return out
}

// Square returns ct² relinearized (no rescale): the tensor step exploits
// symmetry (d1 = 2·a0·a1), saving one of Mult's four pointwise products.
func (ev *Evaluator) Square(ct *Ciphertext) *Ciphertext {
	if ev.keys.Rlk == nil {
		panic("ckks: relinearization key missing (got=nil, want=key)")
	}
	level := ct.Level
	sp := ev.startOp("Square", level, ct.Scale, 0)
	defer ev.endOp(sp)
	rQ := ev.params.RingQ().AtLevel(level)

	d0, d1, d2 := rQ.NewPoly(), rQ.NewPoly(), rQ.NewPoly()
	rQ.MulCoeffs(ct.C0, ct.C0, d0)
	rQ.MulCoeffs(ct.C0, ct.C1, d1)
	rQ.Add(d1, d1, d1)
	rQ.MulCoeffs(ct.C1, ct.C1, d2)

	p0, p1 := ev.KeySwitch(level, d2, &ev.keys.Rlk.SwitchingKey)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct.Scale * ct.Scale, Level: level}
	rQ.Add(d0, p0, out.C0)
	rQ.Add(d1, p1, out.C1)
	return out
}

// MatchScaleLevel brings ct to exactly (level, ≈targetScale) so it can be
// added to or subtracted from another ciphertext: the ratio is folded
// into an exact large-constant multiplication at level+1 followed by one
// Rescale. Requires ct.Level > level.
func (ev *Evaluator) MatchScaleLevel(ct *Ciphertext, level int, targetScale float64) *Ciphertext {
	if ct.Level <= level {
		panic(fmt.Sprintf("ckks: MatchScaleLevel level (got=%d, want>%d)", ct.Level, level))
	}
	adj := ev.DropLevel(ct, level+1)
	ratio := targetScale * float64(ev.params.Q()[level+1]) / adj.Scale
	if ratio < 1 {
		panic(fmt.Sprintf("ckks: MatchScaleLevel scale mismatch (got=ratio %.3g, want>=1)", ratio))
	}
	return ev.Rescale(ev.MulByConstReal(adj, 1, ratio))
}

// SwitchKeys re-encrypts ct to the key the switching key targets: the
// generic decryption-key change of §2.2. The ciphertext's message is
// unchanged.
func (ev *Evaluator) SwitchKeys(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	level := ct.Level
	rQ := ev.params.RingQ().AtLevel(level)
	p0, p1 := ev.KeySwitch(level, ct.C1, swk)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: p1, Scale: ct.Scale, Level: level}
	rQ.Add(ct.C0, p0, out.C0)
	return out
}

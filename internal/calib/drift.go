package calib

// Drift: online per-op-kind predicted-vs-measured divergence, built on
// the hierarchical span ledger. Where calib.Run traces hand-picked op
// windows, RunDrift runs a real workload (one full bootstrap plus
// explicit Mult probes) with the recorder, the memtrace tracer and the
// cost ledger all attached, then aggregates every *top-level* op span —
// a kind-mapped span with no kind-mapped ancestor, so a Mult owns its
// nested MulRelin/Rescale children instead of double-counting them —
// into a per-kind table: predicted bytes (the span's pred.bytes ledger
// attribute, summed) vs measured bytes (the span's memtrace window
// [trace.begin, trace.end) replayed through the same cache simulator
// the calibration gate uses).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
)

// DriftConfig selects the drift workload and gates.
type DriftConfig struct {
	LogN       int // ring degree exponent (bootstrap scale: 17 Q-limbs)
	CacheLimbs int // simulated on-chip capacity, in limbs of 8·N bytes
	LineBytes  int // cache line size (0 = memtrace default, 64)
	Ways       int // set associativity (0 = memtrace default, 8)

	// Tolerance gates the calibrated kinds (Mult, Rescale — the same ops
	// the offline calibration gates); WideTolerance gates every other
	// attributed kind.
	Tolerance     float64
	WideTolerance float64

	// MultProbes is the number of explicit top-level Mult ops prepended
	// to the workload: the bootstrap pipeline itself always splits into
	// MulRelin + Rescale, so the composed Mult kind needs its own probes.
	MultProbes int
}

// DefaultDriftConfig is the drift point CI gates on. It matches the
// bootstrap row of the offline calibration (same LogN, limb chain,
// cache geometry) so the two reports are comparable.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		LogN: 10, CacheLimbs: 6, LineBytes: 64, Ways: 8,
		Tolerance: 0.20, WideTolerance: 0.30,
		MultProbes: 3,
	}
}

func (c DriftConfig) geometry() memtrace.Geometry {
	return memtrace.Geometry{
		CapacityBytes: uint64(c.CacheLimbs) * (8 << c.LogN),
		LineBytes:     c.LineBytes,
		Ways:          c.Ways,
	}
}

// DriftKind is one op kind's aggregated predicted-vs-measured row.
type DriftKind struct {
	Kind      string  `json:"kind"`
	Count     int     `json:"count"`      // top-level spans aggregated
	PredBytes uint64  `json:"pred_bytes"` // ledger prediction, summed
	MeasBytes uint64  `json:"meas_bytes"` // cache-sim replay of the spans' windows, summed
	DeltaPct  float64 `json:"delta_pct"`  // (measured − predicted) / predicted · 100
	TolPct    float64 `json:"tol_pct"`    // gate width applied to this kind
	WithinTol bool    `json:"within_tol"`
	// Informational kinds do not gate (known schedule divergence between
	// the functional library and the model, documented in
	// docs/OBSERVABILITY.md); they are still reported.
	Informational bool   `json:"informational"`
	Note          string `json:"note,omitempty"`
	// NTT attribution (informational): the model's limb-transform count
	// vs the kernel counters' count over the same spans.
	PredNTT uint64 `json:"pred_ntt"`
	MeasNTT uint64 `json:"meas_ntt"`
}

// DriftReport is the aggregated result of one drift run.
type DriftReport struct {
	Config     DriftConfig `json:"config"`
	Functional string      `json:"functional"`
	Model      string      `json:"model"`
	Kinds      []DriftKind `json:"kinds"`
	// OpSpans counts the top-level op spans aggregated; SkippedSpans
	// counts kind-mapped top-level spans without a ledger prediction
	// (level outside the model's domain).
	OpSpans      int `json:"op_spans"`
	SkippedSpans int `json:"skipped_spans"`
}

// Gate reports whether every non-informational kind met its tolerance.
func (r *DriftReport) Gate() bool {
	for _, k := range r.Kinds {
		if !k.Informational && !k.WithinTol {
			return false
		}
	}
	return true
}

// WriteTable renders the human-readable drift report.
func (r *DriftReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== Cost-ledger drift: per-op-kind predicted vs measured DRAM traffic ==\n")
	fmt.Fprintf(w, "   functional: %s\n", r.Functional)
	fmt.Fprintf(w, "   model:      %s, cache %d limbs, line %dB, %d-way\n",
		r.Model, r.Config.CacheLimbs, r.Config.LineBytes, r.Config.Ways)
	fmt.Fprintf(w, "   spans:      %d aggregated, %d without prediction\n", r.OpSpans, r.SkippedSpans)
	fmt.Fprintf(w, "%-16s %5s %12s %12s %8s %6s %6s %10s\n",
		"kind", "count", "predicted", "measured", "delta", "tol", "ok", "ntt p/m")
	for _, k := range r.Kinds {
		ok := "PASS"
		if !k.WithinTol {
			ok = "FAIL"
		}
		if k.Informational {
			ok = "info"
		}
		fmt.Fprintf(w, "%-16s %5d %11.2fK %11.2fK %+7.1f%% %5.0f%% %6s %4d/%d\n",
			k.Kind, k.Count,
			float64(k.PredBytes)/1024, float64(k.MeasBytes)/1024,
			k.DeltaPct, k.TolPct, ok, k.PredNTT, k.MeasNTT)
		if k.Note != "" {
			fmt.Fprintf(w, "%-16s   %s\n", "", k.Note)
		}
	}
}

// driftKindOf maps a span name to its ledger kind ("" = not an op span).
func driftKindOf(name string) string {
	kind, ok := strings.CutPrefix(name, "ckks.")
	if !ok {
		return ""
	}
	switch kind {
	case "Mult", "MulRelin", "Square", "Rescale", "KeySwitch",
		"Rotate", "Conjugate", "RotateHoisted", "LinearTransform":
		return kind
	}
	return ""
}

// RunDrift executes the drift workload and aggregates the report.
func RunDrift(cfg DriftConfig) (*DriftReport, error) {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.20
	}
	if cfg.WideTolerance <= 0 {
		cfg.WideTolerance = 0.30
	}

	// Functional setup: the calibration's bootstrap-scale chain with
	// seed-compressed keys and one worker (deterministic traced schedule).
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: cfg.LogN, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		return nil, fmt.Errorf("drift: %w", err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe calibration deterministic")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		return nil, fmt.Errorf("drift: %w", err)
	}
	btp.SetWorkers(1)
	ev := btp.Evaluator()

	model, err := ledger.ForParametersAt(params, cfg.CacheLimbs)
	if err != nil {
		return nil, fmt.Errorf("drift: %w", err)
	}
	ev.SetCostModel(model)

	enc := ckks.NewEncoder(params)
	n := params.Slots()
	mkVec := func(phase float64) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(0.4*float64((i+int(phase*7))%11)/11, 0)
		}
		return v
	}
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	ctA := encryptor.Encrypt(enc.Encode(mkVec(0.3)))
	ctB := encryptor.Encrypt(enc.Encode(mkVec(1.1)))
	ctBoot := ev.DropLevel(ctA, 0)

	// Untraced warm-up settles lazy state (key-vault digit expansion,
	// scratch pools) so the traced windows hold steady-state schedules.
	_ = ev.Mul(ctA, ctB)
	_ = btp.Bootstrap(ctBoot)

	rec := obs.NewRecorder(obs.WithSpanCap(1 << 16))
	ev.SetRecorder(rec)
	tr := memtrace.New()
	btp.SetTracer(tr)

	// The workload proper: explicit Mult probes (the pipeline itself only
	// ever issues MulRelin + Rescale separately), then one full bootstrap.
	for i := 0; i < cfg.MultProbes; i++ {
		_ = ev.Mul(ctA, ctB)
	}
	_ = btp.Bootstrap(ctBoot)

	snap := rec.Snapshot()
	byID := make(map[uint64]obs.SpanRecord, len(snap.Spans))
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
	}
	hasMappedAncestor := func(sp obs.SpanRecord) bool {
		for p := sp.Parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				return false
			}
			if driftKindOf(ps.Name) != "" {
				return true
			}
			p = ps.Parent
		}
		return false
	}

	geo := cfg.geometry()
	agg := map[string]*DriftKind{}
	rep := &DriftReport{
		Config: cfg,
		Functional: fmt.Sprintf("ckks N=2^%d, %d Q-limbs + %d P-limbs, compressed keys, workers=1, bootstrap + %d Mult probes",
			cfg.LogN, len(logQ), params.Alpha(), cfg.MultProbes),
		Model: model.Ctx().P.String(),
	}
	for _, sp := range snap.Spans {
		kind := driftKindOf(sp.Name)
		if kind == "" || hasMappedAncestor(sp) {
			continue
		}
		pred, okP := sp.Attrs["pred.bytes"]
		begin, okB := sp.Attrs["trace.begin"]
		end, okE := sp.Attrs["trace.end"]
		if !okP || !okB || !okE {
			rep.SkippedSpans++
			continue
		}
		t := memtrace.Measure(tr.Slice(int(begin), int(end)), geo, tr.Classify)
		k := agg[kind]
		if k == nil {
			k = &DriftKind{Kind: kind}
			agg[kind] = k
		}
		k.Count++
		k.PredBytes += uint64(pred)
		k.MeasBytes += t.Total()
		k.PredNTT += uint64(sp.Attrs["pred.ntt"])
		k.MeasNTT += sp.Counters["ring.ntt"] + sp.Counters["ring.intt"]
		rep.OpSpans++
	}

	kinds := make([]string, 0, len(agg))
	for kind := range agg {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		k := agg[kind]
		if k.PredBytes > 0 {
			k.DeltaPct = 100 * (float64(k.MeasBytes) - float64(k.PredBytes)) / float64(k.PredBytes)
		}
		k.TolPct = 100 * cfg.WideTolerance
		switch kind {
		case "Mult", "Rescale":
			k.TolPct = 100 * cfg.Tolerance
		case "RotateHoisted", "LinearTransform":
			// Same divergence the offline calibration documents: the
			// functional hoisted schedules are per-diagonal (Fig. 5(c)),
			// materializing every rotation's raised pair and reading its
			// key once per diagonal, while the model's are BSGS with a
			// fused limb-major sweep — byte totals differ although the
			// NTT counts match exactly.
			k.Informational = true
			k.Note = "informational: hoisted schedules differ (functional per-diagonal vs model BSGS); NTT counts agree"
		}
		k.WithinTol = math.Abs(k.DeltaPct) <= k.TolPct
		rep.Kinds = append(rep.Kinds, *k)
	}
	return rep, nil
}

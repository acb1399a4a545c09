package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchdiff"
	"repro/internal/calib"
)

// driftReportJSON is the machine-readable form of `simfhe drift`.
type driftReportJSON struct {
	Meta   benchdiff.Meta     `json:"meta"`
	Pass   bool               `json:"pass"`
	Report *calib.DriftReport `json:"report"`
}

// driftCmd runs the online drift harness: a real workload (Mult probes
// plus one full bootstrap) with the hierarchical span recorder, the
// memtrace tracer and the cost ledger attached, then reports per-op-kind
// predicted-vs-measured DRAM traffic aggregated over the top-level op
// spans. Where `simfhe validate` measures hand-picked op windows, drift
// measures the ops exactly as the evaluator issued them.
func driftCmd(args []string) {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	def := calib.DefaultDriftConfig()
	logN := fs.Int("logn", def.LogN, "ring degree exponent")
	cacheLimbs := fs.Int("cache-limbs", def.CacheLimbs, "simulated on-chip capacity, in limbs of 8*N bytes")
	line := fs.Int("line", def.LineBytes, "cache line size in bytes")
	ways := fs.Int("ways", def.Ways, "cache set associativity")
	tol := fs.Float64("tol", def.Tolerance, "tolerance for the calibrated kinds: Mult, Rescale (0.20 = ±20%)")
	wide := fs.Float64("wide-tol", def.WideTolerance, "tolerance for every other attributed kind")
	probes := fs.Int("mult-probes", def.MultProbes, "explicit top-level Mult ops prepended to the bootstrap workload")
	out := fs.String("out", "", "write the drift report as JSON (- for stdout)")
	jsonOnly := fs.Bool("json", false, "write the JSON report to stdout instead of the table")
	strict := fs.Bool("strict", false, "exit nonzero when any gated kind diverges past its tolerance")
	fs.Parse(args)

	cfg := calib.DriftConfig{
		LogN: *logN, CacheLimbs: *cacheLimbs, LineBytes: *line, Ways: *ways,
		Tolerance: *tol, WideTolerance: *wide,
		MultProbes: *probes,
	}
	rep, err := calib.RunDrift(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drift:", err)
		os.Exit(1)
	}
	pass := rep.Gate()
	payload := driftReportJSON{
		Meta: benchdiff.CollectMeta(fmt.Sprintf("logN=%d cacheLimbs=%d multProbes=%d", cfg.LogN, cfg.CacheLimbs, cfg.MultProbes)),
		Pass: pass, Report: rep,
	}
	if *jsonOnly {
		writeBenchJSON(payload, "-")
	} else {
		rep.WriteTable(os.Stdout)
		if pass {
			fmt.Println("\ndrift: PASS (all gated kinds within tolerance)")
		} else {
			fmt.Println("\ndrift: FAIL (see kinds above; deviations are discussed in docs/OBSERVABILITY.md)")
		}
	}
	if *out != "" {
		writeBenchJSON(payload, *out)
	}
	if *strict && !pass {
		os.Exit(1)
	}
}

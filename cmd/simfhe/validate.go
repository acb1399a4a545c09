package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchdiff"
	"repro/internal/calib"
	"repro/internal/obs"
)

// validateReport is the machine-readable form of `simfhe validate`.
type validateReport struct {
	Meta   benchdiff.Meta `json:"meta"`
	Pass   bool           `json:"pass"`
	Report *calib.Report  `json:"report"`
}

// validateCmd runs the functional evaluator side-by-side with the
// analytic model: it traces real homomorphic ops through the cache
// simulator and compares measured DRAM traffic against the model's
// prediction at the same parameters (internal/calib).
func validateCmd(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	def := calib.DefaultConfig()
	logN := fs.Int("logn", def.LogN, "ring degree exponent")
	limbs := fs.Int("limbs", def.Limbs, "ciphertext limb count (model L)")
	dnum := fs.Int("dnum", def.Dnum, "key-switching digit count")
	cacheLimbs := fs.Int("cache-limbs", def.CacheLimbs, "simulated on-chip capacity, in limbs of 8*N bytes")
	line := fs.Int("line", def.LineBytes, "cache line size in bytes")
	ways := fs.Int("ways", def.Ways, "cache set associativity")
	tol := fs.Float64("tol", def.Tolerance, "relative tolerance for the gating rows (0.20 = ±20%)")
	diags := fs.Int("diags", def.Diags, "plaintext matrix diagonal count")
	rotations := fs.Int("rotations", def.Rotations, "hoisted-rotation fan-out")
	boot := fs.Bool("boot", false, "also trace one full bootstrap, reported per phase (informational)")
	out := fs.String("out", "", "write the calibration report as JSON (- for stdout)")
	metricsOut := fs.String("metrics-out", "", "write measured/modeled byte counters as Prometheus text")
	csvOut := fs.String("csv-out", "", "write measured/modeled byte counters as CSV")
	strict := fs.Bool("strict", false, "exit nonzero when a gating row or toggle fails")
	fs.Parse(args)

	cfg := calib.Config{
		LogN: *logN, Limbs: *limbs, Dnum: *dnum,
		CacheLimbs: *cacheLimbs, LineBytes: *line, Ways: *ways,
		Tolerance: *tol,
		Diags:     *diags, Rotations: *rotations,
		Bootstrap: *boot,
	}
	rep, err := calib.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
	rep.WriteTable(os.Stdout)
	pass := rep.AllWithinTolerance()
	if pass {
		fmt.Println("\nvalidation: PASS (gating rows within tolerance, toggle directions reproduced)")
	} else {
		fmt.Println("\nvalidation: FAIL (see rows above; deviations are discussed in docs/OBSERVABILITY.md)")
	}

	if *out != "" {
		writeBenchJSON(validateReport{
			Meta: benchdiff.CollectMeta(fmt.Sprintf("logN=%d limbs=%d dnum=%d cacheLimbs=%d", cfg.LogN, cfg.Limbs, cfg.Dnum, cfg.CacheLimbs)),
			Pass: pass, Report: rep,
		}, *out)
	}
	counters := rep.Counters()
	if *metricsOut != "" || *csvOut != "" || debugRec != nil {
		snap := obs.Snapshot{Counters: counters}
		write := func(path, what string, fn func() error) {
			if err := fn(); err != nil {
				fmt.Fprintln(os.Stderr, "validate:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "validate:", err)
				os.Exit(1)
			}
			write(*metricsOut, "Prometheus metrics", func() error { return snap.WritePrometheus(f) })
			f.Close()
		}
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "validate:", err)
				os.Exit(1)
			}
			write(*csvOut, "CSV counters", func() error { return snap.WriteCSV(f) })
			f.Close()
		}
		for name, v := range counters {
			debugRec.Add(name, v) // nil-safe no-op without -debug-addr
		}
	}
	if *strict && !pass {
		os.Exit(1)
	}
}

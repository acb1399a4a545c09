package main

// The bench subcommand complements the simulator: where every other
// subcommand reports *modeled* costs, bench measures the functional
// library on real silicon. Each suite writes a bench/v2 report (see
// internal/benchdiff) that `simfhe benchdiff` gates against the
// committed BENCH_<suite>.json baseline.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchdiff"
	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/prng"
)

// benchSuites is the one registry of measured suites: `simfhe bench`
// runs a suite and writes its report, `simfhe benchdiff` runs one
// in-process when no fresh report is given. A suite returns its report
// even when its own acceptance gate fails (the error), so the report is
// written before the nonzero exit. Only the parallel suite reads the
// worker counts.
var benchSuites = map[string]func(workers []int) (*benchdiff.Bench, error){
	"parallel": benchParallelSuite,
	"extend":   func([]int) (*benchdiff.Bench, error) { return benchExtendSuite(), nil },
	"ntt":      func([]int) (*benchdiff.Bench, error) { return benchNTTSuite() },
	"keys":     func([]int) (*benchdiff.Bench, error) { return benchKeysSuite() },
}

// benchSuiteNames lists the registry for usage and error messages.
func benchSuiteNames() string {
	names := make([]string, 0, len(benchSuites))
	for name := range benchSuites {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func parseWorkerList(s string) ([]int, error) {
	if s == "" {
		counts := []int{1, 2, runtime.NumCPU()}
		sort.Ints(counts)
		var out []int
		for _, c := range counts {
			if len(out) == 0 || c > out[len(out)-1] {
				out = append(out, c)
			}
		}
		return out, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad worker count %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workersFlag := fs.String("workers", "", "comma-separated worker counts to sweep (default 1,2,NumCPU)")
	suite := fs.String("suite", "parallel", "benchmark suite: parallel (worker sweep), extend (basis-extension kernels), ntt (fused NTT kernels + traffic replay), keys (key-vault budgets on bootstrap)")
	out := fs.String("out", "", "output JSON file (- for stdout; default BENCH_<suite>.json)")
	fs.Parse(args)
	run, ok := benchSuites[*suite]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown suite %q (want %s)\n", *suite, benchSuiteNames())
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	counts, err := parseWorkerList(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report, gateErr := run(counts)
	writeBenchJSON(report, *out)
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL —", gateErr)
		os.Exit(1)
	}
}

// benchParallelSuite sweeps the evaluator's worker knob across a
// bootstrap-scale workload and a hoisted-rotation workload. The outputs
// at every worker count are bit-identical — the tests assert it — so the
// sweep isolates pure wall-clock effects of limb-level parallelism.
func benchParallelSuite(counts []int) (*benchdiff.Bench, error) {
	report := benchdiff.New(fmt.Sprintf("suite=parallel workers=%v", counts),
		"outputs are bit-identical at every worker count; speedup needs "+
			"num_cpu > 1 — on a single-core host the sweep measures pool overhead only")
	sweep := func(name string, setWorkers func(int), op func()) {
		fmt.Fprintf(os.Stderr, "bench: measuring %s workload ...\n", name)
		var serial float64
		for _, w := range counts {
			setWorkers(w)
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op()
				}
			})
			ns := float64(r.NsPerOp())
			if serial == 0 {
				serial = ns
			}
			prefix := fmt.Sprintf("parallel/%s/w%d/", name, w)
			report.Add(prefix+"ns_per_op", "ns", ns, benchdiff.Lower, benchdiff.Wallclock)
			report.Add(prefix+"speedup", "x", serial/ns, benchdiff.Higher, benchdiff.Wallclock)
			fmt.Fprintf(os.Stderr, "bench: %s workers=%d %d ns/op (%d iters)\n", name, w, r.NsPerOp(), r.N)
		}
	}

	// Bootstrap-scale workload: 17 Q-limbs, the full modRaise → CoeffToSlot
	// → EvalMod → SlotToCoeff pipeline.
	btp, ct := benchBootSetup()
	sweep("bootstrap", btp.SetWorkers, func() { _ = btp.Bootstrap(ct) })

	// Hoisted-rotation workload: 8 rotations sharing one decomposition at
	// N = 2^12 — the CoeffToSlot/SlotToCoeff inner kernel in isolation.
	ev, rct, steps := benchRotateSetup()
	sweep("rotate_hoisted", ev.SetWorkers, func() { _ = ev.RotateHoisted(rct, steps) })
	return report, nil
}

// writeBenchJSON marshals any report to the given path (- for stdout),
// exiting on failure.
func writeBenchJSON(report any, out string) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote benchmark report to %s\n", out)
}

func benchBootSetup() (*bootstrap.Bootstrapper, *ckks.Ciphertext) {
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe bench deterministic seed")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := ckks.NewEncoder(params)
	ct := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(make([]complex128, params.Slots())))
	ct = btp.Evaluator().DropLevel(ct, 0)
	return btp, ct
}

func benchRotateSetup() (*ckks.Evaluator, *ckks.Ciphertext, []int) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     12,
		LogQ:     []int{50, 40, 40, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe bench deterministic seed")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	gks := kg.GenRotationKeys(steps, sk, false)
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Galois: gks})
	enc := ckks.NewEncoder(params)
	ct := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(make([]complex128, params.Slots())))
	return ev, ct, steps
}

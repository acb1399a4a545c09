// Command perfbench is the repository's end-to-end benchmark: one command
// that runs the FHE stack on three workloads (boot, helr, fhed-mix),
// checks every output, and prints its metrics as one JSON object on the
// last line of standard output. See README.md for the workloads, the
// metric catalogue and how to read the traced output.
//
//	bash perfbench/run.sh --workload boot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics of a traced run of the
// same workload. It must run from the repository root, where it reads
// BENCHMARK.json to check that it reports exactly the declared metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig carries the command-line arguments into a workload.
type runConfig struct {
	seed     uint64
	duration time.Duration
	trace    bool
}

var workloads = map[string]func(runConfig) (*result, error){
	"boot":     runBoot,
	"helr":     runHELR,
	"fhed-mix": runFhedMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: boot, helr or fhed-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "measured duration of the run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	want, err := declaredMetrics("BENCHMARK.json", *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	})
	if err == nil {
		err = matchDeclared(res.Metrics, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// declaredMetrics reads the metric names and units the benchmark
// definition lists for the end-to-end (traced=false) or per-layer
// (traced=true) run.
func declaredMetrics(path string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// matchDeclared fails unless got holds exactly the declared metrics, each
// in its declared unit.
func matchDeclared(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// printTable writes a human-readable copy of the result to stderr.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

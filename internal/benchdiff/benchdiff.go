// Package benchdiff defines the one report format every benchmark suite
// in the repository writes (simfhe bench -suite parallel|extend|ntt|keys
// and fhed -load), and the perf-trajectory gate that compares a fresh
// report against a committed baseline (the BENCH_*.json files).
//
// A report is a list of records plus one shared run meta. Each record
// says which direction is better and whether its value is deterministic
// (a byte count, an op count, an allocation count: it repeats exactly
// run to run on one host) or wall clock (it does not). The gate holds
// deterministic records to ±DeterministicTolerance in either direction —
// a changed count means the code changed what it does, so the baseline
// must be refreshed on purpose — and lets wall-clock records worsen by
// up to a caller-chosen threshold, because shared hosts are noisy.
//
// Records present on only one side are informational, never a gate
// failure: a record only in the fresh run ("new", e.g. the first build
// that measures a just-added metric) and one only in the baseline
// ("gone") are counted and listed but cannot fail. Only the combination
// of zero comparable records AND zero new records fails: that means the
// comparison was vacuous, not informational.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Schema identifies the report format.
const Schema = "bench/v2"

// DeterministicTolerance is the fractional change a deterministic record
// may show, in either direction, before the gate fails.
const DeterministicTolerance = 0.01

// Better says which direction of a record's value is an improvement.
type Better string

const (
	Lower  Better = "lower"
	Higher Better = "higher"
)

// Kind says how a record's value behaves across runs on one host.
type Kind string

const (
	// Deterministic values repeat exactly on back-to-back runs.
	Deterministic Kind = "deterministic"
	// Wallclock values carry host noise.
	Wallclock Kind = "wallclock"
)

// Record is one measured value.
type Record struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Better Better  `json:"better"`
	Kind   Kind    `json:"kind"`
}

// Meta is the provenance every report carries: which code produced the
// numbers, on what CPU, with how much parallelism. Every field is
// best-effort — a missing git binary or a non-Linux /proc leaves the
// field empty rather than failing the run.
type Meta struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Params     string `json:"params,omitempty"`
}

// CollectMeta gathers the runtime environment; params describes the
// workload configuration of the run (free-form, report-specific).
func CollectMeta(params string) Meta {
	return Meta{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Params:     params,
	}
}

// gitSHA returns the short commit hash of the working tree, or "" when
// git (or a repository) is unavailable.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo (Linux);
// other platforms report "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// Bench is one suite's report: the on-disk BENCH_*.json format.
type Bench struct {
	Schema  string   `json:"schema"`
	Meta    Meta     `json:"meta"`
	Note    string   `json:"note,omitempty"`
	Records []Record `json:"records"`
}

// New starts a report stamped with the current run's meta.
func New(params, note string) *Bench {
	return &Bench{Schema: Schema, Meta: CollectMeta(params), Note: note}
}

// Add appends one record.
func (b *Bench) Add(metric, unit string, value float64, better Better, kind Kind) {
	b.Records = append(b.Records, Record{Metric: metric, Unit: unit, Value: value, Better: better, Kind: kind})
}

// Metrics validates the report and indexes its records by metric name.
// A report with no records is an error: comparing it would vacuously pass.
func (b *Bench) Metrics() (map[string]Record, error) {
	if b.Schema != Schema {
		return nil, fmt.Errorf("benchdiff: schema %q, want %q", b.Schema, Schema)
	}
	if len(b.Records) == 0 {
		return nil, fmt.Errorf("benchdiff: report has no records")
	}
	out := make(map[string]Record, len(b.Records))
	for _, r := range b.Records {
		switch {
		case r.Metric == "":
			return nil, fmt.Errorf("benchdiff: record without a metric name")
		case r.Better != Lower && r.Better != Higher:
			return nil, fmt.Errorf("benchdiff: %s: better %q, want %q or %q", r.Metric, r.Better, Lower, Higher)
		case r.Kind != Deterministic && r.Kind != Wallclock:
			return nil, fmt.Errorf("benchdiff: %s: kind %q, want %q or %q", r.Metric, r.Kind, Deterministic, Wallclock)
		case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
			return nil, fmt.Errorf("benchdiff: %s: non-finite value", r.Metric)
		}
		if _, dup := out[r.Metric]; dup {
			return nil, fmt.Errorf("benchdiff: duplicate metric %s", r.Metric)
		}
		out[r.Metric] = r
	}
	return out, nil
}

// Flatten decodes a report and indexes its records by metric name.
func Flatten(data []byte) (map[string]Record, error) {
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	return b.Metrics()
}

// FlattenFile reads and flattens a report from disk.
func FlattenFile(path string) (map[string]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	m, err := Flatten(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return m, nil
}

// Delta is the comparison result for one metric.
type Delta struct {
	Name    string
	Unit    string
	Kind    Kind
	Base    float64 // baseline value (0 when the metric is new)
	Current float64 // fresh value (0 when the metric is gone)
	// Verdict is "ok", "FAIL" (worse past its gate), "DRIFT" (a
	// deterministic record improved past the tolerance: the baseline is
	// stale), "better" (a wall-clock record improved past the
	// threshold), "new" or "gone". FAIL and DRIFT fail the gate.
	Verdict string
}

// Failed reports whether the delta fails the gate.
func (d Delta) Failed() bool { return d.Verdict == "FAIL" || d.Verdict == "DRIFT" }

// Report is a full comparison: every metric from either side, sorted by
// name, plus the roll-up.
type Report struct {
	Threshold float64 // wall-clock slowdown allowed, e.g. 0.25 = 25% worse
	Deltas    []Delta
	Failed    int // metrics that failed their gate
	Compared  int // metrics present on both sides
	New       int // metrics only in the fresh run (informational)
	Gone      int // metrics only in the baseline (informational)
}

// Compare diffs a fresh measurement against a baseline. The baseline's
// record decides unit, direction and kind. A deterministic record fails
// when it moves more than DeterministicTolerance either way; a wall-clock
// record fails when it is worse than the baseline by more than a factor
// 1+threshold (current > base·(1+threshold) for lower-is-better,
// current·(1+threshold) < base for higher-is-better). Metrics on only
// one side are listed, counted as New or Gone, and never gate.
func Compare(base, current map[string]Record, threshold float64) Report {
	rep := Report{Threshold: threshold}
	names := make([]string, 0, len(base)+len(current))
	for k := range base {
		names = append(names, k)
	}
	for k := range current {
		if _, ok := base[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		b, inBase := base[k]
		c, inCur := current[k]
		d := Delta{Name: k, Base: b.Value, Current: c.Value}
		switch {
		case inBase && inCur:
			d.Unit, d.Kind = b.Unit, b.Kind
			d.Verdict = verdict(b, c.Value, threshold)
			rep.Compared++
			if d.Failed() {
				rep.Failed++
			}
		case inCur:
			d.Unit, d.Kind, d.Verdict = c.Unit, c.Kind, "new"
			rep.New++
		default:
			d.Unit, d.Kind, d.Verdict = b.Unit, b.Kind, "gone"
			rep.Gone++
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

// verdict judges one fresh value against its baseline record.
func verdict(base Record, cur, threshold float64) string {
	// Orient the pair so that hi > lo means the fresh value is worse.
	lo, hi := base.Value, cur
	if base.Better == Higher {
		lo, hi = cur, base.Value
	}
	if base.Kind == Deterministic {
		switch {
		case math.Abs(cur-base.Value) <= DeterministicTolerance*math.Abs(base.Value):
			return "ok"
		case hi > lo:
			return "FAIL"
		default:
			return "DRIFT"
		}
	}
	switch {
	case hi > lo*(1+threshold):
		return "FAIL"
	case lo > hi*(1+threshold):
		return "better"
	default:
		return "ok"
	}
}

// OK reports whether the comparison passes the gate: no metric failed,
// and the run was not vacuous. A fresh run whose metrics are all new
// (the first build that measures a just-added suite against an older
// baseline) passes — one-sided metrics are informational — but a run
// that produced neither comparable nor new metrics fails: an empty or
// wrong report must not slip through as a pass.
func (r Report) OK() bool { return r.Failed == 0 && (r.Compared > 0 || r.New > 0) }

// Render writes the human-readable delta table.
func (r Report) Render(w io.Writer) error {
	width := len("metric")
	for _, d := range r.Deltas {
		width = max(width, len(d.Name)+len(d.Unit)+3)
	}
	if _, err := fmt.Fprintf(w, "%-*s %-13s %14s %14s %8s  %s\n", width, "metric", "kind", "base", "current", "ratio", "verdict"); err != nil {
		return err
	}
	for _, d := range r.Deltas {
		ratio := "-"
		if d.Base != 0 && d.Verdict != "new" && d.Verdict != "gone" {
			ratio = fmt.Sprintf("%.3f", d.Current/d.Base)
		}
		if _, err := fmt.Fprintf(w, "%-*s %-13s %14.10g %14.10g %8s  %s\n", width, d.Name+" ("+d.Unit+")", d.Kind, d.Base, d.Current, ratio, d.Verdict); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "compared %d metrics, %d failed, %d new, %d gone (deterministic ±%.0f%%, wallclock +%.0f%%)\n",
		r.Compared, r.Failed, r.New, r.Gone, DeterministicTolerance*100, r.Threshold*100)
	return err
}

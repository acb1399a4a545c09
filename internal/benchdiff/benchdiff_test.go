package benchdiff

import (
	"encoding/json"
	"strings"
	"testing"
)

// report builds a bench/v2 report from records, as a suite would write it.
func report(t *testing.T, recs ...Record) []byte {
	t.Helper()
	data, err := json.Marshal(Bench{Schema: Schema, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func metrics(t *testing.T, recs ...Record) map[string]Record {
	t.Helper()
	m, err := Flatten(report(t, recs...))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wall(metric string, v float64) Record {
	return Record{Metric: metric, Unit: "ns", Value: v, Better: Lower, Kind: Wallclock}
}

func det(metric string, v float64) Record {
	return Record{Metric: metric, Unit: "bytes", Value: v, Better: Lower, Kind: Deterministic}
}

var syntheticExtend = []Record{
	wall("extend/kernel/modup_digit_3to18/lazy_ns", 1000000),
	wall("extend/kernel/moddown_3to18/lazy_ns", 800000),
	wall("extend/pipeline/modup_digit/ns_per_op", 5000000),
	{Metric: "extend/pipeline/modup_digit/allocs_per_op", Unit: "allocs", Value: 0, Better: Lower, Kind: Deterministic},
}

var syntheticNTT = []Record{
	wall("ntt/ntt_n8192/fused_ns", 110000),
	det("ntt/ntt_traffic_n8192/blocked_bytes", 262144),
}

// checkBaseline asserts that a committed baseline decodes and carries
// the given records with their committed values and classification.
func checkBaseline(t *testing.T, suite string, want ...Record) {
	t.Helper()
	m, err := FlattenFile("../../BENCH_" + suite + ".json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if got, ok := m[w.Metric]; !ok {
			t.Errorf("%s: no record %s", suite, w.Metric)
		} else if got != w {
			t.Errorf("%s: record %+v, want %+v", suite, got, w)
		}
	}
}

func TestFlattenExtend(t *testing.T) {
	checkBaseline(t, "extend",
		wall("extend/kernel/modup_digit_3to18/lazy_ns", 2240157),
		Record{Metric: "extend/pipeline/moddown/allocs_per_op", Unit: "allocs", Value: 0, Better: Lower, Kind: Deterministic},
	)
}

func TestFlattenNTT(t *testing.T) {
	checkBaseline(t, "ntt",
		wall("ntt/ntt_n8192/fused_ns", 124752),
		det("ntt/ntt_traffic_n8192/reference_bytes", 1835008),
		det("ntt/ntt_traffic_n8192/blocked_bytes", 262144),
		Record{Metric: "ntt/intt_traffic_n8192/traffic_speedup", Unit: "x", Value: 7, Better: Higher, Kind: Deterministic},
	)
}

func TestFlattenParallel(t *testing.T) {
	checkBaseline(t, "parallel",
		wall("parallel/bootstrap/w1/ns_per_op", 501231219),
		wall("parallel/bootstrap/w2/ns_per_op", 443019502),
	)
}

func TestFlattenKeys(t *testing.T) {
	checkBaseline(t, "keys",
		wall("keys/vault_constrained/ns_per_op", 375633496),
		det("keys/vault_constrained/resident_key_bytes", 86029440),
		det("keys/baseline_expanded/key_read_bytes", 68321280),
		Record{Metric: "keys/vault_constrained/vault_evictions", Unit: "count", Value: 1192, Better: Lower, Kind: Deterministic},
		Record{Metric: "keys/key_traffic_reduction_x", Unit: "x", Value: 2, Better: Higher, Kind: Deterministic},
	)
}

func TestFlattenFhed(t *testing.T) {
	checkBaseline(t, "fhed",
		Record{Metric: "fhed/rotate/p50_us", Unit: "us", Value: 139707, Better: Lower, Kind: Wallclock},
		Record{Metric: "fhed/max_sustained_rps", Unit: "1/s", Value: 38, Better: Higher, Kind: Wallclock},
		Record{Metric: "fhed/chaos/missed", Unit: "count", Value: 0, Better: Lower, Kind: Deterministic},
	)
}

func TestFlattenCommittedBaselines(t *testing.T) {
	// Every committed baseline at the repo root must decode: CI compares
	// fresh runs against them.
	for _, suite := range []string{"extend", "parallel", "ntt", "keys", "fhed"} {
		if _, err := FlattenFile("../../BENCH_" + suite + ".json"); err != nil {
			t.Errorf("%s: %v", suite, err)
		}
	}
}

func TestFlattenRejectsUnrecognized(t *testing.T) {
	bad := []string{
		`{}`,
		`{"note":"hi"}`,
		`not json`,
		// A pre-v2 per-suite report.
		`{"kernels":[{"name":"ntt_n8192","ns_fused":110000}]}`,
		`{"schema":"bench/v2","records":[]}`,
		`{"schema":"bench/v2","records":[{"metric":"a","value":1,"better":"lower"}]}`,
		`{"schema":"bench/v2","records":[{"metric":"a","value":1,"better":"up","kind":"wallclock"}]}`,
		`{"schema":"bench/v2","records":[{"value":1,"better":"lower","kind":"wallclock"}]}`,
		`{"schema":"bench/v2","records":[` +
			`{"metric":"a","value":1,"better":"lower","kind":"wallclock"},` +
			`{"metric":"a","value":2,"better":"lower","kind":"wallclock"}]}`,
	}
	for _, b := range bad {
		if _, err := Flatten([]byte(b)); err == nil {
			t.Errorf("Flatten(%s) accepted an invalid report", b)
		}
	}
}

// TestDetectsInjectedRegression injects one change into a fresh run and
// checks which records the gate fails at which threshold.
func TestDetectsInjectedRegression(t *testing.T) {
	rps := Record{Metric: "fhed/max_sustained_rps", Unit: "1/s", Value: 40, Better: Higher, Kind: Wallclock}
	traffic := det("ntt/ntt_traffic_n8192/blocked_bytes", 262144)
	speedup := Record{Metric: "ntt/ntt_traffic_n8192/traffic_speedup", Unit: "x", Value: 7, Better: Higher, Kind: Deterministic}
	cases := []struct {
		name      string
		base      Record
		factor    float64 // current = base·factor
		threshold float64
		wantFail  bool
	}{
		{"wallclock 25% slower at 20%", wall("extend/kernel/k/lazy_ns", 1000000), 1.25, 0.20, true},
		{"wallclock 25% slower at 30%", wall("extend/kernel/k/lazy_ns", 1000000), 1.25, 0.30, false},
		{"deterministic traffic 2x at 3.0", traffic, 2, 3.0, true},
		{"deterministic traffic +0.5%", traffic, 1.005, 0, false},
		{"deterministic traffic halved is drift", traffic, 0.5, 3.0, true},
		{"deterministic higher-better drop", speedup, 0.9, 3.0, true},
		{"deterministic zero allocs become one", det("extend/pipeline/p/allocs_per_op", 0), 0, 3.0, true},
		{"rps drop past threshold", rps, 1 / 4.5, 3.0, true},
		{"rps drop within threshold", rps, 1 / 3.5, 3.0, false},
		{"rps rise", rps, 3, 0.05, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			other := wall("extend/table_key_ns", 40)
			cur := c.base
			cur.Value *= c.factor
			if c.base.Value == 0 { // a zero base cannot be scaled: the fresh run reads 1
				cur.Value = 1
			}
			rep := Compare(metrics(t, c.base, other), metrics(t, cur, other), c.threshold)
			if rep.OK() == c.wantFail {
				t.Fatalf("OK() = %v, want %v", rep.OK(), !c.wantFail)
			}
			for _, d := range rep.Deltas {
				if d.Failed() && d.Name != c.base.Metric {
					t.Errorf("clean metric %s failed", d.Name)
				}
			}
		})
	}
}

func TestIdenticalReportsPass(t *testing.T) {
	base := metrics(t, syntheticExtend...)
	rep := Compare(base, metrics(t, syntheticExtend...), 0.0)
	if !rep.OK() {
		t.Fatal("identical reports failed a zero threshold")
	}
	if rep.Compared != len(syntheticExtend) {
		t.Fatalf("compared = %d, want %d", rep.Compared, len(syntheticExtend))
	}
}

func TestOneSidedMetricsNeverGate(t *testing.T) {
	base := metrics(t, wall("kernel/a", 100))
	cur := metrics(t, wall("kernel/a", 100), wall("kernel/b", 999999), det("kernel/c", 5))
	if rep := Compare(base, cur, 0.1); !rep.OK() {
		t.Fatal("new metric gated the comparison")
	}
	// A fresh run with zero metrics is vacuous — that must still fail,
	// regardless of what the baseline held.
	if rep := Compare(base, map[string]Record{}, 0.1); rep.OK() {
		t.Fatal("an empty fresh report must not vacuously pass")
	}
}

// TestNewMetricDoesNotGate is the regression test for the first-build
// failure mode: a fresh run that carries a whole new suite against a
// baseline that predates it must pass, with the new metrics counted as
// informational — even when no metric overlaps at all.
func TestNewMetricDoesNotGate(t *testing.T) {
	rep := Compare(metrics(t, syntheticExtend...), metrics(t, syntheticNTT...), 0.1)
	if !rep.OK() {
		t.Fatal("fresh run with only new metrics failed the gate")
	}
	if rep.Compared != 0 || rep.New != 2 || rep.Failed != 0 {
		t.Fatalf("compared=%d new=%d failed=%d, want 0/2/0", rep.Compared, rep.New, rep.Failed)
	}
}

// TestRemovedMetricDoesNotGate covers the mirror case: a metric present
// only in the committed baseline (a kernel dropped from the suite) is
// reported as gone but does not fail the gate.
func TestRemovedMetricDoesNotGate(t *testing.T) {
	base := metrics(t, wall("kernel/a", 100), det("kernel/retired", 500))
	rep := Compare(base, metrics(t, wall("kernel/a", 100)), 0.1)
	if !rep.OK() {
		t.Fatal("removed metric gated the comparison")
	}
	if rep.Gone != 1 || rep.Compared != 1 {
		t.Fatalf("gone=%d compared=%d, want 1/1", rep.Gone, rep.Compared)
	}
}

func TestImprovementNeverGates(t *testing.T) {
	rps := Record{Metric: "fhed/max_sustained_rps", Unit: "1/s", Value: 40, Better: Higher, Kind: Wallclock}
	faster := rps
	faster.Value = 400
	base := metrics(t, wall("kernel/a", 1000), rps)
	cur := metrics(t, wall("kernel/a", 100), faster)
	if rep := Compare(base, cur, 0.05); !rep.OK() {
		t.Fatal("a 10x wall-clock improvement failed the gate")
	}
}

func TestRenderMarksVerdicts(t *testing.T) {
	base := metrics(t, wall("kernel/slow", 100), wall("kernel/fast", 100), wall("kernel/gone", 5), det("traffic/drift", 100))
	cur := metrics(t, wall("kernel/slow", 200), wall("kernel/fast", 10), wall("kernel/new", 7), det("traffic/drift", 50))
	rep := Compare(base, cur, 0.25)
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FAIL", "DRIFT", "better", "new", "gone", "2 failed", "deterministic"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

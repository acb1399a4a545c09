package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/prng"
)

// deriveSeed expands the workload seed into the 32-byte seed of one
// labelled input stream, so every stream (keys, messages, arrivals) is a
// pure function of the --seed argument.
func deriveSeed(seed uint64, label string) [prng.SeedSize]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	return sha256.Sum256(append(b[:], label...))
}

// newRand returns a seeded generator for one labelled input stream.
func newRand(seed uint64, label string) *rand.Rand {
	s := deriveSeed(seed, label)
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(s[:8]), binary.LittleEndian.Uint64(s[8:16])))
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// worstError is the largest slot-wise distance between got and want; a
// length mismatch or a non-finite slot counts as an infinite error.
func worstError(got, want []complex128) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		d := cmplx.Abs(got[i] - want[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = max(worst, d)
	}
	return worst
}

// tally counts the outcomes of a run: every attempted operation, every
// failure (errors, refusals, timeouts and wrong answers alike), and the
// worst slot error over all checked outputs.
type tally struct {
	attempted int
	failed    int
	wrong     int
	checked   int
	worst     float64
}

// check compares one output against its expected slots: an error above
// tol is a wrong answer. It reports whether the output passed.
func (t *tally) check(got, want []complex128, tol float64) bool {
	e := worstError(got, want)
	t.checked++
	t.worst = max(t.worst, e)
	if e <= tol {
		return true
	}
	t.wrong++
	return false
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.checked += o.checked
	t.worst = max(t.worst, o.worst)
}

// precisionBits is −log2 of the worst slot error over every checked
// output (0 when nothing was checked or an output was unusable).
func (t *tally) precisionBits() float64 {
	if t.checked == 0 || math.IsInf(t.worst, 1) {
		return 0
	}
	if t.worst == 0 {
		return 64
	}
	return -math.Log2(t.worst)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: VmHWM not found in /proc/self/status")
}

// rtSample is a point-in-time reading of the Go runtime's allocation and
// GC accounting.
type rtSample struct {
	mallocs, allocBytes, pauseNs uint64
	gcCPU, totalCPU              float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	return rtSample{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		pauseNs:    m.PauseTotalNs,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// rtDelta accumulates runtime deltas over the units of a phase.
type rtDelta struct {
	units                        int
	mallocs, allocBytes, pauseNs uint64
	gcCPU, totalCPU              float64
}

func (d *rtDelta) add(from, to rtSample, units int) {
	d.units += units
	d.mallocs += to.mallocs - from.mallocs
	d.allocBytes += to.allocBytes - from.allocBytes
	d.pauseNs += to.pauseNs - from.pauseNs
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
}

// report adds the runtime.* per-layer metrics, per unit of work.
func (d *rtDelta) report(m map[string]metric) {
	u := float64(d.units)
	m["runtime.allocs_per_op"] = metric{ratio(float64(d.mallocs), u), "count"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(float64(d.allocBytes), u), "bytes"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(d.gcCPU, d.totalCPU), "ratio"}
	m["runtime.gc_pause_ms"] = metric{ratio(float64(d.pauseNs)/1e6, u), "ms"}
}

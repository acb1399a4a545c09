package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/memtrace"
	"repro/internal/obs"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median. The last build is the one measured.
const setupRepeats = 5

// closedLoop is a workload in which one caller runs units back to back:
// boot (one bootstrap per unit) and helr (one gradient step per unit).
type closedLoop interface {
	// unit makes the next seeded input, runs the measured work inside
	// exactly one p.timed call, and checks the output into p.t. It
	// reports whether the output was correct.
	unit(p *phase) bool
	// setRecorder attaches (or with nil detaches) the traced recorder.
	setRecorder(rec *obs.Recorder)
	// setTracer attaches (or with nil detaches) a memory tracer and
	// returns log2 of the ring degree, which sizes the replayed cache.
	setTracer(tr *memtrace.Tracer) (logN int)
	// residentKeyBytes is the key vault's resident expanded-key memory.
	residentKeyBytes() int64
}

// phase collects one measured stretch of a closed-loop workload.
type phase struct {
	rec    *obs.Recorder // non-nil in the traced phase
	rt     *rtDelta      // non-nil: sample runtime stats around each unit
	tr     *memtrace.Tracer
	trFrom int // memtrace window of the last timed unit
	trTo   int
	lat    []float64 // ms per timed unit
	t      tally
}

// timed runs f as the measured part of one unit.
func (p *phase) timed(f func()) {
	var before rtSample
	if p.rt != nil {
		before = readRuntime()
	}
	p.trFrom = p.tr.Len()
	sp := p.rec.StartOp(unitSpan)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	p.trTo = p.tr.Len()
	if p.rt != nil {
		p.rt.add(before, readRuntime(), 1)
	}
	p.lat = append(p.lat, ms(d))
}

// span runs f inside a benchmark span named name; untraced it just runs f.
func (p *phase) span(name string, f func()) {
	sp := p.rec.StartOp(name)
	f()
	sp.End()
}

// attempt runs one unit, counting a panic or a wrong answer as a failure.
func (p *phase) attempt(w closedLoop) {
	p.t.attempted++
	defer func() {
		if r := recover(); r != nil {
			p.t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: unit failed: %v\n", r)
		}
	}()
	if !w.unit(p) {
		p.t.failed++
	}
}

// run repeats units until d has elapsed and returns the elapsed time.
// Traced, it folds each unit's spans into l and resets the recorder.
func (p *phase) run(w closedLoop, d time.Duration, l *layers) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		p.attempt(w)
		if p.rec != nil {
			l.drain(p.rec, 1)
		}
	}
	return time.Since(start)
}

// setUp builds a workload setupRepeats times, each build followed by one
// warm-up unit so that lazy first-use work (key expansion, pools) counts
// as set-up, and returns the last build with the median set-up time.
func setUp[W closedLoop](build func() (W, error)) (W, float64, error) {
	var w W
	var times []float64
	for range setupRepeats {
		w = *new(W)  // drop the previous build,
		runtime.GC() // so that it is freed before the next is timed
		t0 := time.Now()
		var err error
		if w, err = build(); err != nil {
			return w, 0, err
		}
		warm := &phase{}
		if warm.attempt(w); warm.t.failed > 0 {
			return w, 0, fmt.Errorf("warm-up unit failed")
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// runClosedLoop is the whole run of a closed-loop workload.
func runClosedLoop[W closedLoop](cfg runConfig, build func() (W, error)) (*result, error) {
	w, setupS, err := setUp(build)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	var t tally
	runtime.GC() // start measuring from a collected heap, as every set-up did
	if !cfg.trace {
		p := &phase{}
		elapsed := p.run(w, cfg.duration, nil)
		t = p.t
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m["setup_s"] = metric{setupS, "s"}
		m["latency_p50_ms"] = metric{median(p.lat), "ms"}
		m["throughput_rps"] = metric{float64(len(p.lat)) / elapsed.Seconds(), "1/s"}
		m["success_ratio"] = metric{ratio(float64(t.attempted-t.failed), float64(t.attempted)), "ratio"}
		m["precision_bits"] = metric{t.precisionBits(), "bits"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}

	// Traced run: the untraced run again (the overhead baseline, the tail
	// latency, and the runtime counters, which the recorder's own
	// allocations would inflate), half as long traced, then one
	// memory-traced unit.
	plain := &phase{rt: &rtDelta{}}
	plain.run(w, cfg.duration, nil)
	rec := obs.NewRecorder(obs.WithSpanCap(spanCap))
	l := newLayers()
	traced := &phase{rec: rec}
	w.setRecorder(rec)
	traced.run(w, cfg.duration/2, l)
	w.setRecorder(nil)
	mt := &phase{tr: memtrace.New()}
	logN := w.setTracer(mt.tr)
	mt.attempt(w)
	w.setTracer(nil)
	for _, q := range []*phase{plain, traced, mt} {
		t.merge(q.t)
	}

	var unitTime time.Duration
	for _, lat := range traced.lat {
		unitTime += time.Duration(lat * float64(time.Millisecond))
	}
	l.report(m, unitTime)
	plain.rt.report(m)
	reportMemtrace(m, mt, logN)
	m["ckks.keyvault.resident_bytes"] = metric{float64(w.residentKeyBytes()), "bytes"}
	m["latency_p85_ms"] = metric{percentile(plain.lat, 0.85), "ms"}
	m["trace.overhead_ratio"] = metric{ratio(median(traced.lat), median(plain.lat)), "ratio"}
	m["loadgen.sent"] = metric{float64(traced.t.attempted), "count"}
	m["loadgen.completed"] = metric{float64(len(traced.lat)), "count"}
	notExercised(m, "ms", "loadgen.lag_p99_ms", "loadgen.latency_p50_ms", "loadgen.latency_p99_ms", "server.admission_wait_p50_ms", "server.admission_wait_p99_ms",
		"server.handler_ms", "client.rotate_ms", "client.rotate_guarded_ms", "client.mul_ms",
		"client.add_ms", "client.encrypt_ms", "client.decrypt_ms")
	notExercised(m, "count", "server.queue_depth_max")
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// notExercised reports layers a workload never enters as 0.
func notExercised(m map[string]metric, unit string, names ...string) {
	for _, n := range names {
		m[n] = metric{0, unit}
	}
}

// reportMemtrace replays the memory-traced unit through the cache
// simulator at the drift gate's geometry (6 limbs of 8·N bytes, 64-byte
// lines, 8 ways) and reports its DRAM traffic.
func reportMemtrace(m map[string]metric, p *phase, logN int) {
	geo := memtrace.Geometry{CapacityBytes: 6 * (8 << logN), LineBytes: 64, Ways: 8}
	tr := memtrace.Measure(p.tr.Slice(p.trFrom, p.trTo), geo, p.tr.Classify)
	class := func(c memtrace.Class) float64 { return float64(tr.ReadBytes[c] + tr.WriteBytes[c]) }
	m["memtrace.dram_bytes"] = metric{float64(tr.Total()), "bytes"}
	m["memtrace.dram_key_bytes"] = metric{class(memtrace.ClassKey), "bytes"}
	m["memtrace.dram_ct_bytes"] = metric{class(memtrace.ClassCt), "bytes"}
}

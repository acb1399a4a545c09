package main

// The ntt suite measures the cache-blocked fused NTT/INTT kernel rewrite
// against the retained golden oracle, in the two currencies this repo
// tracks:
//
//   - wall-clock ns/op on the host CPU (testing.Benchmark), fused vs
//     reference, at the bootstrap-scale ring degree the extend suite uses
//     (N = 2^13) plus a single-tile size;
//   - measured DRAM traffic: the fused kernel's recorded access stream
//     and the reference schedule's access stream (one read+write sweep
//     per butterfly stage plus the epilogue sweep — exactly what the
//     retained oracle performs) are both replayed through the memtrace
//     cache simulator at a scratchpad-sized capacity, and the ratio of
//     measured bytes is reported.
//
// The traffic ratio is the suite's acceptance gate (≥ 1.5×): the paper's
// §4 accounting is in bytes moved, and on hosts whose last-level cache
// dwarfs a limb the memory-schedule win is invisible in wall-clock time
// (see docs/PERF.md) while remaining real for any memory-bound target.
// Wall-clock speedups are reported alongside, honestly, as measured.
// Results land in BENCH_ntt.json; benchdiff holds the replayed bytes and
// allocation counts to ±1% (deterministic records) and the ns/op
// trajectory loosely (wall-clock records).

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/benchdiff"
	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/prng"
	"repro/internal/ring"
)

// nttTrafficGate is the acceptance bar on the measured traffic ratio at
// the blocked (bootstrap-scale) size.
const nttTrafficGate = 1.5

// nttBenchRing builds a single-modulus ring at the given size with a
// 61-bit NTT prime (the modulus cap the kernels' lazy bound is tightest
// against).
func nttBenchRing(n int) *ring.Ring {
	logN := 0
	for 1<<logN < n {
		logN++
	}
	primes, err := mathutil.GenerateNTTPrimes(61, logN, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r, err := ring.NewRing(n, primes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return r
}

// referenceNTTSchedule records the access stream of the retained oracle:
// one full read+write sweep of the limb per butterfly stage (log2 N
// stages) plus the separate exact-reduction epilogue sweep. This is the
// schedule NTTReference/INTTReference perform by construction; recording
// it symbolically keeps the oracles themselves hook-free.
func referenceNTTSchedule(tr *memtrace.Tracer, p []uint64) {
	logN := 0
	for 1<<logN < len(p) {
		logN++
	}
	for stage := 0; stage < logN; stage++ {
		tr.Read(p)
		tr.Write(p)
	}
	tr.Read(p) // epilogue: exact-reduction (or N^{-1}) sweep
	tr.Write(p)
}

func benchNTTSuite() (*benchdiff.Bench, error) {
	const logN = 13
	sizes := []int{ring.NTTTile, 4 * ring.NTTTile} // single-phase and blocked
	// Replay capacity: a 32 KiB scratchpad slice — twice a 16 KiB tile,
	// half the 64 KiB blocked-size limb. The reference's per-stage full
	// sweeps thrash it (every stage re-misses the whole limb) while the
	// blocked kernel's per-phase tiles fit; the single-tile size doubles
	// as the control, where the limb itself fits and both schedules are
	// cache-resident after the compulsory pass.
	geo := memtrace.Geometry{CapacityBytes: 32 << 10}

	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe bench deterministic seed")
	src := prng.NewSource(seed)

	report := benchdiff.New(fmt.Sprintf("suite=ntt logN=%d tile=%d cache_bytes=%d", logN, ring.NTTTile, geo.CapacityBytes),
		"fused = cache-blocked fused-butterfly kernel; reference = retained "+
			"oracle (bit-identical outputs, enforced by tests). traffic_speedup is "+
			"measured DRAM bytes via memtrace cache replay at cache_bytes capacity — "+
			"the gated metric; wall_speedup is host wall clock, compute-bound when "+
			"the host cache holds the working set (see docs/PERF.md)")
	var gateErr error

	for _, n := range sizes {
		r := nttBenchRing(n)
		s := r.SubRings[0]
		p := r.NewPoly()
		r.SampleUniform(src, p)
		passes := ring.NTTPasses(n)

		for _, dir := range []string{"ntt", "intt"} {
			fused := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if dir == "ntt" {
						s.NTT(p.Coeffs[0])
					} else {
						s.INTT(p.Coeffs[0])
					}
				}
			})
			ref := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if dir == "ntt" {
						s.NTTReference(p.Coeffs[0])
					} else {
						s.INTTReference(p.Coeffs[0])
					}
				}
			})
			name := fmt.Sprintf("%s_n%d", dir, n)
			prefix := "ntt/" + name + "/"
			wall := float64(ref.NsPerOp()) / float64(fused.NsPerOp())
			report.Add(prefix+"fused_ns", "ns", float64(fused.NsPerOp()), benchdiff.Lower, benchdiff.Wallclock)
			report.Add(prefix+"reference_ns", "ns", float64(ref.NsPerOp()), benchdiff.Lower, benchdiff.Wallclock)
			report.Add(prefix+"wall_speedup", "x", wall, benchdiff.Higher, benchdiff.Wallclock)
			report.Add(prefix+"fused_allocs_per_op", "allocs", float64(fused.AllocsPerOp()), benchdiff.Lower, benchdiff.Deterministic)
			fmt.Fprintf(os.Stderr, "bench: %s fused=%d ns/op reference=%d ns/op (%.2fx wall, %d allocs/op)\n",
				name, fused.NsPerOp(), ref.NsPerOp(), wall, fused.AllocsPerOp())
			// The fused kernels must be allocation-free.
			if a := fused.AllocsPerOp(); a != 0 && gateErr == nil {
				gateErr = fmt.Errorf("%s allocates %d objects/op, want 0", name, a)
			}
		}

		// Traffic replay: trace the fused kernel's real access stream and
		// the reference schedule, measure both at the same capacity.
		for _, dir := range []string{"ntt", "intt"} {
			blockedTr := memtrace.New()
			r.SetTracer(blockedTr)
			if dir == "ntt" {
				s.NTT(p.Coeffs[0])
			} else {
				s.INTT(p.Coeffs[0])
			}
			r.SetTracer(nil)
			refTr := memtrace.New()
			referenceNTTSchedule(refTr, p.Coeffs[0])

			blocked := memtrace.Measure(blockedTr.Events(), geo, nil).Total()
			refBytes := memtrace.Measure(refTr.Events(), geo, nil).Total()
			name := fmt.Sprintf("%s_traffic_n%d", dir, n)
			prefix := "ntt/" + name + "/"
			speedup := float64(refBytes) / float64(blocked)
			report.Add(prefix+"reference_bytes", "bytes", float64(refBytes), benchdiff.Lower, benchdiff.Deterministic)
			report.Add(prefix+"blocked_bytes", "bytes", float64(blocked), benchdiff.Lower, benchdiff.Deterministic)
			report.Add(prefix+"traffic_speedup", "x", speedup, benchdiff.Higher, benchdiff.Deterministic)
			fmt.Fprintf(os.Stderr, "bench: %s reference=%d B blocked=%d B (%.2fx traffic)\n",
				name, refBytes, blocked, speedup)
			// Acceptance gate: at the blocked (two-pass) size the blocked
			// schedule must move ≥ 1.5× fewer bytes than the reference.
			if passes > 1 && speedup < nttTrafficGate && gateErr == nil {
				gateErr = fmt.Errorf("%s traffic speedup %.2fx below the %.1fx gate", name, speedup, nttTrafficGate)
			}
		}
	}
	return report, gateErr
}

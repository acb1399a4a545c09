package main

// The extend suite measures the basis-extension kernel rewrite in
// isolation: the tiled lazy Extend against the retained scalar oracle at
// the basis-pair shapes key switching exercises, plus the full ModUp /
// ModDown pipelines whose steady state must be allocation-free. Results
// land in BENCH_extend.json so the acceptance numbers (≥ 2× over the
// reference kernel, 0 allocs/op) are recorded alongside the code. The
// pipelines' allocated bytes per op are not recorded: at 0 allocs/op
// they only count sync.Pool refills after the benchmark's own GCs,
// amortized over however many iterations ran.

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/benchdiff"
	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/rns"
)

// benchExtendBases mirrors the layout of the package benchmarks: an
// 18-limb Q chain and a 3-limb P basis of 40-bit NTT primes at N = 2^13.
func benchExtendBases() (q, p []uint64) {
	primes, err := mathutil.GenerateNTTPrimes(40, 13, 21)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return primes[:18], primes[18:]
}

func benchExtendInput(src *prng.Source, tab *rns.ExtTable, n int) (in, out [][]uint64) {
	in = make([][]uint64, len(tab.In))
	for i, q := range tab.In {
		in[i] = make([]uint64, n)
		src.UniformSlice(in[i], q)
	}
	out = make([][]uint64, len(tab.Out))
	for j := range out {
		out[j] = make([]uint64, n)
	}
	return in, out
}

func benchExtendSuite() *benchdiff.Bench {
	const logN = 13
	const n = 1 << logN
	qMod, pMod := benchExtendBases()
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe bench deterministic seed")
	src := prng.NewSource(seed)

	report := benchdiff.New(fmt.Sprintf("suite=extend logN=%d tile=%d", logN, rns.ExtendTile),
		"lazy = tiled 128-bit-accumulating Extend; reference = retained "+
			"scalar oracle (bit-identical outputs, enforced by tests)")

	shapes := []struct {
		name    string
		in, out []uint64
	}{
		{"modup_digit_3to18", qMod[:3], append(append([]uint64(nil), qMod[3:]...), pMod...)},
		{"moddown_3to18", pMod, qMod},
		{"wide_18to3", qMod, pMod},
	}
	for _, sh := range shapes {
		tab := rns.NewExtTable(sh.in, sh.out)
		in, out := benchExtendInput(src, tab, n)
		lazy := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab.Extend(in, out)
			}
		})
		ref := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.ExtendReference(in, out)
			}
		})
		prefix := "extend/kernel/" + sh.name + "/"
		report.Add(prefix+"lazy_ns", "ns", float64(lazy.NsPerOp()), benchdiff.Lower, benchdiff.Wallclock)
		report.Add(prefix+"reference_ns", "ns", float64(ref.NsPerOp()), benchdiff.Lower, benchdiff.Wallclock)
		report.Add(prefix+"speedup", "x", float64(ref.NsPerOp())/float64(lazy.NsPerOp()), benchdiff.Higher, benchdiff.Wallclock)
		report.Add(prefix+"lazy_allocs_per_op", "allocs", float64(lazy.AllocsPerOp()), benchdiff.Lower, benchdiff.Deterministic)
		fmt.Fprintf(os.Stderr, "bench: extend %s lazy=%d ns/op reference=%d ns/op (%.2fx)\n",
			sh.name, lazy.NsPerOp(), ref.NsPerOp(), float64(ref.NsPerOp())/float64(lazy.NsPerOp()))
	}

	// Full pipelines at workers=1: iNTT → extend → NTT. The steady state
	// must report 0 allocs/op — pooled scratch, pooled views, cached tables.
	ringQ, err := ring.NewRing(n, qMod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ringP, err := ring.NewRing(n, pMod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	conv := rns.NewConverter(ringQ, ringP)
	levelQ := ringQ.MaxLevel()
	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	aQ.IsNTT = true
	up := conv.NewPolyQP(levelQ)
	conv.ModUpDigit(levelQ, 0, 3, aQ, up, 1) // warm tables and pools
	modUp := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conv.ModUpDigit(levelQ, 0, 3, aQ, up, 1)
		}
	})
	down := ringQ.NewPoly()
	conv.ModDown(levelQ, up, down, 1)
	modDown := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conv.ModDown(levelQ, up, down, 1)
		}
	})
	for _, pr := range []struct {
		name string
		r    testing.BenchmarkResult
	}{{"modup_digit", modUp}, {"moddown", modDown}} {
		prefix := "extend/pipeline/" + pr.name + "/"
		report.Add(prefix+"ns_per_op", "ns", float64(pr.r.NsPerOp()), benchdiff.Lower, benchdiff.Wallclock)
		report.Add(prefix+"allocs_per_op", "allocs", float64(pr.r.AllocsPerOp()), benchdiff.Lower, benchdiff.Deterministic)
		fmt.Fprintf(os.Stderr, "bench: %s %d ns/op %d allocs/op\n",
			pr.name, pr.r.NsPerOp(), pr.r.AllocsPerOp())
	}

	// Table-cache hit path: the structural key must keep lookups in the
	// tens of nanoseconds (the old fmt.Sprint key cost ~1 µs per hit).
	keyBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if conv.Table(pMod, qMod) == nil {
				b.Fatal("nil table")
			}
		}
	})
	keyNs := float64(keyBench.T.Nanoseconds()) / float64(keyBench.N)
	report.Add("extend/table_key_ns", "ns", keyNs, benchdiff.Lower, benchdiff.Wallclock)
	fmt.Fprintf(os.Stderr, "bench: table_key %.1f ns/op\n", keyNs)
	return report
}

package rns

import (
	"fmt"
	"sync"

	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/ring"
)

// PolyQP is a polynomial over the raised basis Q ∪ P: the Q part carries
// the ciphertext-modulus limbs, the P part the special (raised) limbs that
// exist only inside key switching. Both parts share one NTT flag
// discipline: the helpers below keep them in the same representation.
type PolyQP struct {
	Q *ring.Poly
	P *ring.Poly
}

// CopyNew returns a deep copy.
func (p PolyQP) CopyNew() PolyQP {
	return PolyQP{Q: p.Q.CopyNew(), P: p.P.CopyNew()}
}

// Converter owns the basis-extension tables between a ciphertext modulus
// chain Q = q_0·…·q_L and the special modulus P = p_0·…·p_{k-1}, and
// implements the RNS subroutines of the paper's Algorithms 1, 2 and 5.
//
// All conversion methods take a trailing worker count (≤ 0 meaning
// GOMAXPROCS, 1 meaning serial) and produce bit-identical results for
// every worker count: the parallel split is over independent limbs
// (NTT/iNTT, per-q_i correction) or independent coefficient ranges
// (NewLimb), never over an order-sensitive reduction. A Converter is safe
// for concurrent use.
type Converter struct {
	RingQ *ring.Ring
	RingP *ring.Ring

	mu     sync.RWMutex
	tables map[tableKey]*ExtTable

	qpPool sync.Pool // scratch PolyQP at the full chain size
	upPool sync.Pool // *modUpScratch: ModUpDigit output-view headers

	// Per-limb constants of ModDown, Rescale and PModUp, computed once at
	// construction: pMod[i] = P mod q_i, pInv[i] = P⁻¹ mod q_i, and
	// qlInv[ℓ][i] = q_ℓ⁻¹ mod q_i for i < ℓ.
	pMod, pInv []shoupConst
	qlInv      [][]shoupConst

	// rec, when non-nil, receives the counters "rns.extend" (basis
	// extensions performed), "rns.extend.coeffs" (coefficients
	// converted), "rns.extend.bytes" (kernel read+write traffic),
	// and "rns.pool.get" / "rns.pool.miss" (raised-scratch occupancy).
	// A nil recorder costs one nil check per conversion.
	rec *obs.Recorder

	// tr, when non-nil, records the limb-granular memory access stream of
	// every conversion for cache replay (internal/memtrace). Tracing
	// serializes the basis-extension kernel; a nil tracer costs one nil
	// check per hook.
	tr *memtrace.Tracer
}

// shoupConst is a constant multiplicand w < q with its Shoup
// precomputation, for mathutil.MulModShoup.
type shoupConst struct{ w, ws uint64 }

func newShoupConst(w, q uint64) shoupConst {
	return shoupConst{w: w, ws: mathutil.ShoupPrecomp(w, q)}
}

// NewConverter builds a Converter for the given modulus chains. RingP may
// have any number of limbs ≥ 1.
func NewConverter(ringQ, ringP *ring.Ring) *Converter {
	c := &Converter{RingQ: ringQ, RingP: ringP, tables: make(map[tableKey]*ExtTable)}
	qs := ringQ.Moduli
	c.pMod = make([]shoupConst, len(qs))
	c.pInv = make([]shoupConst, len(qs))
	c.qlInv = make([][]shoupConst, len(qs))
	for i, qi := range qs {
		pm := ProductMod(ringP.Moduli, qi)
		c.pMod[i] = newShoupConst(pm, qi)
		if pm != 0 { // P shares a prime with Q only in Rescale-only converters
			c.pInv[i] = newShoupConst(mathutil.InvMod(pm, qi), qi)
		}
		c.qlInv[i] = make([]shoupConst, i)
		for k := 0; k < i; k++ {
			c.qlInv[i][k] = newShoupConst(mathutil.InvMod(qi%qs[k], qs[k]), qs[k])
		}
	}
	c.qpPool.New = func() any {
		c.rec.Add("rns.pool.miss", 1)
		p := c.NewPolyQP(ringQ.MaxLevel())
		return &p
	}
	c.upPool.New = func() any { return &modUpScratch{} }
	return c
}

// SetRecorder attaches an observability recorder (nil detaches it). Not
// safe to call concurrently with conversions.
func (c *Converter) SetRecorder(r *obs.Recorder) { c.rec = r }

// SetTracer attaches a memory access tracer (nil detaches it). Not safe
// to call concurrently with conversions.
func (c *Converter) SetTracer(t *memtrace.Tracer) { c.tr = t }

// NewPolyQP allocates a zero raised polynomial at the given Q level.
func (c *Converter) NewPolyQP(levelQ int) PolyQP {
	return PolyQP{
		Q: c.RingQ.AtLevel(levelQ).NewPoly(),
		P: c.RingP.NewPoly(),
	}
}

// GetPolyQP returns a pooled raised polynomial resized to the given Q
// level. Contents are stale; overwrite before reading. Pair with
// PutPolyQP.
func (c *Converter) GetPolyQP(levelQ int) PolyQP {
	c.rec.Add("rns.pool.get", 1)
	p := c.qpPool.Get().(*PolyQP)
	p.Q.Resize(levelQ + 1)
	return *p
}

// PutPolyQP returns a polynomial obtained from GetPolyQP to the pool.
func (c *Converter) PutPolyQP(p PolyQP) {
	p.Q.Resize(c.RingQ.MaxLevel() + 1)
	c.qpPool.Put(&p)
}

// tableKey is the structural cache key for extension tables. The old key
// was fmt.Sprint(in, "->", out) — a multi-hundred-byte allocation and
// format pass on every conversion. The structural key is a comparable
// value built in one cheap pass: limb counts, the first and last modulus
// of each basis, and the full sums of both bases. Two distinct bases can
// only collide if they agree on length, endpoints and total sum
// simultaneously; since every basis handled by one Converter is a
// sub-sequence of its two fixed disjoint prime chains, first modulus plus
// length already pins the basis down, and the sums are a safety margin.
type tableKey struct {
	lenIn, lenOut     int
	firstIn, lastIn   uint64
	firstOut, lastOut uint64
	sumIn, sumOut     uint64
}

func makeTableKey(in, out []uint64) tableKey {
	k := tableKey{lenIn: len(in), lenOut: len(out)}
	if len(in) > 0 {
		k.firstIn, k.lastIn = in[0], in[len(in)-1]
	}
	if len(out) > 0 {
		k.firstOut, k.lastOut = out[0], out[len(out)-1]
	}
	for _, q := range in {
		k.sumIn += q
	}
	for _, q := range out {
		k.sumOut += q
	}
	return k
}

// table returns (caching) the extension table from the moduli selected by
// in to those selected by out. Safe under concurrent conversions. The hit
// path performs no allocation.
func (c *Converter) table(in, out []uint64) *ExtTable {
	key := makeTableKey(in, out)
	c.mu.RLock()
	t, ok := c.tables[key]
	c.mu.RUnlock()
	if ok {
		return t
	}
	t = NewExtTable(in, out)
	c.mu.Lock()
	if prev, ok := c.tables[key]; ok {
		t = prev
	} else {
		c.tables[key] = t
	}
	c.mu.Unlock()
	return t
}

// Table exposes the cached-table lookup for benchmarks and diagnostics
// (the simfhe bench extend suite pins the hit-path cost with it).
func (c *Converter) Table(in, out []uint64) *ExtTable { return c.table(in, out) }

// extendViews recycles the per-chunk slice headers of extendParallel so
// steady-state parallel conversions stop allocating in the hot loop. The
// headers alias caller coefficient arrays, so they are dropped on release.
type extendViews struct {
	src, dst [][]uint64
}

var viewPool = sync.Pool{New: func() any { return &extendViews{} }}

func getViews(nSrc, nDst int) *extendViews {
	v := viewPool.Get().(*extendViews)
	if cap(v.src) < nSrc {
		v.src = make([][]uint64, nSrc)
	}
	if cap(v.dst) < nDst {
		v.dst = make([][]uint64, nDst)
	}
	v.src, v.dst = v.src[:nSrc], v.dst[:nDst]
	return v
}

func putViews(v *extendViews) {
	clear(v.src)
	clear(v.dst)
	viewPool.Put(v)
}

// extend runs t.Extend over disjoint coefficient ranges in parallel and
// feeds the converter's extension counters. NewLimb is purely slot-wise
// (Eq. (1) touches all limbs of one coefficient and nothing else), so
// splitting the coefficient axis changes nothing about the arithmetic and
// the result is bit-identical to a single serial Extend. The kernel's
// internal tiling composes with any chunk boundaries: tiles restart at
// each chunk's origin, and no arithmetic crosses coefficients.
func (c *Converter) extend(t *ExtTable, src, dst [][]uint64, n, workers int, srcClass, dstClass memtrace.Class) {
	c.rec.Add("rns.extend", 1)
	c.rec.Add("rns.extend.coeffs", uint64(n))
	// Compulsory traffic of one conversion: read every source limb once,
	// write every destination limb once, 8 bytes per coefficient — the
	// figure the cost model's Extend term predicts (§4, Table 3).
	c.rec.Add("rns.extend.bytes", 8*uint64(n)*uint64(len(src)+len(dst)))
	if c.tr != nil {
		t.ExtendTraced(src, dst, c.tr, srcClass, dstClass)
		return
	}
	extendParallel(t, src, dst, n, workers)
}

// extendParallel is the uncounted core of Converter.extend, shared with
// the rns benchmarks. The serial path never builds chunk views (the
// dispatch closure would be heap-allocated just by existing — see
// ring.EffectiveWorkers); the parallel path draws pooled view headers per
// chunk so steady-state conversions allocate nothing either way.
func extendParallel(t *ExtTable, src, dst [][]uint64, n, workers int) {
	if ring.EffectiveWorkers(n, workers) == 1 {
		t.Extend(src, dst)
		return
	}
	ring.ParallelChunked(n, workers, func(_, start, end int) {
		v := getViews(len(src), len(dst))
		for i := range src {
			v.src[i] = src[i][start:end]
		}
		for j := range dst {
			v.dst[j] = dst[j][start:end]
		}
		t.Extend(v.src, v.dst)
		putViews(v)
	})
}

// modUpScratch recycles the output-view headers ModUpDigit rebuilds per
// call (moduli, coefficient slices, sub-rings for every generated limb).
// Only the coefficient-slice headers alias caller memory; they are cleared
// on release. Capacity grows to the largest raised basis and sticks.
type modUpScratch struct {
	moduli []uint64
	slices [][]uint64
	rings  []*ring.SubRing
}

func (c *Converter) getModUpScratch() *modUpScratch {
	s := c.upPool.Get().(*modUpScratch)
	s.moduli = s.moduli[:0]
	s.slices = s.slices[:0]
	s.rings = s.rings[:0]
	return s
}

func (c *Converter) putModUpScratch(s *modUpScratch) {
	clear(s.slices)
	c.upPool.Put(s)
}

// ModUpDigit implements the ModUp of Algorithm 1 for one key-switching
// digit: the digit comprises limbs [start, end) of aQ (NTT form, level
// levelQ). The result is the digit's value extended to the full raised
// basis Q ∪ P, in NTT form. Limbs inside [start, end) are copied verbatim
// (Algorithm 1 line 4: no NTT needed on the input limbs); limbs outside
// are produced by iNTT → NewLimb → NTT.
func (c *Converter) ModUpDigit(levelQ, start, end int, aQ *ring.Poly, out PolyQP, workers int) {
	if !aQ.IsNTT {
		panic("rns: ModUpDigit input domain (got=coefficient form, want=NTT)")
	}
	if start < 0 || end <= start || end > levelQ+1 {
		panic(fmt.Sprintf("rns: ModUpDigit digit range (got=[%d,%d), want within level %d)", start, end, levelQ))
	}
	sp := c.rec.StartLinked("rns.ModUpDigit")
	defer sp.End()
	n := c.RingQ.N
	digitModuli := c.RingQ.Moduli[start:end]

	// iNTT the digit limbs into scratch (Algorithm 1 line 1, limb-wise).
	scr := c.RingQ.GetScratch()
	defer c.RingQ.PutScratch(scr)
	coeff := scr.Coeffs[:end-start]
	if ring.EffectiveWorkers(end-start, workers) == 1 {
		for k := 0; k < end-start; k++ {
			c.tr.Read(aQ.Coeffs[start+k][:n])
			copy(coeff[k][:n], aQ.Coeffs[start+k][:n])
			c.tr.WriteClass(coeff[k][:n], memtrace.ClassScratch)
			c.RingQ.SubRings[start+k].INTT(coeff[k])
		}
	} else {
		ring.Parallel(end-start, workers, func(k int) {
			c.tr.Read(aQ.Coeffs[start+k][:n])
			copy(coeff[k][:n], aQ.Coeffs[start+k][:n])
			c.tr.WriteClass(coeff[k][:n], memtrace.ClassScratch)
			c.RingQ.SubRings[start+k].INTT(coeff[k])
		})
	}

	// Output moduli: Q limbs outside the digit, then all P limbs. The view
	// headers come from the converter's pool so steady-state ModUp performs
	// no allocation.
	sc := c.getModUpScratch()
	defer c.putModUpScratch(sc)
	for i := 0; i <= levelQ; i++ {
		if i >= start && i < end {
			continue
		}
		sc.moduli = append(sc.moduli, c.RingQ.Moduli[i])
		sc.slices = append(sc.slices, out.Q.Coeffs[i][:n])
		sc.rings = append(sc.rings, c.RingQ.SubRings[i])
	}
	for j := range c.RingP.Moduli {
		sc.moduli = append(sc.moduli, c.RingP.Moduli[j])
		sc.slices = append(sc.slices, out.P.Coeffs[j][:n])
		sc.rings = append(sc.rings, c.RingP.SubRings[j])
	}

	// NewLimb (Algorithm 1 line 2, slot-wise → coefficient-chunked).
	c.extend(c.table(digitModuli, sc.moduli), coeff, sc.slices, n, workers,
		memtrace.ClassScratch, memtrace.ClassCt)

	// NTT the generated limbs (Algorithm 1 line 3, limb-wise) and copy the
	// untouched digit limbs.
	outRings, outSlices := sc.rings, sc.slices
	if ring.EffectiveWorkers(len(outSlices), workers) == 1 {
		for k := range outSlices {
			outRings[k].NTT(outSlices[k])
		}
	} else {
		ring.Parallel(len(outSlices), workers, func(k int) {
			outRings[k].NTT(outSlices[k])
		})
	}
	for i := start; i < end; i++ {
		c.tr.Read(aQ.Coeffs[i][:n])
		copy(out.Q.Coeffs[i][:n], aQ.Coeffs[i][:n])
		c.tr.Write(out.Q.Coeffs[i][:n])
	}
	out.Q.IsNTT = true
	out.P.IsNTT = true
}

// ModDown implements Algorithm 2: given a raised polynomial over Q ∪ P in
// NTT form, it returns (approximately) P^{-1}·x over Q in NTT form,
// dropping the P limbs. The division is a flooring division by P of the
// representative in [0, PQ); the sub-integer error this introduces is the
// standard key-switching rounding noise.
func (c *Converter) ModDown(levelQ int, a PolyQP, out *ring.Poly, workers int) {
	if !a.Q.IsNTT || !a.P.IsNTT {
		panic("rns: ModDown input domain (got=coefficient form, want=NTT)")
	}
	sp := c.rec.StartLinked("rns.ModDown")
	defer sp.End()
	n := c.RingQ.N
	kP := len(c.RingP.Moduli)

	// iNTT the P limbs (Algorithm 2 line 1 restricted to B′; the Q limbs
	// can stay in evaluation form because the correction limb we build for
	// each q_i is transformed forward instead).
	scrP := c.RingP.GetScratch()
	defer c.RingP.PutScratch(scrP)
	pCoeff := scrP.Coeffs[:kP]
	if ring.EffectiveWorkers(kP, workers) == 1 {
		for j := 0; j < kP; j++ {
			c.tr.Read(a.P.Coeffs[j][:n])
			copy(pCoeff[j][:n], a.P.Coeffs[j][:n])
			c.tr.WriteClass(pCoeff[j][:n], memtrace.ClassScratch)
			c.RingP.SubRings[j].INTT(pCoeff[j])
		}
	} else {
		ring.Parallel(kP, workers, func(j int) {
			c.tr.Read(a.P.Coeffs[j][:n])
			copy(pCoeff[j][:n], a.P.Coeffs[j][:n])
			c.tr.WriteClass(pCoeff[j][:n], memtrace.ClassScratch)
			c.RingP.SubRings[j].INTT(pCoeff[j])
		})
	}

	// NewLimb from basis P into each q_i (Algorithm 2 line 3, slot-wise).
	// The scratch pool is shared across levels, so the full ring's pool
	// serves here without materializing an AtLevel view.
	qModuli := c.RingQ.Moduli[:levelQ+1]
	scrQ := c.RingQ.GetScratch()
	defer c.RingQ.PutScratch(scrQ)
	hat := scrQ.Coeffs[:levelQ+1]
	c.extend(c.table(c.RingP.Moduli, qModuli), pCoeff, hat, n, workers,
		memtrace.ClassScratch, memtrace.ClassScratch)

	// (x − x̂)·P^{-1} per limb (Algorithm 2 line 4), staying in NTT form by
	// transforming the correction limb forward (line 5 folded in).
	if ring.EffectiveWorkers(levelQ+1, workers) == 1 {
		for i := 0; i <= levelQ; i++ {
			c.modDownLimb(a, out, hat, n, i)
		}
	} else {
		ring.Parallel(levelQ+1, workers, func(i int) {
			c.modDownLimb(a, out, hat, n, i)
		})
	}
	out.Coeffs = out.Coeffs[:levelQ+1]
	out.IsNTT = true
}

// modDownLimb is the per-q_i tail of ModDown: forward-NTT the correction
// limb and apply (x − x̂)·P^{-1}. A named function so the serial path can
// call it without constructing a dispatch closure.
func (c *Converter) modDownLimb(a PolyQP, out *ring.Poly, hat [][]uint64, n, i int) {
	s := c.RingQ.SubRings[i]
	s.NTT(hat[i])
	pInv := c.pInv[i]
	ai, oi := a.Q.Coeffs[i], out.Coeffs[i]
	hi := hat[i]
	c.tr.Read(ai[:n])
	for j := 0; j < n; j++ {
		oi[j] = mathutil.MulModShoup(mathutil.SubMod(ai[j], hi[j], s.Q), pInv.w, pInv.ws, s.Q)
	}
	c.tr.Write(oi[:n])
}

// Rescale divides a level-levelQ polynomial (NTT form) by its top limb
// modulus q_ℓ with rounding, producing a level-(levelQ−1) polynomial in
// NTT form in out. This is the Rescale of Table 2: the ModDown
// specialization with B′ = {q_ℓ}.
func (c *Converter) Rescale(levelQ int, a *ring.Poly, out *ring.Poly, workers int) {
	if !a.IsNTT {
		panic("rns: Rescale input domain (got=coefficient form, want=NTT)")
	}
	if levelQ < 1 {
		panic(fmt.Sprintf("rns: Rescale level (got=%d, want>=1)", levelQ))
	}
	sp := c.rec.StartLinked("rns.Rescale")
	defer sp.End()
	n := c.RingQ.N
	ql := c.RingQ.Moduli[levelQ]
	half := ql >> 1

	// Bring the dropped limb to coefficient form and pre-add q_ℓ/2 so the
	// flooring division below rounds to nearest.
	scr := c.RingQ.GetScratch()
	defer c.RingQ.PutScratch(scr)
	last := scr.Coeffs[levelQ][:n]
	c.tr.Read(a.Coeffs[levelQ][:n])
	copy(last, a.Coeffs[levelQ][:n])
	c.tr.WriteClass(last, memtrace.ClassScratch)
	c.RingQ.SubRings[levelQ].INTT(last)
	for j := 0; j < n; j++ {
		last[j] += half
		if last[j] >= ql {
			last[j] -= ql
		}
	}

	if ring.EffectiveWorkers(levelQ, workers) == 1 {
		for i := 0; i < levelQ; i++ {
			c.rescaleLimb(a, out, scr, last, levelQ, n, i)
		}
	} else {
		ring.Parallel(levelQ, workers, func(i int) {
			c.rescaleLimb(a, out, scr, last, levelQ, n, i)
		})
	}
	c.tr.Discard(last)
	out.Coeffs = out.Coeffs[:levelQ]
	out.IsNTT = true
}

// rescaleLimb is the per-q_i body of Rescale, named so the serial path
// avoids a dispatch closure.
func (c *Converter) rescaleLimb(a, out, scr *ring.Poly, last []uint64, levelQ, n, i int) {
	s := c.RingQ.SubRings[i]
	qlInv := c.qlInv[levelQ][i]
	halfMod := (c.RingQ.Moduli[levelQ] >> 1) % s.Q

	// b = (last' − q_ℓ/2) mod q_i, transformed forward.
	b := scr.Coeffs[i][:n]
	for j := 0; j < n; j++ {
		b[j] = mathutil.SubMod(s.Barrett.Reduce(last[j]), halfMod, s.Q)
	}
	c.tr.WriteClass(b, memtrace.ClassScratch)
	s.NTT(b)

	ai, oi := a.Coeffs[i], out.Coeffs[i]
	c.tr.Read(ai[:n])
	for j := 0; j < n; j++ {
		oi[j] = mathutil.MulModShoup(mathutil.SubMod(ai[j], b[j], s.Q), qlInv.w, qlInv.ws, s.Q)
	}
	c.tr.Write(oi[:n])
	// The correction limb is dead after the combine — the model's
	// RescalePoly generates and transforms it entirely in cache, so its
	// eventual eviction must not count as DRAM write traffic.
	c.tr.Discard(b)
}

// PModUp implements Algorithm 5: it lifts b ∈ R_Q to P·b ∈ R_{PQ} with
// only one scalar multiplication per coefficient and zero P limbs — no
// basis conversion and no NTTs. This is the cheap lift that lets linear
// functions run in the raised basis (the paper's §3.2).
func (c *Converter) PModUp(levelQ int, a *ring.Poly, out PolyQP, workers int) {
	n := c.RingQ.N
	if ring.EffectiveWorkers(levelQ+1, workers) == 1 {
		for i := 0; i <= levelQ; i++ {
			c.pModUpLimb(a, out, n, i)
		}
	} else {
		ring.Parallel(levelQ+1, workers, func(i int) {
			c.pModUpLimb(a, out, n, i)
		})
	}
	for j := range c.RingP.Moduli {
		clear(out.P.Coeffs[j][:n])
		c.tr.Write(out.P.Coeffs[j][:n])
	}
	out.Q.IsNTT = a.IsNTT
	out.P.IsNTT = a.IsNTT
}

// pModUpLimb is the per-q_i body of PModUp, named so the serial path
// avoids a dispatch closure.
func (c *Converter) pModUpLimb(a *ring.Poly, out PolyQP, n, i int) {
	q, pMod := c.RingQ.Moduli[i], c.pMod[i]
	ai, oi := a.Coeffs[i], out.Q.Coeffs[i]
	c.tr.Read(ai[:n])
	for j := 0; j < n; j++ {
		oi[j] = mathutil.MulModShoup(ai[j], pMod.w, pMod.ws, q)
	}
	c.tr.Write(oi[:n])
}

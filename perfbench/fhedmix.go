package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

const (
	// fhedConns is the number of client connections, and so of requests
	// in flight: the host's two CPUs.
	fhedConns = 2
	// fhedRate is the open-loop arrival rate, in requests per second:
	// about a third of the closed-loop capacity of the unmodified stack on
	// the 2-vCPU reference host, which measured 145–210 req/s as the
	// host's speed drifted. At half capacity (75 req/s) queueing doubled
	// every drift of the host into the latencies. It stays fixed so that
	// runs compare.
	fhedRate = 50
	// fhedSeedCts is the number of seed ciphertexts per tenant that
	// requests draw their operands from.
	fhedSeedCts = 4
	// fhedTightBudget is the tight tenant's key budget: about a third of
	// its ~3.7 MB working set (11 keys × 3 digits × 112 KiB), so its
	// vault evicts and rematerializes.
	fhedTightBudget = 1 << 20
	// fhedSampleRate is the share of rotate, mul, add and encrypt outputs
	// checked through the decrypt endpoint after the timed phases.
	fhedSampleRate = 0.04
	// fhedTol bounds the worst-slot error of any checked output.
	fhedTol = 1e-4
	// fhedOpenShare and fhedClosedShare split the run between the
	// open-loop phase and the closed-loop phase. The end-to-end latency
	// and throughput come from the closed loop: on the 2-vCPU reference
	// host the hypervisor pauses a vCPU for tens of milliseconds at a
	// time, which the open loop's 10 ms requests (and the requests queued
	// behind them) felt so strongly that its median spread 0.27 between
	// runs, against 0.05 for the closed loop. The open loop's latencies
	// are per-layer metrics.
	fhedOpenShare   = 0.6
	fhedClosedShare = 0.3
	// fhedWindows cuts each load phase into equal windows. A phase's
	// latency percentiles and throughput are medians over its windows, so
	// a burst of host interference shorter than a third of the phase
	// does not move them.
	fhedWindows = 6
)

// reqKind is one request type of the mix.
type reqKind int

const (
	kRotate reqKind = iota
	kRotateGuarded
	kMul
	kAdd
	kEncrypt
	kDecrypt
	numKinds
)

var (
	kindNames   = [numKinds]string{"rotate", "rotate_guarded", "mul", "add", "encrypt", "decrypt"}
	kindWeights = [numKinds]float64{0.40, 0.05, 0.20, 0.15, 0.10, 0.10}
	tenantNames = [2]string{"open", "tight"}
)

// job is one generated request: its kind, operands and, in the open
// loop, when it is due.
type job struct {
	at     time.Duration // due time from the phase start (open loop)
	kind   reqKind
	tenant int
	a, b   int  // seed ciphertext indices
	step   int  // rotation step, a power of two
	sample bool // check the output through the decrypt endpoint later
}

// jobGen draws the seeded request sequence; jobs come out in the same
// order whichever connection takes them.
type jobGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	slots int
	t     time.Duration
}

func (g *jobGen) next() job {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.t += time.Duration(g.rng.ExpFloat64() / fhedRate * float64(time.Second))
	j := job{at: g.t, tenant: g.rng.IntN(2), a: g.rng.IntN(fhedSeedCts), b: g.rng.IntN(fhedSeedCts)}
	u := g.rng.Float64()
	for j.kind = 0; j.kind < numKinds-1 && u >= kindWeights[j.kind]; j.kind++ {
		u -= kindWeights[j.kind]
	}
	j.step = 1 << g.rng.IntN(bits.Len(uint(g.slots))-1)
	j.sample = g.rng.Float64() < fhedSampleRate
	return j
}

// tenant is one fhed tenant as the client sees it: its seed ciphertexts
// and the plaintext slots they encrypt.
type tenant struct {
	name string
	cts  []string
	vals [][]float64
}

// fhedEnv is a running in-process fhed server with its two tenants.
type fhedEnv struct {
	srv     *server.Server
	served  chan error
	base    string
	client  *http.Client
	slots   int
	tenants [2]*tenant
}

// startFhed starts a server on 127.0.0.1:0 (rec nil: the server's own
// recorder), creates the open and tight tenants, encrypts their seed
// ciphertexts through the encrypt endpoint, and warms their key vaults.
func startFhed(seed uint64, rec *obs.Recorder) (*fhedEnv, error) {
	// Chaos is on only because guarded rotates require it; no fault is
	// ever armed.
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Chaos: true}, rec)
	if err != nil {
		return nil, err
	}
	e := &fhedEnv{
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + srv.Addr(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: fhedConns, MaxIdleConnsPerHost: fhedConns},
		},
	}
	go func() { e.served <- srv.Serve() }()
	rng := newRand(seed, "fhed.values")
	for i, name := range tenantNames {
		cfg := server.TenantConfig{Seed: fmt.Sprintf("perfbench-%d-%s", seed, name)}
		if name == "tight" {
			cfg.KeyBudgetBytes = fhedTightBudget
		}
		var stats struct {
			Slots int `json:"slots"`
		}
		if err := e.call(http.MethodPut, "/v1/tenants/"+name, cfg, &stats); err != nil {
			e.close()
			return nil, err
		}
		e.slots = stats.Slots
		t := &tenant{name: name}
		for k := 0; k < fhedSeedCts; k++ {
			vals := make([]float64, e.slots)
			for s := range vals {
				vals[s] = 2*rng.Float64() - 1
			}
			var ct struct {
				Ct string `json:"ct"`
			}
			if err := e.call(http.MethodPost, "/v1/tenants/"+name+"/encrypt", map[string]any{"values": vals}, &ct); err != nil {
				e.close()
				return nil, err
			}
			t.cts, t.vals = append(t.cts, ct.Ct), append(t.vals, vals)
		}
		e.tenants[i] = t
		// Warm-up: one rotation per key of the ladder and one mul, so that
		// lazy key expansion counts as set-up, as in the other workloads.
		var out struct{}
		for step := 1; step < e.slots; step <<= 1 {
			if err := e.call(http.MethodPost, "/v1/tenants/"+name+"/rotate", map[string]any{"a": t.cts[0], "by": step}, &out); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := e.call(http.MethodPost, "/v1/tenants/"+name+"/eval", map[string]any{"op": "mul", "a": t.cts[0], "b": t.cts[1]}, &out); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// close drains the server and waits for its accept loop to end.
func (e *fhedEnv) close() error {
	err := e.srv.Shutdown()
	if serr := <-e.served; err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	return err
}

// call sends a JSON request and decodes a 200 response into out.
func (e *fhedEnv) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.base+path, body)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// conn holds one client connection's reusable request and response
// buffers, which keeps the load generator's own garbage small.
type conn struct{ req, resp bytes.Buffer }

// request writes a job's body into b and returns its endpoint path.
// Ciphertexts travel as the base64 strings the server handed out,
// spliced in unchanged.
func (e *fhedEnv) request(j job, b *bytes.Buffer) string {
	t := e.tenants[j.tenant]
	path := "/v1/tenants/" + t.name
	b.Reset()
	switch j.kind {
	case kRotate, kRotateGuarded:
		b.WriteString(`{"a":"`)
		b.WriteString(t.cts[j.a])
		b.WriteString(`","by":` + strconv.Itoa(j.step))
		if j.kind == kRotateGuarded {
			b.WriteString(`,"guard":true`)
		}
		b.WriteString("}")
		return path + "/rotate"
	case kMul, kAdd:
		op := "mul"
		if j.kind == kAdd {
			op = "add"
		}
		b.WriteString(`{"op":"` + op + `","a":"`)
		b.WriteString(t.cts[j.a])
		b.WriteString(`","b":"`)
		b.WriteString(t.cts[j.b])
		b.WriteString(`"}`)
		return path + "/eval"
	case kEncrypt:
		_ = json.NewEncoder(b).Encode(map[string]any{"values": t.vals[j.a]}) // []float64 always encodes
		return path + "/encrypt"
	default:
		b.WriteString(`{"ct":"`)
		b.WriteString(t.cts[j.a])
		b.WriteString(`","n":` + strconv.Itoa(e.slots) + `}`)
		return path + "/decrypt"
	}
}

// expected is the plaintext a job's output must decrypt to.
func (e *fhedEnv) expected(j job) []complex128 {
	t := e.tenants[j.tenant]
	a, b := t.vals[j.a], t.vals[j.b]
	out := make([]complex128, e.slots)
	for i := range out {
		switch j.kind {
		case kRotate, kRotateGuarded:
			out[i] = complex(a[(i+j.step)%e.slots], 0)
		case kMul:
			out[i] = complex(a[i]*b[i], 0)
		case kAdd:
			out[i] = complex(a[i]+b[i], 0)
		default:
			out[i] = complex(a[i], 0)
		}
	}
	return out
}

// decryptSlots decrypts a ciphertext of a tenant through the decrypt
// endpoint.
func (e *fhedEnv) decryptSlots(tenant int, ct string) ([]complex128, error) {
	var resp struct {
		Values []float64 `json:"values"`
	}
	err := e.call(http.MethodPost, "/v1/tenants/"+tenantNames[tenant]+"/decrypt",
		map[string]any{"ct": ct, "n": e.slots}, &resp)
	return toComplex(resp.Values), err
}

// parseSlots reads the values of a decrypt response.
func parseSlots(body []byte) ([]complex128, error) {
	var resp struct {
		Values []float64 `json:"values"`
	}
	err := json.Unmarshal(body, &resp)
	return toComplex(resp.Values), err
}

func toComplex(v []float64) []complex128 {
	out := make([]complex128, len(v))
	for i, x := range v {
		out[i] = complex(x, 0)
	}
	return out
}

// outcome is what the client saw of one request.
type outcome struct {
	job
	due     time.Time // when the request was due (open loop) or sent
	sent    time.Time
	latency time.Duration // from due to response read
	ok      bool          // 200 with a correct answer where checked inline
	body    []byte        // kept for sampled outputs
}

// send runs one request on the caller's connection. A decrypt response
// is checked inline; sampled outputs keep their body for checkSamples.
func (e *fhedEnv) send(j job, due time.Time, rec *obs.Recorder, t *tally, c *conn) outcome {
	path := e.request(j, &c.req)
	o := outcome{job: j, due: due, sent: time.Now()}
	sp := rec.StartSpan(requestSpan)
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(c.req.Bytes()))
	var raw []byte
	if err == nil {
		c.resp.Reset()
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
		raw = c.resp.Bytes()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
		}
	}
	sp.End()
	o.latency = time.Since(due)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", kindNames[j.kind], err)
		return o
	}
	o.ok = true
	switch {
	case j.kind == kDecrypt:
		got, err := parseSlots(raw)
		o.ok = err == nil && t.check(got, e.expected(j), fhedTol)
	case j.sample:
		o.body = bytes.Clone(raw)
	}
	return o
}

// loadResult is one load phase as the client saw it.
type loadResult struct {
	outs  []outcome
	start time.Time
	d     time.Duration // the phase length; no request starts later
	t     tally         // checks made inline, during the phase
}

// runLoad drives one phase over fhedConns connections. Open loop, each
// job is sent when due (or, if both connections are busy, as soon as one
// frees up, which the job's latency then includes); closed loop, each
// connection sends its next job as soon as the last one returns. Either
// way no job starts after d.
func (e *fhedEnv) runLoad(g *jobGen, d time.Duration, open bool, rec *obs.Recorder) *loadResult {
	start := time.Now()
	res := &loadResult{start: start, d: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var stop atomic.Bool
	for range fhedConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			var outs []outcome
			var c conn
			for !stop.Load() {
				j := g.next()
				due := start.Add(j.at)
				if !open {
					due = time.Now()
				}
				if due.Sub(start) >= d {
					stop.Store(true)
					break
				}
				time.Sleep(time.Until(due))
				outs = append(outs, e.send(j, due, rec, &local, &c))
			}
			mu.Lock()
			res.outs = append(res.outs, outs...)
			res.t.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// checkSamples decrypts the kept outputs through the decrypt endpoint and
// compares them with their expected plaintexts, marking wrong ones failed.
func (e *fhedEnv) checkSamples(r *loadResult) {
	for i := range r.outs {
		o := &r.outs[i]
		if o.body == nil {
			continue
		}
		var resp struct {
			Ct string `json:"ct"`
		}
		err := json.Unmarshal(o.body, &resp)
		var got []complex128
		if err == nil {
			got, err = e.decryptSlots(o.tenant, resp.Ct)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: checking a %s output: %v\n", kindNames[o.kind], err)
			o.ok = false
			r.t.checked++
			r.t.wrong++
			continue
		}
		o.ok = r.t.check(got, e.expected(o.job), fhedTol)
	}
}

// count tallies a phase's requests and failures.
func (r *loadResult) count() tally {
	t := r.t
	t.attempted = len(r.outs)
	t.failed = 0
	for _, o := range r.outs {
		if !o.ok {
			t.failed++
		}
	}
	return t
}

// latencies returns the ms latencies of the successful requests that
// match keep, measured from their due time or, with fromSend, from the
// moment they were sent.
func (r *loadResult) latencies(keep func(outcome) bool, fromSend bool) []float64 {
	var out []float64
	for _, o := range r.outs {
		if !o.ok || !keep(o) {
			continue
		}
		lat := o.latency
		if fromSend {
			lat -= o.sent.Sub(o.due)
		}
		out = append(out, ms(lat))
	}
	return out
}

func all(outcome) bool { return true }

// windowed cuts the phase into fhedWindows windows by the requests' due
// times, applies f to the ms latencies of each window's successful
// requests, and returns the median over the windows.
func (r *loadResult) windowed(f func(lat []float64) float64) float64 {
	wins := make([][]float64, fhedWindows)
	for _, o := range r.outs {
		if i := int(o.due.Sub(r.start) * fhedWindows / r.d); o.ok && i >= 0 && i < fhedWindows {
			wins[i] = append(wins[i], ms(o.latency))
		}
	}
	vals := make([]float64, 0, fhedWindows)
	for _, w := range wins {
		vals = append(vals, f(w))
	}
	return median(vals)
}

func runFhedMix(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceFhedMix(cfg)
	}
	var e *fhedEnv
	var times []float64
	for range setupRepeats {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = startFhed(cfg.seed, nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	g := &jobGen{rng: newRand(cfg.seed, "fhed.mix"), slots: e.slots}
	openRes := e.runLoad(g, time.Duration(fhedOpenShare*float64(cfg.duration)), true, nil)
	e.checkSamples(openRes)
	closedRes := e.runLoad(g, time.Duration(fhedClosedShare*float64(cfg.duration)), false, nil)
	e.checkSamples(closedRes)
	if err := e.close(); err != nil {
		return nil, err
	}

	t := openRes.count()
	t.merge(closedRes.count())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	window := closedRes.d.Seconds() / fhedWindows
	m := map[string]metric{
		"setup_s":        {median(times), "s"},
		"latency_p50_ms": {closedRes.windowed(median), "ms"},
		"throughput_rps": {closedRes.windowed(func(l []float64) float64 { return float64(len(l)) / window }), "1/s"},
		"success_ratio":  {ratio(float64(t.attempted-t.failed), float64(t.attempted)), "ratio"},
		"precision_bits": {t.precisionBits(), "bits"},
		"peak_rss_mb":    {rss, "MB"},
	}
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// traceFhedMix is the traced run: an open-loop phase as long as the whole
// run against a server on its own recorder (the untraced baseline, the
// tail latencies, the client-side and runtime numbers), then one as long
// as the untraced run's open loop against a second server recording into
// the benchmark's recorder, whose spans give the per-layer numbers.
func traceFhedMix(cfg runConfig) (*result, error) {
	openLen := time.Duration(fhedOpenShare * float64(cfg.duration))
	m := map[string]metric{}

	// Both servers are set up before either phase runs, so the two
	// phases start from the same process state.
	e, err := startFhed(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder(obs.WithSpanCap(spanCap))
	te, err := startFhed(cfg.seed, rec)
	if err != nil {
		e.close()
		return nil, err
	}
	rec.Reset() // keep set-up requests out of the traced phase

	g := &jobGen{rng: newRand(cfg.seed, "fhed.mix"), slots: e.slots}
	var rt rtDelta
	before := readRuntime()
	plain := e.runLoad(g, cfg.duration, true, nil)
	rt.add(before, readRuntime(), len(plain.outs))
	e.checkSamples(plain)
	if err := e.close(); err != nil {
		te.close()
		return nil, err
	}

	e = te
	g = &jobGen{rng: newRand(cfg.seed, "fhed.mix"), slots: e.slots}
	traced := e.runLoad(g, openLen, true, rec)
	l := newLayers()
	snap := l.drain(rec, len(traced.outs))
	var resident int64
	for _, name := range tenantNames {
		var st struct {
			KeyVault struct {
				ResidentBytes int64 `json:"resident_bytes"`
			} `json:"key_vault"`
		}
		if err := e.call(http.MethodGet, "/v1/tenants/"+name+"/stats", nil, &st); err != nil {
			e.close()
			return nil, err
		}
		resident += st.KeyVault.ResidentBytes
	}
	e.checkSamples(traced)
	if err := e.close(); err != nil {
		return nil, err
	}

	var e2e time.Duration
	for _, o := range traced.outs {
		e2e += o.latency
	}
	l.report(m, e2e)
	rt.report(m)
	serverLayers(m, snap)
	for k := reqKind(0); k < numKinds; k++ {
		lat := plain.latencies(func(o outcome) bool { return o.kind == k }, true)
		m["client."+kindNames[k]+"_ms"] = metric{median(lat), "ms"}
	}
	var lags []float64
	for _, o := range plain.outs {
		lags = append(lags, ms(o.sent.Sub(o.due)))
	}
	m["loadgen.lag_p99_ms"] = metric{percentile(lags, 0.99), "ms"}
	m["loadgen.latency_p50_ms"] = metric{plain.windowed(median), "ms"}
	m["loadgen.latency_p99_ms"] = metric{percentile(plain.latencies(all, false), 0.99), "ms"}
	m["latency_p85_ms"] = metric{plain.windowed(func(l []float64) float64 { return percentile(l, 0.85) }), "ms"}
	m["loadgen.sent"] = metric{float64(len(plain.outs)), "count"}
	m["loadgen.completed"] = metric{float64(len(plain.latencies(all, false))), "count"}
	m["ckks.keyvault.resident_bytes"] = metric{float64(resident), "bytes"}
	m["trace.overhead_ratio"] = metric{ratio(traced.windowed(median), plain.windowed(median)), "ratio"}
	notExercised(m, "bytes", "memtrace.dram_bytes", "memtrace.dram_key_bytes", "memtrace.dram_ct_bytes")

	t := plain.count()
	t.merge(traced.count())
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// serverLayers adds the server-side per-layer metrics, aggregated by
// span name over the traced phase: admission wait (0 for requests that
// found a free slot), the waiting-room depth, and handler time.
func serverLayers(m map[string]metric, snap obs.Snapshot) {
	var handler, waits []float64
	var intervals [][2]time.Duration
	for _, s := range snap.Spans {
		switch s.Name {
		case "fhed.http.rotate", "fhed.http.eval", "fhed.http.encrypt", "fhed.http.decrypt":
			handler = append(handler, ms(s.Dur))
		case "fhed.admission.wait":
			waits = append(waits, ms(s.Dur))
			intervals = append(intervals, [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	for len(waits) < len(handler) {
		waits = append(waits, 0)
	}
	m["server.admission_wait_p50_ms"] = metric{median(waits), "ms"}
	m["server.admission_wait_p99_ms"] = metric{percentile(waits, 0.99), "ms"}
	m["server.queue_depth_max"] = metric{float64(maxOverlap(intervals)), "count"}
	m["server.handler_ms"] = metric{median(handler), "ms"}
}

// maxOverlap is the largest number of intervals open at one instant.
func maxOverlap(iv [][2]time.Duration) int {
	type edge struct {
		t     time.Duration
		delta int
	}
	var edges []edge
	for _, x := range iv {
		edges = append(edges, edge{x[0], 1}, edge{x[1], -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	best, open := 0, 0
	for _, e := range edges {
		open += e.delta
		best = max(best, open)
	}
	return best
}

package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// spanCap bounds the traced recorder's span ring. The closed-loop
// workloads drain it after every unit and the open loop after its phase;
// both stay far below it, and obs.dropped_spans reports it if not.
const spanCap = 1 << 18

// Span names the benchmark records itself, around its calls into the
// program. unitSpan covers one unit of a closed-loop workload and
// requestSpan one fhed request on the client side; whatever part of them
// no program span covers is the unattributed remainder.
const (
	unitSpan    = "bench.unit"
	requestSpan = "bench.request"
)

// layerOf maps a span name to the per-layer metric its self time feeds.
// Spans no other layer claims land in trace.other.
func layerOf(span string) string {
	switch {
	case span == unitSpan || span == requestSpan:
		return "trace.unattributed"
	case strings.HasPrefix(span, "fhed.http."):
		// Handler time minus admission wait and evaluator op spans: the
		// wire codec, the session-lock wait, and the unspanned
		// encode/encrypt/decrypt work of the encrypt and decrypt endpoints.
		return "server.codec_lock"
	case strings.HasPrefix(span, "ckks.") && strings.HasSuffix(span, "E"):
		// The checked facade: operand validation and integrity sealing.
		return "ckks.checked"
	}
	if l, ok := spanLayers[span]; ok {
		return l
	}
	return "trace.other"
}

var spanLayers = map[string]string{
	"fhed.admission.wait":   "server.admission_wait",
	"bootstrap.ModRaise":    "bootstrap.modraise",
	"bootstrap.CoeffToSlot": "bootstrap.coefftoslot",
	"bootstrap.EvalMod":     "bootstrap.evalmod",
	"bootstrap.SlotToCoeff": "bootstrap.slottocoeff",
	"ckks.MulRelin":         "ckks.mulrelin",
	"ckks.Rescale":          "ckks.rescale",
	"ckks.Rotate":           "ckks.rotate",
	"ckks.RotateHoisted":    "ckks.rotatehoisted",
	"ckks.KeySwitch":        "ckks.keyswitch",
	"ckks.Conjugate":        "ckks.conjugate",
	"bench.encode":          "ckks.encode",
	"bench.encrypt":         "ckks.encrypt",
	"bench.evalpoly":        "ckks.evalpoly",
	"bench.innersum":        "ckks.innersum",
	"bench.decrypt":         "ckks.decrypt",
	"rns.ModUpDigit":        "rns.modup",
	"rns.ModDown":           "rns.moddown",
	"rns.Rescale":           "rns.rescale",
}

// Per-layer metric groups. Every traced run reports all of them; a layer
// a workload never enters reads 0.
var (
	selfLayers = []string{
		"server.codec_lock",
		"bootstrap.modraise", "bootstrap.coefftoslot", "bootstrap.evalmod", "bootstrap.slottocoeff",
		"ckks.mulrelin", "ckks.rescale", "ckks.rotate", "ckks.rotatehoisted", "ckks.keyswitch", "ckks.conjugate",
		"ckks.encode", "ckks.encrypt", "ckks.evalpoly", "ckks.innersum", "ckks.decrypt", "ckks.checked",
		"rns.modup", "rns.moddown", "rns.rescale",
		"trace.other",
	}
	countedOps = []string{
		"ckks.MulRelin", "ckks.Rescale", "ckks.Rotate", "ckks.RotateHoisted", "ckks.KeySwitch", "ckks.Conjugate",
	}
	phaseSpans = []string{
		"bootstrap.ModRaise", "bootstrap.CoeffToSlot", "bootstrap.EvalMod", "bootstrap.SlotToCoeff",
	}
	perUnitCounters = map[string]string{
		"ckks.key.bytes":           "bytes",
		"ckks.keyvault.expansions": "count",
		"ckks.keyvault.evictions":  "count",
		"rns.extend.bytes":         "bytes",
		"rns.extend.coeffs":        "count",
		"ring.ntt":                 "count",
		"ring.intt":                "count",
		"ring.ntt.bytes":           "bytes",
		"ring.intt.bytes":          "bytes",
	}
)

// isLeaf reports whether spans of this name never enclose other spans:
// the kernel-side lightweight spans. ring.parallel.worker spans are
// dropped before analysis — they only say which goroutine ran part of an
// op, so their time stays with the op that fanned out.
func isLeaf(name string) bool { return strings.HasPrefix(name, "rns.") }

// layers accumulates a traced phase: self time, inclusive time and count
// per span name, and the recorder's counters, over units of work.
type layers struct {
	units    int
	self     map[string]time.Duration
	wall     map[string]time.Duration
	count    map[string]int
	counters map[string]uint64
}

func newLayers() *layers {
	return &layers{
		self:     map[string]time.Duration{},
		wall:     map[string]time.Duration{},
		count:    map[string]int{},
		counters: map[string]uint64{},
	}
}

// drain folds the recorder's spans and counters into l as `units` units
// of work, resets the recorder, and returns what it drained.
func (l *layers) drain(rec *obs.Recorder, units int) obs.Snapshot {
	snap := rec.Snapshot()
	rec.Reset()
	l.units += units
	for k, v := range snap.Counters {
		l.counters[k] += v
	}
	l.addSpans(snap.Spans)
	return snap
}

// addSpans attributes each span's self time: its duration minus the
// part of it that its children cover. Parents are rebuilt from time
// intervals alone — a span's parent is the latest-starting non-leaf span
// that encloses it — because the recorder's trace cursor is one pointer
// per recorder, so its parent links are wrong when fhed requests run
// concurrently. On a single op stream the two agree.
func (l *layers) addSpans(all []obs.SpanRecord) {
	spans := make([]obs.SpanRecord, 0, len(all))
	for _, s := range all {
		if s.Name != "ring.parallel.worker" {
			spans = append(spans, s)
		}
	}
	end := func(s obs.SpanRecord) time.Duration { return s.Start + s.Dur }
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if end(a) != end(b) {
			return end(a) > end(b)
		}
		return a.ID < b.ID
	})
	children := make([][]int, len(spans))
	for i, c := range spans {
		for j := i - 1; j >= 0; j-- {
			if p := spans[j]; !isLeaf(p.Name) && end(p) >= end(c) {
				children[j] = append(children[j], i)
				break
			}
		}
	}
	for i, s := range spans {
		covered, reach := time.Duration(0), s.Start
		for _, k := range children[i] { // sorted by start
			from, to := max(spans[k].Start, reach), min(end(spans[k]), end(s))
			if to > from {
				covered += to - from
				reach = to
			}
		}
		l.self[s.Name] += s.Dur - covered
		l.wall[s.Name] += s.Dur
		l.count[s.Name]++
	}
}

// selfMs returns the self time of a layer per unit, in ms.
func (l *layers) selfMs(layer string) float64 {
	var sum time.Duration
	for name, d := range l.self {
		if layerOf(name) == layer {
			sum += d
		}
	}
	return ratio(ms(sum), float64(l.units))
}

// report adds every span- and counter-derived per-layer metric. e2e is
// the summed end-to-end time of the traced units, the base of
// trace.unattributed_ratio.
func (l *layers) report(m map[string]metric, e2e time.Duration) {
	u := float64(l.units)
	for _, layer := range selfLayers {
		m[layer+"_ms"] = metric{l.selfMs(layer), "ms"}
	}
	for _, op := range countedOps {
		m[strings.ToLower(op)+"_count"] = metric{ratio(float64(l.count[op]), u), "count"}
	}
	for _, ph := range phaseSpans {
		m[layerOf(ph)+"_wall_ms"] = metric{ratio(ms(l.wall[ph]), u), "ms"}
	}
	for name, unit := range perUnitCounters {
		m[name] = metric{ratio(float64(l.counters[name]), u), unit}
	}
	c := func(name string) float64 { return float64(l.counters[name]) }
	m["ckks.keyvault.hit_ratio"] = metric{ratio(c("ckks.keyvault.hits"), c("ckks.keyvault.hits")+c("ckks.keyvault.misses")), "ratio"}
	m["ring.pool.hit_ratio"] = metric{ratio(c("ring.pool.get")-c("ring.pool.miss"), c("ring.pool.get")), "ratio"}
	m["server.rejected"] = metric{c("fhed.admission.rejected"), "count"}
	m["obs.dropped_spans"] = metric{c(obs.DroppedSpansCounter), "count"}
	var unattributed time.Duration
	for _, name := range []string{unitSpan, requestSpan} {
		unattributed += l.self[name]
	}
	m["trace.unattributed_ratio"] = metric{ratio(float64(unattributed), float64(e2e)), "ratio"}
}

package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// Every correctness check must accept the program's real output and
// reject the same output against a deliberately wrong expected value.

func TestBootCheckRejectsWrongExpected(t *testing.T) {
	b, err := newBootEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	in, want := b.input()
	out := b.btp.Bootstrap(in)
	if !b.verify(&tally{}, out, want) {
		t.Fatal("a correct bootstrap output was rejected")
	}
	wrong := append([]complex128(nil), want...)
	wrong[7] += 0.01
	var tl tally
	if b.verify(&tl, out, wrong) || tl.wrong != 1 {
		t.Fatalf("a wrong expected value was accepted (tally %+v)", tl)
	}
}

func TestHELRCheckRejectsWrongExpected(t *testing.T) {
	h, err := newHELREnv(1)
	if err != nil {
		t.Fatal(err)
	}
	const w = 0.75
	got := h.step(&phase{}, w)
	if !h.verify(&tally{}, got, h.expectedMean(w)) {
		t.Fatal("a correct gradient was rejected")
	}
	var tl tally
	if h.verify(&tl, got, h.expectedMean(w)+0.01) || tl.wrong != 1 {
		t.Fatalf("a wrong expected gradient was accepted (tally %+v)", tl)
	}
}

func TestFhedChecksRejectWrongExpected(t *testing.T) {
	e, err := startFhed(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	vals := e.tenants[0].vals[0]
	orig := append([]float64(nil), vals...)
	perturb := func() { vals[3] += 0.01 }
	restore := func() { copy(vals, orig) }

	// Inline: a decrypt response is checked as it arrives.
	dec := job{kind: kDecrypt}
	if o := e.send(dec, time.Now(), nil, &tally{}, &conn{}); !o.ok {
		t.Fatal("a correct decrypt response was rejected")
	}
	perturb()
	if o := e.send(dec, time.Now(), nil, &tally{}, &conn{}); o.ok {
		t.Fatal("a decrypt response was accepted against a wrong expected value")
	}
	restore()

	// Sampled: outputs are decrypted through the server after the phase.
	for _, k := range []reqKind{kRotate, kRotateGuarded, kMul, kAdd, kEncrypt} {
		j := job{kind: k, step: 4, b: 1, sample: true}
		o := e.send(j, time.Now(), nil, &tally{}, &conn{})
		if !o.ok || o.body == nil {
			t.Fatalf("%s: request failed", kindNames[k])
		}
		good := &loadResult{outs: []outcome{o}}
		e.checkSamples(good)
		if !good.outs[0].ok {
			t.Fatalf("%s: a correct output was rejected", kindNames[k])
		}
		perturb()
		bad := &loadResult{outs: []outcome{o}}
		e.checkSamples(bad)
		restore()
		if bad.outs[0].ok || bad.t.wrong != 1 || bad.count().failed != 1 {
			t.Fatalf("%s: an output was accepted against a wrong expected value", kindNames[k])
		}
	}
}

// span builds a finished span record; times are in ms.
func span(id uint64, name string, start, end float64) obs.SpanRecord {
	d := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return obs.SpanRecord{ID: id, Name: name, Start: d(start), Dur: d(end) - d(start)}
}

func TestSelfTimeFromIntervals(t *testing.T) {
	l := newLayers()
	l.addSpans([]obs.SpanRecord{
		span(1, unitSpan, 0, 100),
		span(2, "ckks.KeySwitch", 10, 60),
		// Two ModUp digits running on two workers overlap: together they
		// cover 20..45 of the key switch, not 40 ms.
		span(3, "rns.ModUpDigit", 20, 40),
		span(4, "rns.ModUpDigit", 25, 45),
		span(5, "ring.parallel.worker", 20, 45),
		span(6, "rns.ModDown", 50, 55),
		span(7, "ckks.Rescale", 70, 80),
		span(8, "rns.Rescale", 71, 79),
	})
	l.units = 1
	for layer, want := range map[string]float64{
		"trace.unattributed": 100 - 50 - 10,
		"ckks.keyswitch":     50 - 25 - 5,
		"rns.modup":          40,
		"rns.moddown":        5,
		"ckks.rescale":       2,
		"rns.rescale":        8,
	} {
		if got := l.selfMs(layer); got != want {
			t.Errorf("%s self time = %v ms, want %v", layer, got, want)
		}
	}
}

func TestConcurrentRequestsKeepTheirOwnChildren(t *testing.T) {
	// Two fhed requests overlap in time; each handler's op span must be
	// charged to the handler it ran in, whatever the recorder's parent
	// links say.
	l := newLayers()
	l.addSpans([]obs.SpanRecord{
		span(1, requestSpan, 0, 20),
		span(2, "fhed.http.rotate", 1, 19),
		span(3, "ckks.RotateE", 5, 15),
		span(4, requestSpan, 10, 40),
		span(5, "fhed.http.eval", 16, 39),
		span(6, "ckks.MulE", 20, 30),
	})
	l.units = 2
	if got, want := l.selfMs("server.codec_lock"), ((18.0-10)+(23-10))/2; got != want {
		t.Errorf("codec+lock self time = %v ms per request, want %v", got, want)
	}
	if got, want := l.selfMs("trace.unattributed"), ((20.0-18)+(30-23))/2; got != want {
		t.Errorf("unattributed = %v ms per request, want %v", got, want)
	}
}

func TestReportsExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want, err := declaredMetrics("../BENCHMARK.json", traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("BENCHMARK.json declares no metrics (traced=%v)", traced)
		}
		got := map[string]metric{}
		for n, u := range want {
			got[n] = metric{1, u}
		}
		if err := matchDeclared(got, want); err != nil {
			t.Fatal(err)
		}
		got["undeclared"] = metric{1, "ms"}
		if matchDeclared(got, want) == nil {
			t.Fatal("an undeclared metric was accepted")
		}
	}
}

func TestLoadPhasesCompleteAndCheck(t *testing.T) {
	// Both load loops share the job generator, the client and, traced,
	// the recorder across their connections; run with -race.
	e, err := startFhed(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	g := &jobGen{rng: newRand(2, "fhed.mix"), slots: e.slots}
	rec := obs.NewRecorder(obs.WithSpanCap(spanCap))
	for _, open := range []bool{true, false} {
		r := e.runLoad(g, 400*time.Millisecond, open, rec)
		e.checkSamples(r)
		if tl := r.count(); tl.attempted == 0 || tl.failed != 0 || tl.wrong != 0 {
			t.Fatalf("open=%v: %+v", open, tl)
		}
	}
	if n := len(rec.Snapshot().SpansNamed(requestSpan)); n == 0 {
		t.Fatal("no request spans were recorded")
	}
}

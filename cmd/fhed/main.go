// Command fhed is the fault-tolerant multi-tenant FHE evaluation
// daemon, plus its load-generator client.
//
// Server mode (default):
//
//	fhed -addr :8377 -slots 2 -queue 8 -flight flight.json
//
// exposes the tenant/encrypt/eval/rotate/bootstrap API (see
// docs/SERVER.md), drains gracefully on SIGTERM, and writes a flight
// dump on exit. -chaos additionally enables the per-tenant
// fault-injection endpoint — strictly an opt-in for resilience testing.
//
// Load mode:
//
//	fhed -load -out BENCH_fhed.json            # self-hosted target
//	fhed -load -url http://host:8377 -chaos    # external target
//
// ramps offered concurrency against a target server (an in-process one
// when -url is empty), retries backpressure with jittered exponential
// backoff honoring Retry-After, optionally drives fault-inject/detect/
// recover cycles, and writes the measured service profile as a bench/v2
// report (BENCH_fhed.json) for the benchdiff perf-trajectory gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/benchdiff"
	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		load = flag.Bool("load", false, "run the load generator instead of the server")

		// server flags
		addr    = flag.String("addr", "127.0.0.1:8377", "listen address")
		slots   = flag.Int("slots", 2, "concurrent FHE executions")
		queue   = flag.Int("queue", 8, "admission waiting-room capacity")
		dl      = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM")
		tenants = flag.Int("tenants", 16, "max tenants")
		chaos   = flag.Bool("chaos", false, "enable the fault-injection endpoint (testing only)")
		flight  = flag.String("flight", "", "write a flight dump here on drain")

		// load flags
		url    = flag.String("url", "", "target server URL (empty: self-host an in-process server)")
		out    = flag.String("out", "BENCH_fhed.json", "load report output path")
		window = flag.Duration("window", 2*time.Second, "duration of each concurrency window")
		ramp   = flag.String("ramp", "1,2,4,8,16", "comma-separated offered-concurrency ladder")
		repeat = flag.Int("repeat", 8, "rotations chained per request")
		budget = flag.Int64("keybudget", 0, "tenant key-vault byte budget (0 = unlimited)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	var err error
	if *load {
		err = runLoad(loadOpts{
			url: *url, out: *out, window: *window, ramp: *ramp, repeat: *repeat,
			budget: *budget, chaos: *chaos, slots: *slots, queue: *queue, flight: *flight,
		}, logger)
	} else {
		err = runServe(server.Config{
			Addr: *addr, Slots: *slots, Queue: *queue, DefaultDeadline: *dl,
			DrainBudget: *drain, MaxTenants: *tenants, Chaos: *chaos,
			FlightPath: *flight, Log: logger,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhed:", err)
		os.Exit(fherr.ExitCode(err))
	}
}

func runServe(cfg server.Config) error {
	srv, err := server.New(cfg, obs.NewRecorder())
	if err != nil {
		return err
	}
	stop := srv.WatchSignals()
	defer stop()
	return srv.Serve()
}

type loadOpts struct {
	url, out, ramp, flight string
	window                 time.Duration
	repeat                 int
	budget                 int64
	chaos                  bool
	slots, queue           int
}

func runLoad(o loadOpts, logger *log.Logger) error {
	target := o.url
	if target == "" {
		// Self-hosted target: an in-process server on an ephemeral port,
		// drained (with flight dump) when the run finishes.
		srv, err := server.New(server.Config{
			Addr: "127.0.0.1:0", Slots: o.slots, Queue: o.queue,
			Chaos: o.chaos, FlightPath: o.flight, Log: logger,
		}, obs.NewRecorder())
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve() }()
		defer func() { _ = srv.Shutdown() }()
		target = "http://" + srv.Addr()
		logger.Printf("loadgen: self-hosted fhed on %s (slots=%d queue=%d chaos=%v)",
			srv.Addr(), o.slots, o.queue, o.chaos)
	}

	var rampList []int
	for _, tok := range splitComma(o.ramp) {
		var n int
		if _, err := fmt.Sscanf(tok, "%d", &n); err != nil || n < 1 {
			return fherr.Errorf(fherr.ErrUsage, "fhed: bad -ramp entry %q", tok)
		}
		rampList = append(rampList, n)
	}

	rep, err := server.RunLoad(server.LoadConfig{
		BaseURL: target, Window: o.window, Ramp: rampList, Repeat: o.repeat,
		KeyBudgetBytes: o.budget, Chaos: o.chaos, Log: logger,
	})
	if err != nil {
		return err
	}

	if err := writeLoadReport(rep, o); err != nil {
		return err
	}
	logger.Printf("loadgen: report written to %s (max sustained %.1f rps, saturation reject rate %.1f%%)",
		o.out, rep.MaxSustainedRPS, rep.Saturation.RejectRate*100)

	// The run doubles as a resilience gate: overload must degrade to
	// fast rejections (never hangs or transport errors), and every
	// injected corruption must be detected and recovered.
	for _, w := range rep.Windows {
		if w.Errors > 0 {
			return fmt.Errorf("fhed: load run saw %d non-backpressure errors at concurrency %d", w.Errors, w.Concurrency)
		}
		if w.Timeouts > 0 {
			return fmt.Errorf("fhed: load run saw %d timeouts at concurrency %d — saturation must shed load as 429s", w.Timeouts, w.Concurrency)
		}
	}
	if ch := rep.Chaos; ch != nil && (ch.Missed > 0 || ch.Recovered < ch.Cycles) {
		return fmt.Errorf("fhed: chaos cycles failed: %d/%d detected, %d/%d recovered", ch.Detected, ch.Cycles, ch.Recovered, ch.Cycles)
	}
	return nil
}

// writeLoadReport writes the run as bench/v2 records: per-op latency
// percentiles and the sustained rate are wall clock; the chaos cycle
// counts of a healthy run are fixed by the cycle count, so they are
// deterministic.
func writeLoadReport(rep *server.LoadReport, o loadOpts) error {
	b := benchdiff.New(fmt.Sprintf("window=%v ramp=%s repeat=%d chaos=%v", o.window, o.ramp, o.repeat, o.chaos), "")
	for _, op := range rep.Ops {
		b.Add("fhed/"+op.Name+"/p50_us", "us", op.P50Us, benchdiff.Lower, benchdiff.Wallclock)
		b.Add("fhed/"+op.Name+"/p95_us", "us", op.P95Us, benchdiff.Lower, benchdiff.Wallclock)
	}
	b.Add("fhed/max_sustained_rps", "1/s", rep.MaxSustainedRPS, benchdiff.Higher, benchdiff.Wallclock)
	if ch := rep.Chaos; ch != nil {
		b.Add("fhed/chaos/cycles", "count", float64(ch.Cycles), benchdiff.Higher, benchdiff.Deterministic)
		b.Add("fhed/chaos/detected", "count", float64(ch.Detected), benchdiff.Higher, benchdiff.Deterministic)
		b.Add("fhed/chaos/recovered", "count", float64(ch.Recovered), benchdiff.Higher, benchdiff.Deterministic)
		b.Add("fhed/chaos/missed", "count", float64(ch.Missed), benchdiff.Lower, benchdiff.Deterministic)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

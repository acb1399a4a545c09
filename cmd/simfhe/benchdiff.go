package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchdiff"
)

// benchdiffCmd is the perf-trajectory gate: it compares a fresh bench
// report against a committed baseline and exits nonzero when any
// deterministic record moved past ±1% or any wall-clock record slowed
// past the threshold. CI runs it after the bench suites so regressions
// fail the build the same way broken tests do.
func benchdiffCmd(args []string) {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_extend.json", "committed baseline report (JSON)")
	current := fs.String("current", "", "fresh report to compare (JSON); empty measures -suite now")
	suite := fs.String("suite", "extend", "suite to measure when -current is empty: "+benchSuiteNames())
	threshold := fs.Float64("threshold", 0.25, "max allowed wall-clock slowdown fraction (0.25 = +25%); deterministic records always gate at ±1%")
	fs.Parse(args)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	base, err := benchdiff.FlattenFile(*baseline)
	if err != nil {
		fail(err)
	}
	var cur map[string]benchdiff.Record
	if *current != "" {
		cur, err = benchdiff.FlattenFile(*current)
	} else {
		run, ok := benchSuites[*suite]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: unknown suite %q (want %s)\n", *suite, benchSuiteNames())
			os.Exit(2)
		}
		workers, _ := parseWorkerList("") // the default list cannot fail to parse
		fmt.Fprintf(os.Stderr, "benchdiff: measuring fresh %s suite ...\n", *suite)
		report, gateErr := run(workers)
		if gateErr != nil {
			fail(fmt.Errorf("%s suite gate: %w", *suite, gateErr))
		}
		cur, err = report.Metrics()
	}
	if err != nil {
		fail(err)
	}

	rep := benchdiff.Compare(base, cur, *threshold)
	if err := rep.Render(os.Stdout); err != nil {
		fail(err)
	}
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — %d metric(s) failed their gate (or no comparable/new metrics at all)\n", rep.Failed)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchdiff: ok")
}

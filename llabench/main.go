// Command llabench is the repository's end-to-end benchmark. It runs one
// workload for about --seconds in a closed loop with one client (a fixed
// time, or on online-churn a fixed number of events sized to that time),
// checks every operation's output, and prints each metric by name and unit,
// ending with one JSON line:
//
//	llabench --workload fleet-certify --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON line holds the end-to-end metrics. With --trace 1
// the workload runs twice for half the time each, untraced and then with
// spans around every call into the program's layers, and the JSON line holds
// the per-layer metrics of the traced pass plus the tracing overhead (traced
// minus untraced) on each end-to-end metric. README.md describes the
// workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// buildDir holds the benchmark's build output and span files, relative to
// the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// runConfig is what a workload receives: the seed its inputs are generated
// from and how long it measures.
type runConfig struct {
	seed    int64
	seconds float64
}

func (rc runConfig) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// workloads maps each workload name to its runner. A runner is given a nil
// tracer for an untraced pass.
var workloads = map[string]func(runConfig, *tracer) (*report, error){
	"fleet-certify": runFleet,
	"dist-tcp":      runDistTCP,
	"online-churn":  runChurn,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "llabench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: fleet-certify, dist-tcp or online-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 splits the run into an untraced and a traced pass and reports per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc := runConfig{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		// A traced run measures as long as an untraced one: half of it is
		// the untraced pass the overhead is taken against.
		rc.seconds /= 2
	}
	fmt.Printf("llabench workload=%s seed=%d seconds=%g trace=%d %s\n", *name, *seed, *seconds, *trace, machineFacts())

	base, err := wl(rc, nil)
	if err != nil {
		return err
	}
	printNotes("untraced pass", base)
	e2e, err := collect(endToEnd, base.e2e)
	if err != nil {
		return err
	}
	printTable(os.Stdout, "end-to-end (untraced)", e2e)
	if *trace == 0 {
		return emit(os.Stdout, resultOf(e2e, base))
	}

	tr := newTracer()
	traced, err := wl(rc, tr)
	if err != nil {
		return err
	}
	printNotes("traced pass", traced)
	values := traced.layer
	values["ops.failed_frac"] = traced.ops.frac()
	for _, l := range perLayer {
		if _, ok := values[l.name]; !ok {
			values[l.name] = 0 // a layer this workload never calls
		}
	}
	self := tr.selfMs()
	for _, l := range tracedLayers {
		values[selfMetric(l)] = self[l] / float64(traced.ops.attempted)
	}
	for _, m := range endToEnd {
		values[overheadMetric(m.name)] = traced.e2e[m.name] - base.e2e[m.name]
	}
	layer, err := collect(allPerLayer(), values)
	if err != nil {
		return err
	}
	path := spanPath(*name, *seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s (%d kept)\n", path, len(tr.kept))
	printTable(os.Stdout, "per-layer (traced)", layer)
	both := *base
	both.ops.add(traced.ops)
	both.broken = append(both.broken, traced.broken...)
	return emit(os.Stdout, resultOf(layer, &both))
}

// printNotes prints a pass's notes, failures and broken checks.
func printNotes(pass string, r *report) {
	fmt.Printf("%s: attempted=%d failed=%d failed_frac=%.6g\n", pass, r.ops.attempted, r.ops.failed, r.ops.frac())
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, f := range r.ops.reasons {
		fmt.Println("  failed: " + f)
	}
	for _, b := range r.broken {
		fmt.Println("  BROKEN: " + b)
	}
}

func resultOf(m map[string]metricValue, r *report) result {
	return result{Correct: len(r.broken) == 0, Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: m}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric's name and unit as BENCHMARK.json declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them for its own operation: a certification on
// fleet-certify, a distributed solve on dist-tcp, an admission decision on
// online-churn (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"utility", "utility"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a layer it
// never calls.
var perLayer = []metricDef{
	{"core.compile_ms", "ms"},
	{"core.step_us", "us"},
	{"core.kkt_us", "us"},
	{"core.probe_us", "us"},
	{"core.sparse_skip_frac", "frac"},
	{"core.resident_tasks_max", "count"},
	{"fleet.partition_ms", "ms"},
	{"fleet.rounds", "count"},
	{"fleet.round_ms_p50", "ms"},
	{"fleet.round_ms_max", "ms"},
	{"fleet.local_iters", "count"},
	{"fleet.skip_frac", "frac"},
	{"fleet.boundary_resources", "count"},
	{"fleet.setup_allocs", "count"},
	{"fleet.setup_alloc_mb", "MB"},
	{"fleet.run_alloc_mb", "MB"},
	{"dist.round_us", "us"},
	{"dist.inproc_round_us", "us"},
	{"dist.allocs_per_round", "count"},
	{"dist.alloc_kb_per_round", "KB"},
	{"dist.retransmits", "count"},
	{"dist.delta_suppressed", "count"},
	{"transport.sends_per_round", "count"},
	{"transport.send_us_p50", "us"},
	{"wire.encode_us_p50", "us"},
	{"wire.read_us_p50", "us"},
	{"wire.frames_per_round", "count"},
	{"wire.bytes_per_round", "bytes"},
	{"admit.offer_ms_p50", "ms"},
	{"admit.offer_ms_p99", "ms"},
	{"admit.remove_ms_p50", "ms"},
	{"admit.rebalance_ms_p50", "ms"},
	{"admit.trial_iters", "count"},
	{"admit.reconverge_iters", "count"},
	{"admit.reconverge_capped", "count"},
	{"admit.rejected_static", "count"},
	{"admit.rejected_price", "count"},
	{"admit.rejected_trial", "count"},
	{"admit.rejected_quarantine", "count"},
	{"admit.admitted_frac", "frac"},
	{"admit.violating_events", "count"},
	{"recover.capture_ms", "ms"},
	{"recover.encode_ms", "ms"},
	{"recover.decode_ms", "ms"},
	{"recover.restore_ms", "ms"},
	{"recover.checkpoint_kb", "KB"},
	{"ops.failed_frac", "frac"},
	{"ops.throughput_per_s", "1/s"},
	{"ops.latency_ms_tail", "ms"},
	{"ops.latency_tail_pct", "%"},
}

// selfMetric and overheadMetric name the traced run's derived metrics: a
// layer's span self time per operation, and the tracing overhead on an
// end-to-end metric.
func selfMetric(layer string) string { return layer + ".self_ms_per_op" }

func overheadMetric(name string) string { return "trace_overhead." + name }

// tracedLayers are the layers with spans on some workload's operation path.
// core has none: engine work runs inside fleet rounds and admission calls,
// and a span is only put around a call the benchmark makes.
var tracedLayers = []string{"fleet", "dist", "transport", "wire", "admit", "recover"}

// allPerLayer is perLayer plus the derived metrics, in output order.
func allPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, l := range tracedLayers {
		out = append(out, metricDef{selfMetric(l), "ms"})
	}
	for _, m := range endToEnd {
		out = append(out, metricDef{overheadMetric(m.name), m.unit})
	}
	return out
}

// report is one pass of a workload: its measured metrics, the operations it
// attempted and failed, and the harness checks that did not hold.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	ops   tally
	// broken lists checks whose failure makes the measurement itself
	// meaningless (for example the wire codec falling back to JSON); any
	// entry turns "correct" false.
	broken []string
	notes  []string
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) brokenf(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

// opLatency records the latency of the workload's operation from
// per-operation samples in ms: the median and p90 as end-to-end metrics;
// as per-layer ones, operations per second of operation time (in a closed
// loop with one client, 1/mean) and the highest percentile with ten samples
// beyond it (p99 of decisions on online-churn), with its level.
func (r *report) opLatency(what string, samplesMs []float64) {
	sum := 0.0
	for _, x := range samplesMs {
		sum += x
	}
	lvl := tailLevel(len(samplesMs))
	r.e2e["latency_ms_p50"] = median(samplesMs)
	r.e2e["latency_ms_p90"] = percentile(append([]float64(nil), samplesMs...), 90)
	r.layer["ops.throughput_per_s"] = float64(len(samplesMs)) / (sum / 1e3)
	r.layer["ops.latency_ms_tail"] = percentile(append([]float64(nil), samplesMs...), lvl)
	r.layer["ops.latency_tail_pct"] = lvl
	r.notef("%s latency: n=%d, p50 %.4g ms, p90 %.4g ms, p%g %.4g ms (the highest percentile with ten samples beyond it, or the maximum)",
		what, len(samplesMs), r.e2e["latency_ms_p50"], r.e2e["latency_ms_p90"], lvl, r.layer["ops.latency_ms_tail"])
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the metrics object from values for exactly defs. A
// missing or non-finite value is an error: the benchmark never prints a
// result it could not measure.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printTable writes every metric by name and unit, sorted, for people.
func printTable(w io.Writer, title string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// machineFacts describes the hardware and toolchain a report was measured
// on.
func machineFacts() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// frac is part/whole, 0 when whole is 0.
func frac(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// emit prints the result line.
func emit(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// Each is defined per workload in README.md; none can read zero. Times
// are CPU times (steal excluded) scaled by the run's speed factor; the
// wall-clock forms are per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"units_per_cpu_s", "1/s"},
	{"op_cpu_ms_p50", "ms"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// layer the workload does not exercise reports 0 with no samples.
var perLayer = []metricDef{
	{"trace_overhead_frac", "frac"},
	// the operations' CPU tail, from the traced run's untraced phase
	{"op_cpu_ms_p90", "ms"},
	// wall clock, from the traced run's untraced phase
	{"wall.units_per_s", "1/s"},
	{"wall.op_ms_p50", "ms"},
	{"wall.op_ms_p90", "ms"},
	{"host.steal_frac", "frac"},
	{"host.calib_kernel_ms", "ms"},
	// sim / eventq
	{"scenario.simulate_ms", "ms"},
	{"scenario.generate_ms", "ms"},
	{"sim.events", "count"},
	{"sim.queue_max", "count"},
	{"sim.ns_per_event", "ns"},
	{"go.allocs_per_case", "count"},
	{"go.alloc_bytes_per_case", "B"},
	{"go.gc_cycles_per_case", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"sweep.speedup_2w", "x"},
	// modelled statistics: identical for identical inputs
	{"fabric.pfc_pauses", "count"},
	{"fabric.ecn_marks", "count"},
	{"telemetry.telemetry_bytes", "B"},
	{"telemetry.poll_bytes", "B"},
	{"telemetry.report_bytes", "B"},
	{"telemetry.notify_bytes", "B"},
	{"monitor.reports", "count"},
	{"collective.sim_time_ms", "ms"},
	// waitgraph / provenance / diagnose
	{"waitgraph.build_ms", "ms"},
	{"waitgraph.critical_path_ms", "ms"},
	{"provenance.build_ms", "ms"},
	{"diagnose.rate_ms", "ms"},
	{"diagnose.allocs_per_call", "count"},
	{"diagnose.alloc_bytes_per_call", "B"},
	{"waitgraph.vertices", "count"},
	{"waitgraph.edges", "count"},
	{"provenance.ports", "count"},
	{"provenance.flow_port_edges", "count"},
	{"diagnose.findings", "count"},
	// analyzerd and the wire protocol
	{"ingest.ack_ms_p50", "ms"},
	{"ingest.ack_ms_p99", "ms"},
	{"analyzerd.diagnose_ms_p50", "ms"},
	{"analyzerd.diagnose_ms_p90", "ms"},
	{"analyzerd.diagnose_copy_ms", "ms"},
	{"analyzerd.parse_us_per_msg", "us"},
	{"wire.line_bytes_per_msg", "B"},
	{"analyzerd.client.resubmitted", "count"},
	{"analyzerd.client.backpressure", "count"},
	{"analyzerd.server.duplicates", "count"},
	{"analyzerd.server.overloaded", "count"},
	// fleet
	{"fleet.router.forwarded", "count"},
	{"fleet.router.shard_down", "count"},
	{"fleet.router.rerouted", "count"},
	{"fleet.shard_skew", "x"},
	{"fleet.cpu_busy_frac", "frac"},
	{"fleet.drain_ms", "ms"},
}

// value is one measured metric: its value, how many samples it
// summarizes (1 for a count or a single ratio), and the power of the
// run's speed factor it is printed with (1 for a CPU time, -1 for a rate
// per CPU second, 0 for everything else).
type value struct {
	V      float64
	N      int
	cpuPow int
}

// report collects a run's metrics, the operations it attempted, and the
// output checks that failed.
type report struct {
	attempted int
	failed    int
	values    map[string]value
	failures  []string
	notes     []string
	// cal measures the machine's speed during the run; CPU times are
	// printed scaled to the calibrator's nominal speed.
	cal *calibrator
}

func newReport() *report { return &report{values: map[string]value{}, cal: newCalibrator()} }

// set records metric name with n samples behind it.
func (r *report) set(name string, v float64, n int) { r.values[name] = value{V: v, N: n} }

// setCPU records a CPU time (pow 1) or a rate per CPU second (pow -1) as
// measured; it is printed scaled to the nominal machine speed.
func (r *report) setCPU(name string, v float64, n, pow int) {
	r.values[name] = value{V: v, N: n, cpuPow: pow}
}

// op counts one attempted operation and whether it passed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// fail counts one failed operation and remembers why (the first few
// reasons are printed).
func (r *report) fail(format string, args ...any) {
	r.op(false)
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line printed before the metrics.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failedFrac is the share of attempted operations that failed or whose
// output check failed.
func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// resultLine is the final JSON object on standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the notes, one line per metric in defs (name, value, unit,
// sample count), and the JSON result line last. A metric in defs the run
// did not set is an error for end-to-end metrics and 0 with n=0 for
// per-layer ones.
func (r *report) write(w io.Writer, defs []metricDef, traced bool) error {
	for _, n := range r.notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	for _, f := range r.failures {
		if _, err := fmt.Fprintf(w, "check failed: %s\n", f); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "failed_frac %s frac n=%d\n", formatValue(r.failedFrac()), r.attempted); err != nil {
		return err
	}
	speed := r.cal.factor()
	if _, err := fmt.Fprintf(w, "calibration kernel_ms=%s n=%d speed_factor=%s (CPU times below are measured × speed_factor)\n",
		formatValue(median(r.cal.samples)), len(r.cal.samples), formatValue(speed)); err != nil {
		return err
	}
	if traced {
		r.set("host.calib_kernel_ms", median(r.cal.samples), len(r.cal.samples))
	}
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		v.V *= math.Pow(speed, float64(v.cpuPow))
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("metric %s is not a number: %v", d.Name, v.V)
		}
		if _, err := fmt.Fprintf(w, "metric %-32s %16s %-5s n=%d\n", d.Name, formatValue(v.V), d.Unit, v.N); err != nil {
			return err
		}
		out.Metrics[d.Name] = metricValue{Value: v.V, Unit: d.Unit}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// opSamples are a timed loop's per-operation wall and CPU times, the
// work units the operations completed, and the peak RSS of each larger
// unit of work (a case group, a job, a fleet round).
type opSamples struct {
	units         int
	wallMs, cpuMs []float64
	wall, cpu     time.Duration
	rssMB         []float64
}

func (s *opSamples) add(units int, wall, cpu time.Duration) {
	s.units += units
	s.wallMs = append(s.wallMs, float64(wall)/1e6)
	s.cpuMs = append(s.cpuMs, float64(cpu)/1e6)
	s.wall += wall
	s.cpu += cpu
}

// endToEnd sets the CPU-time end-to-end metrics and peak_rss_mb, the
// median over units of work of their peak RSS: a median, so that one
// seed's largest job or one badly timed garbage collection does not set
// it.
func (s opSamples) endToEnd(r *report) {
	r.set("peak_rss_mb", median(s.rssMB), len(s.rssMB))
	r.setCPU("units_per_cpu_s", float64(s.units)/s.cpu.Seconds(), s.units, -1)
	r.setCPU("op_cpu_ms_p50", quantile(s.cpuMs, 0.5), len(s.cpuMs), 1)
}

// wallClock sets the wall-clock forms of the same metrics, the share of
// the machine the hypervisor stole meanwhile, and the operations' CPU
// tail. The tail is per-layer: on fleet-ingest the 90th percentile falls
// where the per-step batches heavy with telemetry reports start, and it
// moves by 40% from seed to seed.
func (s opSamples) wallClock(r *report, steal float64) {
	r.setCPU("op_cpu_ms_p90", quantile(s.cpuMs, 0.9), len(s.cpuMs), 1)
	r.set("wall.units_per_s", float64(s.units)/s.wall.Seconds(), s.units)
	r.set("wall.op_ms_p50", quantile(s.wallMs, 0.5), len(s.wallMs))
	r.set("wall.op_ms_p90", quantile(s.wallMs, 0.9), len(s.wallMs))
	r.set("host.steal_frac", steal, 1)
}

// formatValue prints a measured value with all its significant digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile returns the q-quantile of samples by linear interpolation
// between the closest ranks. samples need not be sorted; it is not
// modified.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// mean returns the arithmetic mean of samples (0 when empty).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// median is quantile 0.5.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

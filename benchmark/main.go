// Command benchrun is the repository benchmark: it drives one
// workload against the Vedrfolnir simulator, analyzer daemon or fleet for
// a fixed time, checks every output, and prints one metric per line
// followed by a JSON result line. Every number is measured from outside
// the program, by timing calls into each layer's exported functions and
// reading counters the program already exports.
//
// Build and run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload sim-sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced phase and prints the per-layer metrics, including the traced
// phase's overhead. README.md defines every metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options are one invocation's parameters.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workDir   string
	analyzerd string
}

// duration is the measured window.
func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"sim-sweep":     runSimSweep,
	"live-diagnose": runLiveDiagnose,
	"fleet-ingest":  runFleetIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// Diagnostics to stderr are best effort.
	errf := func(format string, args ...any) { _, _ = fmt.Fprintf(stderr, format, args...) }
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	fs.StringVar(&o.workDir, "work-dir", "", "directory for WALs and other run files (required)")
	fs.StringVar(&o.analyzerd, "analyzerd", "", "vedranalyzerd binary the fleet's shards run (fleet-ingest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok {
		errf("unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if trace != 0 && trace != 1 {
		errf("-trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if o.seconds <= 0 || o.workDir == "" {
		errf("-seconds must be positive and -work-dir set\n")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		errf("work dir: %v\n", err)
		return 1
	}
	r, err := drive(o)
	if err != nil {
		errf("%s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := r.write(stdout, defs, o.trace); err != nil {
		errf("%s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// setupRepeats is how many times each workload sets up; setup_s is the
// median, and only the last set-up's products are used.
const setupRepeats = 3

// repeatSetup runs build setupRepeats times, releasing every product but
// the last, and returns that product with the median set-up CPU seconds
// as cpu counts them.
func repeatSetup[T any](cpu func() time.Duration, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(last)
		}
		c0 := cpu()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, (cpu() - c0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

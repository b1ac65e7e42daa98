package perf

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sweep"
)

// CaseHistogram names the per-case wall-latency histogram RunSweepCurve
// records (in a registry of its own, so it never needs stage timers).
const CaseHistogram = "perf_case_ns"

// SweepCurveConfig parameterizes the worker-scaling workload.
type SweepCurveConfig struct {
	// Workers lists the pool sizes to measure; empty means 1..NumCPU
	// (deduplicated, ascending).
	Workers []int
	// Seeds is the number of contention cases per run (default 8).
	Seeds int
	// Repeat re-runs the whole job set per pool size and aggregates
	// (default 1).
	Repeat int
	// Registry, when set, installs the hot-path stage timers and receives
	// their histograms (one shared registry across pool sizes). Nil runs
	// the uninstrumented path that the rows are meant to measure.
	Registry *obs.Registry
	// Progress, when set, receives one line per finished pool size.
	Progress io.Writer
	// ExtraAllocsPerCase burns that many heap allocations per simulated
	// case — the CI canary proving the allocs gate actually fails a
	// regressed tree. Zero (always, outside the canary) adds nothing.
	ExtraAllocsPerCase int
}

// DefaultWorkerCounts returns the 1..NumCPU curve (always including 1).
func DefaultWorkerCounts() []int {
	n := runtime.NumCPU()
	out := make([]int, 0, n)
	for w := 1; w <= n; w++ {
		out = append(out, w)
	}
	return out
}

// allocSink keeps canary allocations live so the compiler cannot elide
// them; guarded because exec runs on every pool worker.
var (
	allocSinkMu sync.Mutex
	allocSink   [][]byte
)

// burnAllocs performs n distinct heap allocations and publishes them so
// they cannot be optimized away.
func burnAllocs(n int) {
	buf := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, make([]byte, 16))
	}
	allocSinkMu.Lock()
	allocSink = buf
	allocSinkMu.Unlock()
}

// benchName renders the canonical row name for a pool size, matching the
// historical BenchmarkSweepWorkersN naming so baselines stay comparable.
func benchName(workers int) string { return fmt.Sprintf("BenchmarkSweepWorkers%d", workers) }

// RunSweepCurve measures merged-sweep throughput of the Fig 9 contention
// subset at each pool size: cases/s, ns/case, allocs/bytes per case, and
// per-case wall-latency percentiles. GOMAXPROCS is raised to the pool
// size for each measurement (and restored); a pool the machine cannot
// actually parallelize is annotated EnvironmentLimited rather than
// silently published.
func RunSweepCurve(cfg scenario.Config, opts scenario.RunOptions, cc SweepCurveConfig) ([]SweepRow, error) {
	counts := append([]int(nil), cc.Workers...)
	if len(counts) == 0 {
		counts = DefaultWorkerCounts()
	}
	sort.Ints(counts)
	seeds := cc.Seeds
	if seeds <= 0 {
		seeds = 8
	}
	repeat := cc.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	now := NanoNow()
	if cc.Registry != nil {
		opts.Stages = obs.NewStages(cc.Registry, now)
	}
	caseReg := obs.NewRegistry()

	baseExec := sweep.Cases(cfg, opts)
	jobs := make([]sweep.Job, seeds)
	for i := range jobs {
		jobs[i] = sweep.Job{Kind: scenario.Contention, Seed: int64(i), System: scenario.Vedrfolnir}
	}

	rows := make([]SweepRow, 0, len(counts))
	prevW := -1
	for _, workers := range counts {
		if workers < 1 || workers == prevW {
			continue
		}
		prevW = workers
		// One histogram per pool size, so each row's percentiles cover
		// only its own runs.
		histName := fmt.Sprintf("%s_w%d", CaseHistogram, workers)
		caseHist := caseReg.Histogram(histName, "wall time of one simulated case (ns)", obs.WallBuckets())
		caseTimer := obs.NewTimer(caseHist, now)
		exec := func(job sweep.Job) (sweep.Result, error) {
			t0 := caseTimer.Begin()
			r, err := baseExec(job)
			caseTimer.End(t0)
			if cc.ExtraAllocsPerCase > 0 {
				burnAllocs(cc.ExtraAllocsPerCase)
			}
			return r, err
		}

		prev := runtime.GOMAXPROCS(0)
		if workers > prev {
			runtime.GOMAXPROCS(workers)
		}
		cases := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sw := NanoNow()
		for rep := 0; rep < repeat; rep++ {
			sum, err := sweep.Run(jobs, exec, sweep.Options{Workers: workers})
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			if len(sum.Failed) > 0 {
				runtime.GOMAXPROCS(prev)
				return nil, fmt.Errorf("perf: failed cases at workers=%d: %v", workers, sum.Failed)
			}
			cases += len(sum.Results)
		}
		elapsed := sw()
		runtime.ReadMemStats(&after)
		procs := runtime.GOMAXPROCS(0)
		if procs != prev {
			runtime.GOMAXPROCS(prev)
		}

		row := SweepRow{
			Bench:              benchName(workers),
			Workers:            workers,
			GoMaxProcs:         procs,
			Jobs:               len(jobs),
			Cases:              cases,
			CasesPerSec:        float64(cases) / (float64(elapsed) / 1e9),
			NsPerCase:          elapsed / int64(cases),
			AllocsPerCase:      int64(after.Mallocs-before.Mallocs) / int64(cases),
			BytesPerCase:       int64(after.TotalAlloc-before.TotalAlloc) / int64(cases),
			EnvironmentLimited: Limited(workers, procs, runtime.NumCPU()),
		}
		if s, ok := findSample(caseReg, histName); ok && s.Count > 0 {
			row.P50CaseMs = s.Quantile(0.50) / 1e6
			row.P95CaseMs = s.Quantile(0.95) / 1e6
			row.P99CaseMs = s.Quantile(0.99) / 1e6
		}
		rows = append(rows, row)
		if cc.Progress != nil {
			limited := ""
			if row.EnvironmentLimited {
				limited = " (environment-limited)"
			}
			_, _ = fmt.Fprintf(cc.Progress, "workers=%d: %.1f cases/s, %d allocs/case%s\n",
				workers, row.CasesPerSec, row.AllocsPerCase, limited)
		}
	}
	return rows, nil
}

// findSample returns the named metric's snapshot sample.
func findSample(r *obs.Registry, name string) (obs.Sample, bool) {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s, true
		}
	}
	return obs.Sample{}, false
}

// StageSummary renders the stage histograms in r (the canonical
// vedr_stage_* set plus the per-case histogram) as report rows, in
// display order.
func StageSummary(r *obs.Registry) []StageRow {
	var out []StageRow
	names := append([]string{}, obs.StageNames()...)
	for _, stage := range names {
		if s, ok := findSample(r, "vedr_stage_"+stage+"_ns"); ok && s.Count > 0 {
			out = append(out, StageRow{
				Stage:   stage,
				Count:   s.Count,
				TotalMs: float64(s.Sum) / 1e6,
				P50Us:   s.Quantile(0.50) / 1e3,
				P95Us:   s.Quantile(0.95) / 1e3,
				P99Us:   s.Quantile(0.99) / 1e3,
			})
		}
	}
	return out
}

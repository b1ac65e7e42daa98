package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/perf"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/sweep"
)

// simKinds are the four §IV-A anomaly constructions.
var simKinds = []scenario.AnomalyKind{
	scenario.Contention, scenario.Incast, scenario.PFCStorm, scenario.PFCBackpressure,
}

// simSeedsPerKind is how many distinct seeds each kind gets: the
// workload's case set is simKinds × simSeedsPerKind, enough distinct
// cases that the mix, not one seed's luck, sets the numbers.
const simSeedsPerKind = 32

// simWarmGroups is how many groups of four a set-up runs.
const simWarmGroups = 4

// drawSeeds returns n distinct case seeds derived from seed.
func drawSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1 << 20)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// simGroups returns the case set as groups of four jobs, one per kind at
// one seed. The measured loop runs one group per sweep.Run, so stopping
// at the deadline never leaves the kind mix lopsided.
func simGroups(seed int64) [][]sweep.Job {
	var groups [][]sweep.Job
	for _, s := range drawSeeds(seed, simSeedsPerKind) {
		g := make([]sweep.Job, 0, len(simKinds))
		for _, k := range simKinds {
			g = append(g, sweep.Job{Kind: k, Seed: s, System: scenario.Vedrfolnir})
		}
		groups = append(groups, g)
	}
	return groups
}

// rowDigest is the identity of one merged sweep.Result row.
func rowDigest(r sweep.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

// rowFromScenario converts a scenario result into the sweep row the
// standard case executor (sweep.Cases) produces. The in-run reference
// rows come from here and the measured rows from sweep.Cases; their
// agreement checks sweep.Run's merging and ordering, while the expected
// file checks the results themselves.
func rowFromScenario(job sweep.Job, res scenario.Result) sweep.Result {
	return sweep.Result{
		Job:            job,
		Key:            job.Key(),
		Outcome:        res.Outcome,
		Completed:      res.Completed,
		TelemetryBytes: res.Overhead.TelemetryBytes,
		BandwidthBytes: res.Overhead.Bandwidth(),
		CollectiveTime: res.CollectiveTime,
		Detected:       len(res.Detected),
		Confidence:     res.Confidence,
		Samples:        slowdowns(res.Records),
	}
}

// slowdowns is each step's positive slowdown against the fastest step
// with the same index, in record order.
func slowdowns(recs []collective.StepRecord) []simtime.Duration {
	fastest := map[int]simtime.Duration{}
	for _, rec := range recs {
		d := rec.End.Sub(rec.Start)
		if cur, ok := fastest[rec.Step]; !ok || d < cur {
			fastest[rec.Step] = d
		}
	}
	var out []simtime.Duration
	for _, rec := range recs {
		if slow := rec.End.Sub(rec.Start) - fastest[rec.Step]; slow > 0 {
			out = append(out, slow)
		}
	}
	return out
}

// statsOf reads one run's modelled statistics from its result and the
// metrics registry it ran with.
func statsOf(res scenario.Result, reg *obs.Registry) modelStats {
	flat := reg.Flatten()
	return modelStats{
		PFCPauses:      flat["vedr_fabric_pfc_pauses_total"],
		ECNMarks:       flat["vedr_fabric_ecn_marks_total"],
		TelemetryBytes: res.Overhead.TelemetryBytes,
		PollBytes:      res.Overhead.PollBytes,
		ReportBytes:    res.Overhead.ReportBytes,
		NotifyBytes:    res.Overhead.NotifyBytes,
		Reports:        int64(res.ReportCount),
		SimTimeNs:      int64(res.CollectiveTime),
	}
}

// simCase is one reference or traced case: its row and modelled
// statistics.
type simCase struct {
	row   sweep.Result
	stats modelStats
}

// runCase runs one job on the direct path (GenerateCase, then
// scenario.Run with a metrics registry) and returns the result too.
func runCase(job sweep.Job, cfg scenario.Config, opts scenario.RunOptions) (simCase, scenario.Result, error) {
	cs, err := scenario.GenerateCase(job.Kind, job.Seed, cfg)
	if err != nil {
		return simCase{}, scenario.Result{}, err
	}
	reg := obs.NewRegistry()
	o := opts
	job.Params.Apply(&o)
	o.Obs = &obs.Scope{Metrics: reg}
	res, err := scenario.Run(cs, job.System, cfg, o)
	if err != nil {
		return simCase{}, scenario.Result{}, err
	}
	return simCase{row: rowFromScenario(job, res), stats: statsOf(res, reg)}, res, nil
}

// simExpectedFile holds the checked-in expected outputs of sim-sweep: for
// every bench seed it covers, one digest per case group. It pins the
// simulator's results, not just their agreement between two code paths
// of the same build: a change to the model that alters any row or
// modelled statistic fails the check. Regenerate it only with a
// deliberate model change:
//
//	go test -run TestSimExpectedDigests -update
//
//go:embed expected/sim-sweep.txt
var simExpectedFile string

// simExpectedSeeds are the bench seeds the expected file covers.
const simExpectedSeeds = 64

// simExpected maps bench seed → case seed → group digest.
type simExpected map[int64]map[int64]string

// parseSimExpected reads the expected file: '#' comment lines, then one
// "<bench seed> <case seed> <digest>" line per group.
func parseSimExpected(text string) (simExpected, error) {
	e := simExpected{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("expected/sim-sweep.txt:%d: want 3 fields, got %d", n, len(f))
		}
		seed, err1 := strconv.ParseInt(f[0], 10, 64)
		cs, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("expected/sim-sweep.txt:%d: bad seed", n)
		}
		if e[seed] == nil {
			e[seed] = map[int64]string{}
		}
		e[seed][cs] = f[2]
	}
	return e, sc.Err()
}

// writeSimExpected writes the expected file for bench seeds [0, n): every
// group's digest from the direct-path reference.
func writeSimExpected(w io.Writer, n int64) error {
	if _, err := fmt.Fprintf(w, "# sim-sweep expected outputs, bench seeds 0-%d: <bench seed> <case seed> <digest of\n"+
		"# the group's four rows and modelled statistics>. Regenerate only with a deliberate model\n"+
		"# change: go test -run TestSimExpectedDigests -update\n", n-1); err != nil {
		return err
	}
	for seed := int64(0); seed < n; seed++ {
		s := newSimRun(seed)
		ref, err := s.reference()
		if err != nil {
			return err
		}
		for _, g := range s.groups {
			var rows []string
			var stats []modelStats
			for _, j := range g {
				rows = append(rows, rowDigest(ref[j.Key()].row))
				stats = append(stats, ref[j.Key()].stats)
			}
			if _, err := fmt.Fprintf(w, "%d %d %s\n", seed, g[0].Seed, groupDigest(rows, stats)); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupDigest is the identity of one case group's outputs: each case's
// row digest and modelled statistics, in kind order.
func groupDigest(rows []string, stats []modelStats) string {
	h := sha256.New()
	for i := range rows {
		_, _ = fmt.Fprintf(h, "%s %+v\n", rows[i], stats[i]) // a hash's Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// simRun is the state of one sim-sweep invocation.
type simRun struct {
	seed   int64
	cfg    scenario.Config
	opts   scenario.RunOptions
	groups [][]sweep.Job
	exec   sweep.Exec
	// measured row digests by job key, in the order they were measured.
	measured []keyDigest
	// tracedStats are the traced phase's cases, by job key.
	tracedStats map[string]simCase
	// expected are the checked-in group digests of this seed (nil when
	// the file does not cover it).
	expected map[int64]string
}

type keyDigest struct{ key, digest string }

// loop runs groups through sweep.Run with the given exec and pool size
// until d has elapsed (at least one sweep), timing every case and
// recording every row's digest. per is how many groups go into one
// sweep. With one worker, a case's CPU time is the process's (the case
// and the garbage collector working for it); with more, it is not
// attributable and only wall times mean anything.
func (s *simRun) loop(d time.Duration, exec sweep.Exec, workers, per int, r *report) (opSamples, time.Duration, error) {
	var mu sync.Mutex
	var p opSamples
	timed := func(j sweep.Job) (sweep.Result, error) {
		t0, c0 := time.Now(), selfCPU()
		res, err := exec(j)
		wall, cpu := time.Since(t0), selfCPU()-c0
		mu.Lock()
		p.add(1, wall, cpu)
		if workers == 1 {
			r.cal.maybe()
		}
		mu.Unlock()
		return res, err
	}
	start := time.Now()
	for g := 0; g == 0 || time.Since(start) < d; g += per {
		var jobs []sweep.Job
		for i := 0; i < per; i++ {
			jobs = append(jobs, s.groups[(g+i)%len(s.groups)]...)
		}
		resetPeakRSS(os.Getpid())
		sum, err := sweep.Run(jobs, timed, sweep.Options{Workers: workers})
		if err != nil {
			return p, 0, err
		}
		p.rssMB = append(p.rssMB, peakRSSMB(os.Getpid()))
		for _, res := range sum.Results {
			if res.Err != "" {
				r.fail("case %s: %s", res.Key, res.Err)
				continue
			}
			s.measured = append(s.measured, keyDigest{res.Key, rowDigest(res)})
		}
	}
	return p, time.Since(start), nil
}

// reference computes every case's reference row and statistics on the
// direct path, one case per core at a time.
func (s *simRun) reference() (map[string]simCase, error) {
	var jobs []sweep.Job
	for _, g := range s.groups {
		jobs = append(jobs, g...)
	}
	var mu sync.Mutex
	ref := make(map[string]simCase, len(jobs))
	exec := func(j sweep.Job) (sweep.Result, error) {
		c, _, err := runCase(j, s.cfg, s.opts)
		if err != nil {
			return sweep.Result{}, err
		}
		mu.Lock()
		ref[j.Key()] = c
		mu.Unlock()
		return c.row, nil
	}
	sum, err := sweep.Run(jobs, exec, sweep.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	if len(sum.Failed) > 0 {
		return nil, fmt.Errorf("reference cases failed: %v", sum.Failed)
	}
	return ref, nil
}

// check compares every measured row against the reference and prints
// the per-kind precision and recall.
func (s *simRun) check(ref map[string]simCase, r *report) {
	for _, m := range s.measured {
		c, ok := ref[m.key]
		switch {
		case !ok:
			r.fail("case %s has no reference", m.key)
		case rowDigest(c.row) != m.digest:
			r.fail("case %s: merged row differs from the reference", m.key)
		default:
			r.op(true)
		}
	}
	// The traced phase ran with a metrics registry and the layer
	// decomposition; its modelled statistics must still equal the
	// reference's, case by case.
	keys := make([]string, 0, len(s.tracedStats))
	for k := range s.tracedStats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s.tracedStats[k].stats != ref[k].stats {
			r.fail("case %s: traced modelled statistics %+v differ from untraced %+v", k, s.tracedStats[k].stats, ref[k].stats)
		} else {
			r.op(true)
		}
	}
	for _, k := range simKinds {
		var met scenario.Metrics
		for _, g := range s.groups {
			for _, j := range g {
				if j.Kind == k {
					met.Add(ref[j.Key()].row.Outcome)
				}
			}
		}
		r.note("kind %-16s precision=%.3f recall=%.3f (TP=%d FP=%d FN=%d)",
			k, met.Precision(), met.Recall(), met.TP, met.FP, met.FN)
	}
	s.checkExpected(ref, r)
}

// checkExpected compares every fully measured group's rows, with the
// reference's modelled statistics, against the checked-in digest.
func (s *simRun) checkExpected(ref map[string]simCase, r *report) {
	if s.expected == nil {
		r.note("seed %d is not in expected/sim-sweep.txt (seeds 0-%d): its rows are checked only against the in-run reference", s.seed, simExpectedSeeds-1)
		return
	}
	first := map[string]string{}
	for _, m := range s.measured {
		if _, ok := first[m.key]; !ok {
			first[m.key] = m.digest
		}
	}
	for _, g := range s.groups {
		var rows []string
		var stats []modelStats
		for _, j := range g {
			if d, ok := first[j.Key()]; ok {
				rows = append(rows, d)
				stats = append(stats, ref[j.Key()].stats)
			}
		}
		if len(rows) < len(g) {
			continue // not measured, or a case failed (already counted)
		}
		want, ok := s.expected[g[0].Seed]
		switch {
		case !ok:
			r.fail("case seed %d has no expected digest", g[0].Seed)
		case groupDigest(rows, stats) != want:
			r.fail("case seed %d: rows or modelled statistics differ from expected/sim-sweep.txt", g[0].Seed)
		default:
			r.op(true)
		}
	}
}

// newSimRun builds the case set for seed and the standard executor over
// the perf bench configuration.
func newSimRun(seed int64) *simRun {
	cfg := perf.BenchConfig()
	opts := perf.BenchRunOptions(cfg)
	return &simRun{seed: seed, cfg: cfg, opts: opts, groups: simGroups(seed), exec: sweep.Cases(cfg, opts)}
}

func runSimSweep(o options) (*report, error) {
	expected, err := parseSimExpected(simExpectedFile)
	if err != nil {
		return nil, err
	}
	r := newReport()
	var s *simRun
	// Set-up: the case set, the standard executor, and a warm-up sweep of
	// simWarmGroups groups through the engine (heap and caches grown as in
	// steady state; enough cases that set-up time is not one seed's luck).
	_, setup, err := repeatSetup(selfCPU, func() (struct{}, error) {
		s = newSimRun(o.seed)
		var warm []sweep.Job
		for _, g := range s.groups[:simWarmGroups] {
			warm = append(warm, g...)
		}
		sum, err := sweep.Run(warm, s.exec, sweep.Options{Workers: 1})
		if err == nil && len(sum.Failed) > 0 {
			err = fmt.Errorf("warm-up cases failed: %v", sum.Failed)
		}
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	r.setCPU("setup_s", setup, setupRepeats, 1)
	s.expected = expected[o.seed]

	releaseSetup()
	if !o.trace {
		p, _, err := s.loop(o.duration(), s.exec, 1, 1, r)
		if err != nil {
			return nil, err
		}
		p.endToEnd(r)
	} else if err := s.traced(o, r); err != nil {
		return nil, err
	}
	ref, err := s.reference()
	if err != nil {
		return nil, err
	}
	s.check(ref, r)
	if o.trace {
		var total modelStats
		for _, g := range s.groups {
			for _, j := range g {
				total.add(ref[j.Key()].stats)
			}
		}
		total.report(r, len(ref))
	}
	var limited []string
	if runtime.NumCPU() <= 2 {
		limited = append(limited, "sweep.speedup_2w")
	}
	r.note("%s", environmentNote(limited, cpuSelf))
	r.set("ok_frac", 1-r.failedFrac(), r.attempted)
	return r, nil
}

// traced runs the three phases of a traced sim-sweep, each for a third of
// the window: untraced at one worker (the overhead, wall-clock and
// speed-up baseline), untraced at two workers, and traced at one worker.
func (s *simRun) traced(o options, r *report) error {
	third := o.duration() / 3
	steal := startSteal()
	base, baseWall, err := s.loop(third, s.exec, 1, 1, r)
	if err != nil {
		return err
	}
	base.wallClock(r, steal.frac())
	two, twoWall, err := s.loop(third, s.exec, 2, 2, r)
	if err != nil {
		return err
	}
	rate1 := float64(base.units) / baseWall.Seconds()
	rate2 := float64(two.units) / twoWall.Seconds()
	r.set("sweep.speedup_2w", rate2/rate1, two.units)

	var (
		genMs, simMs, events, qmax   []float64
		allocs, allocBytes, nsPerEvt []float64
		layers                       diagLayers
	)
	s.tracedStats = map[string]simCase{}
	// One worker: the exec runs on one goroutine at a time.
	exec := func(j sweep.Job) (sweep.Result, error) {
		g0 := readGC()
		t0 := selfCPU()
		cs, err := scenario.GenerateCase(j.Kind, j.Seed, s.cfg)
		if err != nil {
			return sweep.Result{}, err
		}
		gen := cpuMs(selfCPU() - t0)
		reg := obs.NewRegistry()
		opts := s.opts
		j.Params.Apply(&opts)
		opts.Obs = &obs.Scope{Metrics: reg}
		t1 := selfCPU()
		res, err := scenario.Run(cs, j.System, s.cfg, opts)
		if err != nil {
			return sweep.Result{}, err
		}
		run := cpuMs(selfCPU() - t1)
		g1 := readGC()
		layers.measure(analyzerInput(res.Records, res.Reports, res.CFs))
		simulate := run - layers.analyzeMs[len(layers.analyzeMs)-1]
		flat := reg.Flatten()
		ev := float64(flat["vedr_sim_events_total"])
		genMs = append(genMs, gen)
		simMs = append(simMs, simulate)
		events = append(events, ev)
		qmax = append(qmax, float64(flat["vedr_sim_event_queue_max"]))
		if ev > 0 {
			nsPerEvt = append(nsPerEvt, simulate*1e6/ev)
		}
		allocs = append(allocs, float64(g1.mallocs-g0.mallocs))
		allocBytes = append(allocBytes, float64(g1.bytes-g0.bytes))
		row := rowFromScenario(j, res)
		s.tracedStats[j.Key()] = simCase{row: row, stats: statsOf(res, reg)}
		return row, nil
	}
	gc0 := readGC()
	tr, _, err := s.loop(third, exec, 1, 1, r)
	if err != nil {
		return err
	}
	gc1 := readGC()
	cases := float64(tr.units)
	perCase := func(p opSamples) float64 { return p.cpu.Seconds() / float64(p.units) }
	r.set("trace_overhead_frac", perCase(tr)/perCase(base)-1, tr.units)
	r.note("share: GenerateCase+scenario.Run minus Analyze takes %.1f%% of case CPU",
		100*(mean(genMs)+mean(simMs))/(mean(genMs)+mean(simMs)+mean(layers.analyzeMs)))
	r.setCPU("scenario.generate_ms", mean(genMs), len(genMs), 1)
	r.setCPU("scenario.simulate_ms", mean(simMs), len(simMs), 1)
	r.set("sim.events", mean(events), len(events))
	r.set("sim.queue_max", mean(qmax), len(qmax))
	r.setCPU("sim.ns_per_event", mean(nsPerEvt), len(nsPerEvt), 1)
	r.set("go.allocs_per_case", mean(allocs), len(allocs))
	r.set("go.alloc_bytes_per_case", mean(allocBytes), len(allocBytes))
	r.set("go.gc_cycles_per_case", (gc1.cycles-gc0.cycles)/cases, tr.units)
	if busy := (gc1.gcCPU - gc0.gcCPU) + (gc1.userCPU - gc0.userCPU); busy > 0 {
		r.set("go.gc_cpu_frac", (gc1.gcCPU-gc0.gcCPU)/busy, tr.units)
	}
	layers.report(r)
	return nil
}

package perf

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
)

// fastConfig shrinks the simulation the same way the sweep and scenario
// test suites do, so a workload run fits in a unit test.
func fastConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = int64(1e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

func TestLimited(t *testing.T) {
	cases := []struct {
		workers, gomaxprocs, numCPU int
		want                        bool
	}{
		{1, 1, 1, false},
		{2, 2, 2, false},
		{2, 1, 8, true}, // GOMAXPROCS capped below the pool
		{4, 4, 1, true}, // machine has fewer cores than the pool
		{8, 8, 16, false},
	}
	for _, c := range cases {
		if got := Limited(c.workers, c.gomaxprocs, c.numCPU); got != c.want {
			t.Errorf("Limited(%d,%d,%d) = %v, want %v",
				c.workers, c.gomaxprocs, c.numCPU, got, c.want)
		}
	}
}

func TestSweepRowJSONSchema(t *testing.T) {
	row := SweepRow{
		Bench: "BenchmarkSweepWorkers2", Workers: 2, GoMaxProcs: 1,
		Jobs: 8, Cases: 8, CasesPerSec: 1.5, NsPerCase: 100, AllocsPerCase: 7,
		BytesPerCase: 9, EnvironmentLimited: true,
	}
	raw, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	// The historical nine-field schema must survive, plus the annotation.
	for _, key := range []string{
		`"bench"`, `"workers"`, `"gomaxprocs"`, `"jobs"`, `"cases"`,
		`"cases_per_sec"`, `"ns_per_case"`, `"allocs_per_case"`,
		`"bytes_per_case"`, `"environment_limited":true`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("marshaled row missing %s: %s", key, raw)
		}
	}
	// Zero percentiles and a false annotation stay out of the document,
	// so historical rows round-trip unchanged.
	row.EnvironmentLimited = false
	raw, err = json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"environment_limited", "p50_case_ms"} {
		if strings.Contains(string(raw), key) {
			t.Errorf("zero-valued %s must be omitted: %s", key, raw)
		}
	}
	var back SweepRow
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, back) {
		t.Errorf("round trip mismatch: %+v vs %+v", row, back)
	}
}

func TestCompareSweep(t *testing.T) {
	base := &Baseline{
		Tolerance: Tolerance{AllocsFrac: 0.01, NsFactor: 3.0},
		Sweep: []SweepRow{
			{Workers: 1, AllocsPerCase: 100000, NsPerCase: 1000, CasesPerSec: 10},
		},
	}
	ok := []SweepRow{{Workers: 1, AllocsPerCase: 100999, NsPerCase: 2999, CasesPerSec: 3.4}}
	if v := base.CompareSweep(ok); len(v) != 0 {
		t.Fatalf("within tolerance but got violations: %v", v)
	}
	// Improvements never fail, however large.
	better := []SweepRow{{Workers: 1, AllocsPerCase: 1, NsPerCase: 1, CasesPerSec: 1e6}}
	if v := base.CompareSweep(better); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
	// Rows absent from the baseline are ignored, not failed.
	novel := []SweepRow{{Workers: 9, AllocsPerCase: 1 << 40, NsPerCase: 1 << 40}}
	if v := base.CompareSweep(novel); len(v) != 0 {
		t.Fatalf("unbaselined worker count flagged: %v", v)
	}
	bad := []SweepRow{{Workers: 1, AllocsPerCase: 101001, NsPerCase: 3001, CasesPerSec: 3.2}}
	v := base.CompareSweep(bad)
	if len(v) != 3 {
		t.Fatalf("want 3 violations (allocs, ns, throughput), got %d: %v", len(v), v)
	}
	for _, want := range []string{"allocs/case", "ns/case", "cases/s"} {
		found := false
		for _, s := range v {
			if strings.Contains(s, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no violation mentions %s: %v", want, v)
		}
	}
}

func TestToleranceDefaults(t *testing.T) {
	got := Tolerance{}.WithDefaults()
	if got.AllocsFrac != 0.01 || got.NsFactor != 3.0 {
		t.Fatalf("zero tolerance defaults = %+v", got)
	}
	keep := Tolerance{AllocsFrac: 0.05, NsFactor: 5}
	if got := keep.WithDefaults(); got != keep {
		t.Fatalf("explicit tolerance rewritten: %+v", got)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := &Baseline{
		Note:      "test",
		Tolerance: Tolerance{AllocsFrac: 0.01, NsFactor: 3},
		Sweep:     []SweepRow{{Bench: "BenchmarkSweepWorkers1", Workers: 1, AllocsPerCase: 42}},
	}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Fatalf("round trip mismatch: %+v vs %+v", b, back)
	}
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
}

func TestRunSweepCurveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	reg := obs.NewRegistry()
	rows, err := RunSweepCurve(cfg, scenario.DefaultRunOptions(cfg), SweepCurveConfig{
		Workers:  []int{1, 1}, // dedup: two entries, one row
		Seeds:    2,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 row after dedup, got %d", len(rows))
	}
	r := rows[0]
	if r.Bench != "BenchmarkSweepWorkers1" || r.Workers != 1 || r.Cases != 2 {
		t.Fatalf("unexpected row: %+v", r)
	}
	if r.NsPerCase <= 0 || r.AllocsPerCase <= 0 || r.CasesPerSec <= 0 {
		t.Fatalf("non-positive measurements: %+v", r)
	}
	if r.EnvironmentLimited {
		t.Fatalf("workers=1 can never be environment-limited: %+v", r)
	}
	if r.P50CaseMs <= 0 || r.P99CaseMs < r.P50CaseMs {
		t.Fatalf("implausible percentiles: %+v", r)
	}
	// The stage registry collected real observations from the hot paths.
	summary := StageSummary(reg)
	if len(summary) == 0 {
		t.Fatal("no stage histograms observed anything")
	}
	seen := map[string]bool{}
	for _, s := range summary {
		if s.Count <= 0 {
			t.Errorf("stage %s has zero count in summary", s.Stage)
		}
		seen[s.Stage] = true
	}
	for _, stage := range []string{obs.StageEventPop, obs.StageFabricForward, obs.StageDiagnose} {
		if !seen[stage] {
			t.Errorf("stage %s missing from summary (saw %v)", stage, seen)
		}
	}
}

// Without a stage registry the sweep runs uninstrumented, yet the rows
// still carry per-case percentiles from the sweep's own histogram.
func TestRunSweepCurveWithoutStages(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	rows, err := RunSweepCurve(cfg, scenario.DefaultRunOptions(cfg), SweepCurveConfig{
		Workers: []int{1},
		Seeds:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.P50CaseMs <= 0 || r.P99CaseMs < r.P50CaseMs {
		t.Fatalf("implausible percentiles without stages: %+v", r)
	}
}

func TestRunSweepCurveCanaryBurnsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	run := func(extra int) SweepRow {
		t.Helper()
		rows, err := RunSweepCurve(cfg, scenario.DefaultRunOptions(cfg), SweepCurveConfig{
			Workers:            []int{1},
			Seeds:              2,
			ExtraAllocsPerCase: extra,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	clean := run(0)
	dirty := run(20000)
	// The burn makes n distinct allocations per case plus slice overhead;
	// anything clearly above the clean row proves the canary works.
	if dirty.AllocsPerCase < clean.AllocsPerCase+15000 {
		t.Fatalf("canary did not inflate allocs/case: clean %d, dirty %d",
			clean.AllocsPerCase, dirty.AllocsPerCase)
	}
}

func TestRunDiagnoseSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	reg := obs.NewRegistry()
	row, err := RunDiagnose(cfg, scenario.DefaultRunOptions(cfg), DiagnoseConfig{
		Iters:    3,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Iters != 3 || row.Records == 0 || row.Reports == 0 {
		t.Fatalf("unexpected row: %+v", row)
	}
	if row.NsPerDiag <= 0 || row.AllocsPerDiag <= 0 || row.P50Ms <= 0 {
		t.Fatalf("non-positive measurements: %+v", row)
	}
	if s, ok := findSample(reg, DiagHistogram); !ok || s.Count != 3 {
		t.Fatalf("diagnose histogram count = %v %v, want 3", s.Count, ok)
	}
	// Analyze was timed stage-by-stage too.
	if s, ok := findSample(reg, "vedr_stage_"+obs.StageWaitgraphBuild+"_ns"); !ok || s.Count == 0 {
		t.Fatal("waitgraph stage histogram empty during RunDiagnose")
	}
}

func TestIngestStreamOrderAndHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are slow")
	}
	cfg := fastConfig()
	cs, err := scenario.GenerateCase(scenario.Contention, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	msgs := ingestStream(res)
	want := len(res.CFs) + len(res.Records) + len(res.Reports)
	if len(msgs) != want {
		t.Fatalf("stream has %d messages, want %d", len(msgs), want)
	}
	for i, m := range msgs {
		if !strings.HasPrefix(m.host, "h") || len(m.host) != 3 {
			t.Fatalf("message %d has malformed host %q", i, m.host)
		}
		if m.send == nil {
			t.Fatalf("message %d has no send func", i)
		}
	}
}

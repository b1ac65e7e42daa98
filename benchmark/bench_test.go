package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the tests cross-check.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

func defsOf(ms []metricSpec) []metricDef {
	out := make([]metricDef, 0, len(ms))
	for _, m := range ms {
		out = append(out, metricDef{m.Name, m.Unit})
	}
	return out
}

// TestCatalogMatchesBenchmarkJSON pins the benchmark's metric and workload
// names to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if got := defsOf(s.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark prints %v", got, endToEnd)
	}
	if got := defsOf(s.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark prints %v", got, perLayer)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, workloadNames())
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2}} {
		if got := quantile(s, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(s, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", s)
	}
}

var (
	analyzerdOnce sync.Once
	analyzerdDir  string
	analyzerdPath string
	analyzerdErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if analyzerdDir != "" {
		_ = os.RemoveAll(analyzerdDir) // scratch binary
	}
	os.Exit(code)
}

// analyzerdBinary builds vedranalyzerd once for the fleet tests.
func analyzerdBinary(t *testing.T) string {
	t.Helper()
	analyzerdOnce.Do(func() {
		analyzerdDir, analyzerdErr = os.MkdirTemp("", "vedrbench-test")
		if analyzerdErr != nil {
			return
		}
		analyzerdPath = filepath.Join(analyzerdDir, "vedranalyzerd")
		out, err := exec.Command("go", "build", "-o", analyzerdPath, "vedrfolnir/cmd/vedranalyzerd").CombinedOutput()
		if err != nil {
			analyzerdErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if analyzerdErr != nil {
		t.Fatalf("build vedranalyzerd: %v", analyzerdErr)
	}
	return analyzerdPath
}

// runBench runs one workload at minimum length and returns its result
// line and the metric lines printed above it.
func runBench(t *testing.T, workload string, seed string, trace string) (resultLine, map[string]string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.05", "--trace", trace,
		"-work-dir", t.TempDir(), "-analyzerd", analyzerdBinary(t)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == "metric" && strings.HasPrefix(f[4], "n=") {
			printed[f[1]] = f[3]
		}
	}
	return res, printed
}

// TestSmokeEveryWorkload runs every workload at minimum length, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed, with its unit, on its own line and in the result line, and
// that every output check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range map[string][]metricSpec{"0": s.EndToEnd, "1": s.PerLayer} {
			res, printed := runBench(t, w.Name, "7", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: result metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if printed[m.Name] != m.Unit {
					t.Errorf("%s trace=%s: metric line for %s has unit %q, want %q", w.Name, trace, m.Name, printed[m.Name], m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetricSet: another seed gives other inputs and
// the same printed metric set.
func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	if reflect.DeepEqual(simGroups(1), simGroups(2)) {
		t.Error("sim-sweep case set does not depend on the seed")
	}
	if !reflect.DeepEqual(simGroups(3), simGroups(3)) {
		t.Error("sim-sweep case set is not a function of the seed")
	}
	a, err := makeBundles(1, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeBundles(2, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := a[0].load()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].job == b[0].job || len(msgs) == 0 || len(a[0].spans) < 2 {
		t.Errorf("bundles do not depend on the seed: %v vs %v", a[0].job, b[0].job)
	}
	if testing.Short() {
		return
	}
	_, m1 := runBench(t, "live-diagnose", "1", "0")
	_, m2 := runBench(t, "live-diagnose", "2", "0")
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metric set differs between seeds: %v vs %v", m1, m2)
	}
}

// The canaries below break one output on purpose; the run must count it
// as failed.

var update = flag.Bool("update", false, "rewrite expected/sim-sweep.txt from the current build")

// TestSimExpectedDigests checks the first groups of a covered seed
// against expected/sim-sweep.txt, or with -update rewrites the file.
func TestSimExpectedDigests(t *testing.T) {
	text := simExpectedFile
	if *update {
		var buf bytes.Buffer
		if err := writeSimExpected(&buf, simExpectedSeeds); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("expected", "sim-sweep.txt"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		text = buf.String() // the binary embeds the file at build time
	}
	exp, err := parseSimExpected(text)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < simExpectedSeeds; seed++ {
		if len(exp[seed]) != simSeedsPerKind {
			t.Fatalf("expected/sim-sweep.txt has %d groups for seed %d, want %d", len(exp[seed]), seed, simSeedsPerKind)
		}
	}
	r := newReport()
	s := newSimRun(1)
	s.groups = s.groups[:2]
	s.expected = exp[1]
	if _, _, err := s.loop(time.Millisecond, s.exec, 1, 2, r); err != nil {
		t.Fatal(err)
	}
	ref, err := s.reference()
	if err != nil {
		t.Fatal(err)
	}
	s.check(ref, r)
	if r.failed != 0 || r.attempted != 2*len(simKinds)+2 {
		t.Errorf("seed 1: failed=%d of %d, want 0 of %d: %v", r.failed, r.attempted, 2*len(simKinds)+2, r.failures)
	}
}

// TestSimCanaryCorruptExpected: a corrupted checked-in digest must fail
// the run even though the in-run reference agrees.
func TestSimCanaryCorruptExpected(t *testing.T) {
	exp, err := parseSimExpected(simExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	s := newSimRun(2)
	s.groups = s.groups[:1]
	s.expected = map[int64]string{}
	for k, v := range exp[2] {
		s.expected[k] = v
	}
	s.expected[s.groups[0][0].Seed] = "corrupted"
	if _, _, err := s.loop(time.Millisecond, s.exec, 1, 1, r); err != nil {
		t.Fatal(err)
	}
	ref, err := s.reference()
	if err != nil {
		t.Fatal(err)
	}
	s.check(ref, r)
	if r.failed != 1 {
		t.Errorf("corrupted expected digest: failed=%d of %d, want 1", r.failed, r.attempted)
	}
}

func TestSimCanaryCorruptReference(t *testing.T) {
	r := newReport()
	s := newSimRun(5)
	s.groups = s.groups[:1]
	if _, _, err := s.loop(time.Millisecond, s.exec, 1, 1, r); err != nil {
		t.Fatal(err)
	}
	ref, err := s.reference()
	if err != nil {
		t.Fatal(err)
	}
	key := s.measured[0].key
	c := ref[key]
	c.row.Detected++ // a corrupted expected row
	ref[key] = c
	s.check(ref, r)
	if r.failed == 0 || r.failedFrac() <= 0 {
		t.Errorf("corrupted reference passed: failed=%d of %d", r.failed, r.attempted)
	}
}

func TestLiveCanaryCorruptDigest(t *testing.T) {
	r := newReport()
	bs, err := makeBundles(3, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := &liveRun{o: options{workDir: t.TempDir()}, bundles: bs}
	if err := l.expectDigests(); err != nil {
		t.Fatal(err)
	}
	l.expect[0][2] = "corrupted"
	if _, err := l.phase(time.Millisecond, false, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.failedFrac() <= 0 {
		t.Errorf("corrupted expected digest: failed=%d of %d, want 1", r.failed, r.attempted)
	}
}

func TestFleetCanaryDroppedMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet of shard processes; skipped in -short")
	}
	r := newReport()
	bs, err := makeBundles(4, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &fleetRun{o: options{workDir: t.TempDir(), analyzerd: analyzerdBinary(t)}, bundles: bs}
	fr, err := f.start()
	if err != nil {
		t.Fatal(err)
	}
	fr.clients[0].lost = map[int]bool{fr.clients[0].jobs[1][0][0] + 3: true}
	f.next = fr
	if _, err := f.phase(time.Millisecond, false, r); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failedFrac() <= 0 {
		t.Errorf("dropped message passed: failed=%d of %d", r.failed, r.attempted)
	}
}

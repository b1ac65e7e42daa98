package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB returns the peak resident set size (VmHWM) of process pid in
// MB, or 0 when /proc cannot tell (the process is gone, or not Linux).
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// selfCPU returns the CPU time this process has used, all threads, user
// and system. Time the hypervisor steals from the machine is not in it,
// which is why the benchmark's bounded metrics are CPU times: on a shared
// virtual machine, wall time moves with the neighbours' load.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time process pid has used: the sum, over its
// threads, of the scheduler's on-CPU nanoseconds (the first field of
// /proc/<pid>/task/<tid>/schedstat). Steal is not in it. Threads that
// have exited are not counted; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			if os.IsNotExist(err) {
				continue // the thread exited since the listing
			}
			return 0, err
		}
		first, _, _ := strings.Cut(string(raw), " ")
		ns, err := strconv.ParseInt(first, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// CPU sources, as the environment line names them.
const (
	cpuSelf          = "getrusage(self)"
	cpuSelfAndShards = "getrusage(self)+schedstat(shards)"
)

// stealTicks returns the machine's cumulative stolen and total CPU ticks
// from /proc/stat (zero when unavailable).
func stealTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// stole over an interval.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := stealTicks()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t := stealTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// resetPeakRSS restarts process pid's VmHWM accounting from its current
// RSS, so a later peakRSSMB(pid) covers only what ran after the call.
// Kernels without the clear_refs interface keep counting from process
// start.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0) // best effort; see above
}

// releaseSetup returns set-up's garbage to the OS before the measured
// window, so that it is not counted as the program's memory.
func releaseSetup() { debug.FreeOSMemory() }

// gcSample reads the runtime's cumulative GC counters: completed cycles,
// GC CPU seconds, user Go code CPU seconds, and the heap allocation
// totals.
type gcSample struct {
	cycles  float64
	gcCPU   float64
	userCPU float64
	mallocs uint64
	bytes   uint64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readGC() gcSample {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	num := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{
		cycles:  num(samples[0]),
		gcCPU:   num(samples[1]),
		userCPU: num(samples[2]),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// environmentNote is the run's environment line: what the host could and
// could not show, and where the CPU times come from.
func environmentNote(limited []string, cpuSource string) string {
	lim := "none"
	if len(limited) > 0 {
		lim = strings.Join(limited, ",")
	}
	return fmt.Sprintf("environment nproc=%d gomaxprocs=%d go=%s os=%s/%s network=loopback wal_fsync=off cpu=%s environment_limited=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuSource, lim)
}

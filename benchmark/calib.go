package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID: the calling OS thread's
// CPU time, in nanoseconds.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calibrator measures how fast the machine runs right now. Between
// operations, at most once per calibEvery, it runs a fixed kernel —
// hashing, map inserts and lookups, a sort, a binary heap — written
// against the standard library only and allocating nothing, on a locked
// OS thread, and records that thread's CPU time for the kernel's second,
// cache-warm pass. Neighbours on a shared host (a busy hyperthread
// sibling, a slower clock) slow the kernel as they slow the program, so
// CPU times divided by the kernel's median time over the run are steadier
// across runs than raw CPU times. Nothing in the repository can change
// the kernel's cost.
type calibrator struct {
	last    time.Time
	samples []float64
	buf     []byte
	keys    []uint64
	m       map[uint64]uint64
	src     []int
	scratch []int
	heap    []uint64
}

const (
	calibEvery = 100 * time.Millisecond
	// calibNominalMs is the kernel's time the printed CPU times are
	// scaled to: about what it takes on an idle 2-vCPU x86-64 guest.
	calibNominalMs = 2.0
)

func newCalibrator() *calibrator {
	const n = 1 << 12
	c := &calibrator{
		buf:     make([]byte, 32<<10),
		keys:    make([]uint64, n),
		m:       make(map[uint64]uint64, n),
		src:     make([]int, n),
		scratch: make([]int, n),
		heap:    make([]uint64, 0, n),
	}
	x := uint64(88172645463325252)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = x
		c.src[i] = int(x >> 1)
	}
	for i := range c.buf {
		c.buf[i] = byte(c.keys[i%n] >> 3)
	}
	return c
}

// maybe runs the kernel if calibEvery has passed since the last run.
func (c *calibrator) maybe() {
	if time.Since(c.last) < calibEvery {
		return
	}
	c.last = time.Now()
	c.samples = append(c.samples, c.run())
}

var calibSink uint64

// run executes the kernel twice and returns the second pass's thread CPU
// milliseconds.
func (c *calibrator) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c.kernel()
	t0 := threadCPU()
	c.kernel()
	return cpuMs(threadCPU() - t0)
}

// factor is the run's speed correction: the nominal kernel time over the
// run's median kernel time (1 when nothing was sampled).
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calibNominalMs / median(c.samples)
}

func (c *calibrator) kernel() {
	var acc uint64
	for r := 0; r < 2; r++ {
		sum := sha256.Sum256(c.buf)
		acc += uint64(sum[0])
		clear(c.m)
		for i, k := range c.keys {
			c.m[k] = uint64(i)
		}
		for _, k := range c.keys {
			acc += c.m[k^1] + c.m[k]
		}
		copy(c.scratch, c.src)
		sort.Ints(c.scratch)
		acc += uint64(c.scratch[len(c.scratch)/2])
		// A binary min-heap: push every key, pop half.
		c.heap = c.heap[:0]
		for _, k := range c.keys {
			c.heap = append(c.heap, k)
			for j := len(c.heap) - 1; j > 0; {
				p := (j - 1) / 2
				if c.heap[p] <= c.heap[j] {
					break
				}
				c.heap[p], c.heap[j] = c.heap[j], c.heap[p]
				j = p
			}
		}
		for i := 0; i < len(c.keys)/2; i++ {
			acc += c.heap[0]
			last := len(c.heap) - 1
			c.heap[0] = c.heap[last]
			c.heap = c.heap[:last]
			for j := 0; ; {
				l, rt, min := 2*j+1, 2*j+2, j
				if l < len(c.heap) && c.heap[l] < c.heap[min] {
					min = l
				}
				if rt < len(c.heap) && c.heap[rt] < c.heap[min] {
					min = rt
				}
				if min == j {
					break
				}
				c.heap[j], c.heap[min] = c.heap[min], c.heap[j]
				j = min
			}
		}
	}
	calibSink = acc
}

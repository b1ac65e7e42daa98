package obs

import (
	"bufio"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"

	"vedrfolnir/internal/simtime"
)

// Track ("process") IDs used across the tree, so every producer lands in
// a predictable Perfetto row group.
const (
	PidKernel     = 0 // event-loop bookkeeping
	PidCollective = 1 // per-host collective steps (tid = host node ID)
	PidMonitor    = 2 // per-host monitor activity (tid = host node ID)
	PidFabric     = 3 // switch-level events, PFC pause/resume (tid = switch node ID)
	PidAnalyzer   = 4 // diagnosis phases
	PidSweep      = 5 // sweep cases laid out in job order on the sim-time axis
)

// Arg is one "args" entry on a trace event: a string or int64 value.
// Floats are deliberately unsupported — their formatting is a determinism
// hazard; callers scale to integers (permille, nanoseconds) instead.
type Arg struct {
	Key   string
	str   string
	n     int64
	isStr bool
}

// I makes an integer arg.
func I(key string, v int64) Arg { return Arg{Key: key, n: v} }

// S makes a string arg.
func S(key, v string) Arg { return Arg{Key: key, str: v, isStr: true} }

type traceEvent struct {
	name string
	cat  string
	ph   byte // 'X' complete, 'i' instant, 'C' counter
	pid  int
	tid  int
	ts   simtime.Time
	dur  simtime.Duration
	args []Arg
}

// Tracer accumulates Chrome trace-event records keyed by sim time. Events
// are emitted in insertion order (the simulation is single-goroutine, so
// insertion order is deterministic); metadata records are sorted and
// written first. The zero Tracer is not usable — use NewTracer — but all
// methods are no-ops on a nil receiver, so call sites never branch.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	procs   map[int]string
	threads map[[2]int]string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{procs: map[int]string{}, threads: map[[2]int]string{}}
}

// NameProcess labels a track group ("process" in the trace-event model).
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NameThread labels one track within a group.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Span records a complete ('X') event covering [start, end] in sim time.
func (t *Tracer) Span(pid, tid int, cat, name string, start, end simtime.Time, args ...Arg) {
	if t == nil {
		return
	}
	dur := end.Sub(start)
	if dur < 0 {
		dur = 0
	}
	t.add(traceEvent{name: name, cat: cat, ph: 'X', pid: pid, tid: tid, ts: start, dur: dur, args: ownArgs(args)})
}

// Instant records a point ('i') event at sim time at.
func (t *Tracer) Instant(pid, tid int, cat, name string, at simtime.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.add(traceEvent{name: name, cat: cat, ph: 'i', pid: pid, tid: tid, ts: at, args: ownArgs(args)})
}

// Counter records a counter ('C') sample at sim time at; each arg becomes
// one series on the counter track.
func (t *Tracer) Counter(pid int, name string, at simtime.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.add(traceEvent{name: name, ph: 'C', pid: pid, ts: at, args: ownArgs(args)})
}

// ownArgs copies a variadic args slice into the recorded event, so the
// caller's slice never escapes: calls on a nil (disabled) tracer then
// allocate nothing.
func ownArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	return append([]Arg(nil), args...)
}

func (t *Tracer) add(e traceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events (metadata excluded).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON renders the trace as a Chrome trace-event JSON array, one
// event per line: metadata first (sorted by pid then tid), then events in
// insertion order. The rendering is fully deterministic: timestamps are
// integer-formatted microseconds with nanosecond fraction, and args keep
// their call-site order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[\n]\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(line)
	}

	var buf []byte
	pids := make([]int, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		buf = buf[:0]
		buf = append(buf, `{"name":"process_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":0,"args":{"name":`...)
		buf = strconv.AppendQuote(buf, t.procs[pid])
		buf = append(buf, "}}"...)
		emit(buf)
	}
	tids := make([][2]int, 0, len(t.threads))
	for key := range t.threads {
		tids = append(tids, key)
	}
	sort.Slice(tids, func(i, j int) bool {
		if tids[i][0] != tids[j][0] {
			return tids[i][0] < tids[j][0]
		}
		return tids[i][1] < tids[j][1]
	})
	for _, key := range tids {
		buf = buf[:0]
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(key[0]), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(key[1]), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = strconv.AppendQuote(buf, t.threads[key])
		buf = append(buf, "}}"...)
		emit(buf)
	}

	for _, e := range t.events {
		buf = buf[:0]
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, e.name)
		if e.cat != "" {
			buf = append(buf, `,"cat":`...)
			buf = strconv.AppendQuote(buf, e.cat)
		}
		buf = append(buf, `,"ph":"`...)
		buf = append(buf, e.ph)
		buf = append(buf, `","pid":`...)
		buf = strconv.AppendInt(buf, int64(e.pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(e.tid), 10)
		buf = append(buf, `,"ts":`...)
		buf = appendMicros(buf, int64(e.ts))
		if e.ph == 'X' {
			buf = append(buf, `,"dur":`...)
			buf = appendMicros(buf, int64(e.dur))
		}
		if e.ph == 'i' {
			buf = append(buf, `,"s":"t"`...)
		}
		if len(e.args) > 0 {
			buf = append(buf, `,"args":{`...)
			for i, a := range e.args {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendQuote(buf, a.Key)
				buf = append(buf, ':')
				if a.isStr {
					buf = strconv.AppendQuote(buf, a.str)
				} else {
					buf = strconv.AppendInt(buf, a.n, 10)
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		emit(buf)
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		_ = f.Close() // the write failure is the error worth returning
		return err
	}
	return f.Close()
}

// appendMicros formats ns as microseconds with exact nanosecond fraction
// ("1234.567") using only integer arithmetic — no float formatting on the
// determinism-critical path.
func appendMicros(buf []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		buf = append(buf, '-')
		ns = -ns
	}
	buf = strconv.AppendInt(buf, ns/1000, 10)
	frac := ns % 1000
	buf = append(buf, '.')
	buf = append(buf, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return buf
}

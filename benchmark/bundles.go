package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/perf"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sweep"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/wire"
)

// bundleConfig is the job the daemon workloads stream: the perf bench
// configuration on a 12-rank Ring AllReduce (264 step records per job).
func bundleConfig() scenario.Config {
	cfg := perf.BenchConfig()
	cfg.Ranks = 12
	cfg.Op = collective.AllReduce
	cfg.Alg = collective.Ring
	return cfg
}

// streamMsg is one monitor→analyzer message. Exactly one payload is set.
// Loaded from a job's file (bundle.load) it has been through a wire round
// trip: it is what the daemon ingests, and therefore what an expected
// diagnosis is built from.
type streamMsg struct {
	typ string
	rec collective.StepRecord
	rep *telemetry.Report
	cf  fabric.FlowKey
}

// send buffers m on rc.
func (m streamMsg) send(rc *analyzerd.ReliableClient) error {
	switch m.typ {
	case analyzerd.TypeStep:
		return rc.SendStep(m.rec)
	case analyzerd.TypeReport:
		return rc.SendReport(m.rep)
	default:
		return rc.SendCF(m.cf)
	}
}

// line renders m as the protocol line a ReliableClient named client sends
// with sequence number seq.
func (m streamMsg) line(client string, seq int64) ([]byte, error) {
	msg := analyzerd.Message{Type: m.typ, Seq: seq, Client: client}
	switch m.typ {
	case analyzerd.TypeStep:
		dto := wire.FromStepRecord(m.rec)
		msg.Step = &dto
	case analyzerd.TypeReport:
		dto := wire.FromReport(m.rep)
		msg.Report = &dto
	default:
		dto := wire.FromFlow(m.cf)
		msg.CF = &dto
	}
	return json.Marshal(msg)
}

// bundle is one simulated job: its telemetry as a message stream, kept on
// disk as the protocol lines a client sends, the stream's batches, and
// the job's modelled statistics. Keeping the streams on disk keeps the
// benchmark process's own resident memory small and fixed, so that peak_rss_mb
// follows the program rather than the benchmark's inputs.
type bundle struct {
	job   sweep.Job
	path  string
	spans [][2]int
	stats modelStats
}

// load reads the job's message stream back from its file, through
// analyzerd.ParseMessage and the wire conversions, as the daemon would.
func (b bundle) load() ([]streamMsg, error) {
	raw, err := os.ReadFile(b.path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	msgs := make([]streamMsg, 0, len(lines))
	for i, l := range lines {
		m, err := analyzerd.ParseMessage(l)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", b.path, i+1, err)
		}
		switch {
		case m.Type == analyzerd.TypeStep && m.Step != nil:
			msgs = append(msgs, streamMsg{typ: m.Type, rec: m.Step.Record()})
		case m.Type == analyzerd.TypeReport && m.Report != nil:
			msgs = append(msgs, streamMsg{typ: m.Type, rep: m.Report.Telemetry()})
		case m.Type == analyzerd.TypeCF && m.CF != nil:
			msgs = append(msgs, streamMsg{typ: m.Type, cf: m.CF.Key()})
		default:
			return nil, fmt.Errorf("%s:%d: unexpected %q message", b.path, i+1, m.Type)
		}
	}
	return msgs, nil
}

// store writes msgs to path, one protocol line each.
func store(path string, msgs []streamMsg) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, m := range msgs {
		l, err := m.line("", 0)
		if err == nil {
			_, err = w.Write(append(l, '\n'))
		}
		if err != nil {
			_ = f.Close() // the write error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// streamOf orders a job's telemetry the way hosts emit it: the collective
// flow census first (sorted), then step records and telemetry reports
// merged in simulated-time order (a record at its step's End, a report at
// its At; records first on ties, each kind in emission order).
func streamOf(res scenario.Result) []streamMsg {
	cfs := make([]fabric.FlowKey, 0, len(res.CFs))
	for f := range res.CFs {
		cfs = append(cfs, f)
	}
	sort.Slice(cfs, func(i, j int) bool { return cfs[i].String() < cfs[j].String() })
	msgs := make([]streamMsg, 0, len(cfs)+len(res.Records)+len(res.Reports))
	for _, f := range cfs {
		msgs = append(msgs, streamMsg{typ: analyzerd.TypeCF, cf: f})
	}
	i, j := 0, 0
	for i < len(res.Records) || j < len(res.Reports) {
		if j == len(res.Reports) || (i < len(res.Records) && res.Records[i].End <= res.Reports[j].At) {
			msgs = append(msgs, streamMsg{typ: analyzerd.TypeStep, rec: res.Records[i]})
			i++
			continue
		}
		msgs = append(msgs, streamMsg{typ: analyzerd.TypeReport, rep: res.Reports[j]})
		j++
	}
	return msgs
}

// stepSpans splits a job's stream into the batches its hosts report: one
// batch per collective step, ending with the message that completes the
// step on its last rank (the step's end in simulated time). The flow
// census rides in the first batch, and the reports that follow the final
// step's end in the last. A 12-rank Ring AllReduce has 22 steps, so every
// job is 22 batches, and two clients streaming jobs side by side stay
// aligned batch for batch.
func stepSpans(msgs []streamMsg) [][2]int {
	last := map[int]int{} // step index -> index of its last record
	for i, m := range msgs {
		if m.typ == analyzerd.TypeStep {
			last[m.rec.Step] = i
		}
	}
	ends := make([]int, 0, len(last))
	for _, i := range last {
		ends = append(ends, i+1)
	}
	sort.Ints(ends)
	if len(ends) == 0 {
		ends = append(ends, len(msgs))
	}
	ends[len(ends)-1] = len(msgs)
	out := make([][2]int, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// makeBundles simulates one job per seed drawn from seed, cycling through
// the four anomaly kinds, one job per core at a time, and stores their
// message streams under dir.
func makeBundles(seed int64, n int, dir string) ([]bundle, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := bundleConfig()
	opts := perf.BenchRunOptions(cfg)
	seeds := drawSeeds(seed, n)
	type made struct {
		b   bundle
		err error
	}
	res := sweep.RunTasks(n, runtime.NumCPU(), func(i int) made {
		job := sweep.Job{Kind: simKinds[i%len(simKinds)], Seed: seeds[i], System: scenario.Vedrfolnir}
		c, res, err := runCase(job, cfg, opts)
		if err == nil && !res.Completed {
			err = errors.New("collective did not complete")
		}
		if err != nil {
			return made{err: fmt.Errorf("bundle %s: %w", job.Key(), err)}
		}
		msgs := streamOf(res)
		path := filepath.Join(dir, fmt.Sprintf("job-%03d.jsonl", i))
		if err := store(path, msgs); err != nil {
			return made{err: err}
		}
		return made{b: bundle{job: job, path: path, spans: stepSpans(msgs), stats: c.stats}}
	})
	out := make([]bundle, 0, n)
	for _, m := range res {
		if m.err != nil {
			return nil, m.err
		}
		out = append(out, m.b)
	}
	return out, nil
}

// prefixInput is the analyzer input the daemon holds after ingesting
// msgs in order.
func prefixInput(msgs []streamMsg) diagnose.Input {
	var records []collective.StepRecord
	var reports []*telemetry.Report
	cfs := map[fabric.FlowKey]bool{}
	for _, m := range msgs {
		switch m.typ {
		case analyzerd.TypeStep:
			records = append(records, m.rec)
		case analyzerd.TypeReport:
			reports = append(reports, m.rep)
		default:
			cfs[m.cf] = true
		}
	}
	return analyzerInput(records, reports, cfs)
}

// bundleStats sums the modelled statistics of bs into r.
func bundleStats(bs []bundle, r *report) {
	var total modelStats
	for _, b := range bs {
		total.add(b.stats)
	}
	total.report(r, len(bs))
}

// parseCost times analyzerd.ParseMessage over every message of bs as a
// client named client would send it, returning CPU microseconds per
// message and mean line bytes.
func parseCost(bs []bundle, client string) (usPerMsg, bytesPerMsg float64, n int, err error) {
	var lines [][]byte
	total := 0
	for _, b := range bs {
		msgs, err := b.load()
		if err != nil {
			return 0, 0, 0, err
		}
		for i, m := range msgs {
			l, err := m.line(client, int64(i+1))
			if err != nil {
				return 0, 0, 0, err
			}
			lines = append(lines, l)
			total += len(l) + 1 // the newline frame
		}
	}
	t0 := selfCPU()
	for _, l := range lines {
		if _, err := analyzerd.ParseMessage(l); err != nil {
			return 0, 0, 0, err
		}
	}
	us := float64(selfCPU()-t0) / 1e3
	return us / float64(len(lines)), float64(total) / float64(len(lines)), len(lines), nil
}

// analyzeFresh is a from-scratch diagnose.Analyze of what the daemon holds
// after ingesting msgs.
func analyzeFresh(msgs []streamMsg) *diagnose.Diagnosis {
	return diagnose.Analyze(prefixInput(msgs))
}

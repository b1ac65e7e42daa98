package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vedrfolnir/internal/analyzerd"
)

const (
	// liveBundles is how many distinct jobs a live-diagnose run streams
	// (cycling through the four anomaly kinds).
	liveBundles = 96
	// liveClient is the operator's ReliableClient ID.
	liveClient = "operator/live"
)

// liveDaemon is one in-process analyzerd (WAL on, fsync off) with the
// operator's client connected to it.
type liveDaemon struct {
	srv *analyzerd.Server
	rc  *analyzerd.ReliableClient
	dir string
}

func startLiveDaemon(dir string) (*liveDaemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := analyzerd.DefaultServerConfig()
	cfg.Durability = &analyzerd.DurabilityConfig{Dir: dir, Fsync: analyzerd.FsyncOff}
	srv, err := analyzerd.ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	rc, err := analyzerd.NewReliableClient(srv.Addr(), analyzerd.ClientConfig{ID: liveClient})
	if err != nil {
		_ = srv.Close() // the client error is the one to report
		return nil, err
	}
	return &liveDaemon{srv: srv, rc: rc, dir: dir}, nil
}

func (d *liveDaemon) close() {
	_ = d.rc.Close()  // nothing is pending after the last Flush
	_ = d.srv.Close() // the WAL is scratch; a close error loses nothing
	_ = os.RemoveAll(d.dir)
}

// liveRun is the state of one live-diagnose invocation.
type liveRun struct {
	o       options
	bundles []bundle
	// expect[b][i] is the digest of a from-scratch Analyze over bundle
	// b's messages up to the end of batch i.
	expect  [][]string
	daemons int
	// next is the daemon the next job uses (the set-up's, at first).
	next *liveDaemon
}

func (l *liveRun) daemon() (*liveDaemon, error) {
	if d := l.next; d != nil {
		l.next = nil
		return d, nil
	}
	l.daemons++
	return startLiveDaemon(filepath.Join(l.o.workDir, fmt.Sprintf("live-%d", l.daemons)))
}

// livePhase is the outcome of one timed loop.
type livePhase struct {
	ops                   opSamples
	ackMs, diagMs         []float64
	copyMs                []float64
	resubmitted, pressure int
	duplicates, overload  int64
	layers                diagLayers
}

// phase streams jobs until d has elapsed (at least one job, every job
// whole). Each job gets a fresh daemon: its messages go out in batches,
// one per collective step as the hosts report them (stepSpans), each
// batch flushed (acked) and followed by Server.Diagnose — one
// operation, timed in wall and process CPU time — whose result is checked
// against the expected digest outside the timed region. Traced, each
// Diagnose is also decomposed by layer.
func (l *liveRun) phase(d time.Duration, traced bool, r *report) (livePhase, error) {
	var p livePhase
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		bi := k % len(l.bundles)
		b := l.bundles[bi]
		resetPeakRSS(os.Getpid())
		msgs, err := b.load()
		if err != nil {
			return p, err
		}
		dm, err := l.daemon()
		if err != nil {
			return p, err
		}
		for i, span := range b.spans {
			t0, c0 := time.Now(), selfCPU()
			var sendErr error
			for _, m := range msgs[span[0]:span[1]] {
				if sendErr = m.send(dm.rc); sendErr != nil {
					break
				}
			}
			if sendErr == nil {
				sendErr = dm.rc.Flush()
			}
			t1, c1 := time.Now(), selfCPU()
			if sendErr != nil {
				r.fail("job %s batch %d: %v", b.job.Key(), i, sendErr)
				break
			}
			diag := dm.srv.Diagnose()
			t2, c2 := time.Now(), selfCPU()
			p.ops.add(span[1]-span[0], t2.Sub(t0), c2-c0)
			p.ackMs = append(p.ackMs, float64(t1.Sub(t0))/1e6)
			p.diagMs = append(p.diagMs, cpuMs(c2-c1))
			r.cal.maybe()
			got, err := diagDigest(diag)
			switch {
			case err != nil:
				r.fail("job %s batch %d: %v", b.job.Key(), i, err)
			case got != l.expect[bi][i]:
				r.fail("job %s batch %d: Server.Diagnose differs from Analyze of the same prefix", b.job.Key(), i)
			default:
				r.op(true)
			}
			if traced {
				// Server.Diagnose's own work beyond Analyze: the copy of
				// the ingested state under the server lock.
				p.layers.measure(prefixInput(msgs[:span[1]]))
				p.copyMs = append(p.copyMs, cpuMs(c2-c1)-p.layers.analyzeMs[len(p.layers.analyzeMs)-1])
			}
		}
		p.ops.rssMB = append(p.ops.rssMB, peakRSSMB(os.Getpid()))
		p.resubmitted += dm.rc.Stats.Resubmitted
		p.pressure += dm.rc.Stats.Backpressure
		st := dm.srv.Stats()
		p.duplicates += st.Duplicates
		p.overload += st.Overloaded
		dm.close()
	}
	return p, nil
}

// expectDigests computes, for every job and batch, the digest of a
// from-scratch Analyze over the job's messages up to the batch's end.
func (l *liveRun) expectDigests() error {
	l.expect = l.expect[:0]
	for _, b := range l.bundles {
		msgs, err := b.load()
		if err != nil {
			return err
		}
		var digests []string
		for _, span := range b.spans {
			dg, err := diagDigest(analyzeFresh(msgs[:span[1]]))
			if err != nil {
				return err
			}
			digests = append(digests, dg)
		}
		l.expect = append(l.expect, digests)
	}
	return nil
}

func runLiveDiagnose(o options) (*report, error) {
	r := newReport()
	l := &liveRun{o: o}
	jobs := filepath.Join(o.workDir, "live-jobs")
	defer os.RemoveAll(jobs) // scratch copies of the inputs
	// Set-up: simulate the jobs, bring up the daemon and its client.
	dm, setup, err := repeatSetup(selfCPU, func() (*liveDaemon, error) {
		bs, err := makeBundles(o.seed, liveBundles, jobs)
		if err != nil {
			return nil, err
		}
		l.bundles = bs
		l.daemons++
		return startLiveDaemon(filepath.Join(o.workDir, fmt.Sprintf("live-%d", l.daemons)))
	}, func(d *liveDaemon) { d.close() })
	if err != nil {
		return nil, err
	}
	l.next = dm
	r.setCPU("setup_s", setup, setupRepeats, 1)

	if err := l.expectDigests(); err != nil {
		return nil, err
	}

	releaseSetup()
	if !o.trace {
		p, err := l.phase(o.duration(), false, r)
		if err != nil {
			return nil, err
		}
		p.ops.endToEnd(r)
	} else {
		steal := startSteal()
		c0 := selfCPU()
		base, err := l.phase(o.duration()/2, false, r)
		if err != nil {
			return nil, err
		}
		baseCPU := selfCPU() - c0
		base.ops.wallClock(r, steal.frac())
		c1 := selfCPU()
		p, err := l.phase(o.duration()/2, true, r)
		if err != nil {
			return nil, err
		}
		tracedCPU := selfCPU() - c1
		perMsg := func(cpu time.Duration, q livePhase) float64 { return cpu.Seconds() / float64(q.ops.units) }
		r.set("trace_overhead_frac", perMsg(tracedCPU, p)/perMsg(baseCPU, base)-1, p.ops.units)
		r.set("ingest.ack_ms_p50", quantile(p.ackMs, 0.5), len(p.ackMs))
		r.set("ingest.ack_ms_p99", quantile(p.ackMs, 0.99), len(p.ackMs))
		r.setCPU("analyzerd.diagnose_ms_p50", quantile(p.diagMs, 0.5), len(p.diagMs), 1)
		r.setCPU("analyzerd.diagnose_ms_p90", quantile(p.diagMs, 0.9), len(p.diagMs), 1)
		r.setCPU("analyzerd.diagnose_copy_ms", mean(p.copyMs), len(p.copyMs), 1)
		r.note("share: Server.Diagnose takes %.1f%% of operation CPU", 100*mean(p.diagMs)*float64(len(p.diagMs))/(p.ops.cpu.Seconds()*1e3))
		r.set("analyzerd.client.resubmitted", float64(p.resubmitted), 1)
		r.set("analyzerd.client.backpressure", float64(p.pressure), 1)
		r.set("analyzerd.server.duplicates", float64(p.duplicates), 1)
		r.set("analyzerd.server.overloaded", float64(p.overload), 1)
		p.layers.report(r)
		us, bytes, n, err := parseCost(l.bundles, liveClient)
		if err != nil {
			return nil, err
		}
		r.setCPU("analyzerd.parse_us_per_msg", us, n, 1)
		r.set("wire.line_bytes_per_msg", bytes, n)
		bundleStats(l.bundles, r)
	}
	r.note("%s", environmentNote(nil, cpuSelf))
	r.set("ok_frac", 1-r.failedFrac(), r.attempted)
	return r, nil
}

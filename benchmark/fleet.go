package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/fleet"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/wire"
)

const (
	// fleetShards is the fleet width; fleetClients the number of
	// concurrent closed-loop clients (one per shard, and no more than the
	// two cores the benchmark host is assumed to have).
	fleetShards  = 2
	fleetClients = 2
	// fleetBundles is how many distinct jobs a run streams; a round (one
	// fleet) streams fleetRoundJobs of them, the next round the next
	// ones, split between the clients.
	fleetBundles   = 96
	fleetRoundJobs = 16
)

// fleetClient is one closed-loop sender with its round's message list:
// jobs[j] are job j's per-step batches (one Flush each), as spans of msgs.
type fleetClient struct {
	id   string
	msgs []streamMsg
	jobs [][][2]int
	rc   *analyzerd.ReliableClient
	// lost lists messages (by index in msgs) the client skips while still
	// counting them as sent: the must-fail canary's dropped messages.
	lost map[int]bool
}

// flushBatch sends msgs[lo:hi] and waits for their acks.
func (c *fleetClient) flushBatch(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if c.lost[i] {
			continue
		}
		if err := c.msgs[i].send(c.rc); err != nil {
			return err
		}
	}
	return c.rc.Flush()
}

// fleetRound is one running fleet with its clients connected and warmed
// up: every client has sent its first job, and every shard has received
// traffic.
type fleetRound struct {
	fl      *fleet.Fleet
	dir     string
	clients []*fleetClient
}

// cpu returns the CPU time of the processes running the round: this
// process (the router and the clients) plus the shard processes. With
// shardsFirst the shards are read before this process, otherwise after,
// so that the reads' own cost falls outside an interval measured from a
// shardsFirst reading to a later plain one.
func (fr *fleetRound) cpu(shardsFirst bool) (time.Duration, error) {
	var self time.Duration
	if !shardsFirst {
		self = selfCPU()
	}
	shards, err := fr.shardCPU()
	if err != nil {
		return 0, err
	}
	if shardsFirst {
		self = selfCPU()
	}
	return self + shards, nil
}

// shardCPU returns the CPU time the round's shard processes have used.
func (fr *fleetRound) shardCPU() (time.Duration, error) {
	var total time.Duration
	for i := 0; i < fleetShards; i++ {
		d, err := procCPU(fr.fl.Pid(i))
		if err != nil {
			return 0, fmt.Errorf("shard %d CPU: %w", i, err)
		}
		total += d
	}
	return total, nil
}

func (fr *fleetRound) close() {
	for _, c := range fr.clients {
		_ = c.rc.Close() // nothing is pending after the last Flush
	}
	fr.fl.Close()
	_ = os.RemoveAll(fr.dir)
}

// fleetRun is the state of one fleet-ingest invocation.
type fleetRun struct {
	o       options
	bundles []bundle
	rounds  int
	// next is the fleet the next round uses (the set-up's, at first).
	next *fleetRound
	// starting is the fleet start() is bringing up, for set-up's CPU
	// accounting (nil outside start).
	starting *fleetRound
}

// clientMsgs returns client i's message list for round, its share of the
// round's jobs, and each job's per-step batches as spans of the list.
func (f *fleetRun) clientMsgs(i, round int) ([]streamMsg, [][][2]int, error) {
	first := (round * fleetRoundJobs) % len(f.bundles)
	var msgs []streamMsg
	var jobs [][][2]int
	for b := i; b < fleetRoundJobs; b += fleetClients {
		bd := f.bundles[(first+b)%len(f.bundles)]
		job, err := bd.load()
		if err != nil {
			return nil, nil, err
		}
		off := len(msgs)
		spans := make([][2]int, 0, len(bd.spans))
		for _, sp := range bd.spans {
			spans = append(spans, [2]int{off + sp[0], off + sp[1]})
		}
		jobs = append(jobs, spans)
		msgs = append(msgs, job...)
	}
	return msgs, jobs, nil
}

// setupCPU is the CPU time of this process plus the shards of the fleet
// being started, if any: set-up's clock.
func (f *fleetRun) setupCPU() (time.Duration, error) {
	if f.starting == nil {
		return selfCPU(), nil
	}
	return f.starting.cpu(false)
}

// start brings up a fleet (router + supervised vedranalyzerd shards, WAL
// with fsync off), picks client IDs so each shard owns one client, sends
// each client's first job, and asserts from the router's tallies that
// every shard received traffic.
func (f *fleetRun) start() (*fleetRound, error) {
	f.rounds++
	dir := filepath.Join(f.o.workDir, fmt.Sprintf("fleet-%d", f.rounds))
	fl, err := fleet.Start(fleet.Config{
		BinPath:   f.o.analyzerd,
		Shards:    fleetShards,
		Dir:       dir,
		Fsync:     "off",
		HoldShard: -1,
	})
	if err != nil {
		return nil, err
	}
	fr := &fleetRound{fl: fl, dir: dir}
	f.starting = fr
	defer func() { f.starting = nil }()
	ids, err := idsPerShard(fl.Router())
	if err != nil {
		fr.close()
		return nil, err
	}
	for i, id := range ids {
		rc, err := analyzerd.NewReliableClient(fl.Addr(), analyzerd.ClientConfig{ID: id})
		if err != nil {
			fr.close()
			return nil, err
		}
		msgs, jobs, err := f.clientMsgs(i, f.rounds)
		if err != nil {
			_ = rc.Close() // the load error is the one to report
			fr.close()
			return nil, err
		}
		c := &fleetClient{id: id, msgs: msgs, jobs: jobs, rc: rc}
		fr.clients = append(fr.clients, c)
		for _, span := range jobs[0] {
			if err := c.flushBatch(span[0], span[1]); err != nil {
				fr.close()
				return nil, fmt.Errorf("warm-up %s: %w", id, err)
			}
		}
	}
	for s, t := range fl.Router().Tallies() {
		if t.Total() == 0 {
			fr.close()
			return nil, fmt.Errorf("shard %d received no traffic: the %d-shard figure would measure fewer shards", s, fleetShards)
		}
	}
	return fr, nil
}

// idsPerShard returns one client ID per shard, each owned by a different
// shard under the router's hash ring.
func idsPerShard(r *fleet.Router) ([]string, error) {
	ids := make([]string, fleetShards)
	found := 0
	for k := 0; k < 1000 && found < fleetShards; k++ {
		id := fmt.Sprintf("bench/c%d", k)
		if s := r.Owner(id); ids[s] == "" {
			ids[s] = id
			found++
		}
	}
	if found < fleetShards {
		return nil, fmt.Errorf("no client IDs cover all %d shards", fleetShards)
	}
	return ids, nil
}

func (f *fleetRun) round() (*fleetRound, error) {
	if fr := f.next; fr != nil {
		f.next = nil
		return fr, nil
	}
	return f.start()
}

// fleetPhase is the outcome of one timed loop.
type fleetPhase struct {
	ops opSamples
	// cpu is the fleet's CPU time over the phase's rounds: this
	// process's from each round's first operation to the end of its
	// checks, the shards' up to the drain.
	cpu       time.Duration
	ackMs     []float64
	busy      []float64
	skew      []float64
	drainMs   []float64
	forwarded int64
	shardDown int64
	rerouted  int64
	resub     int
	pressure  int
	layers    diagLayers
}

// phase runs rounds until d has elapsed (at least one). In a round the
// clients stream the rest of their jobs side by side, in lockstep: one
// operation is every client sending its job's next per-step batch
// concurrently and waiting for its acks. An operation is timed in wall
// and fleet CPU time (nothing else runs meanwhile, so its CPU time is its
// own), and each client's Flush is also timed on its own (the ack
// latency). Then the router's tallies are checked, the fleet is drained,
// and the drained bundle and diagnosis are checked.
func (f *fleetRun) phase(d time.Duration, traced bool, r *report) (fleetPhase, error) {
	var p fleetPhase
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		fr, err := f.round()
		if err != nil {
			return p, err
		}
		resetPeakRSS(os.Getpid()) // each round has its own shards
		t0 := time.Now()
		c0, err := fr.cpu(true)
		if err != nil {
			fr.close()
			return p, err
		}
		errs := make([]error, len(fr.clients))
		for j := 1; j < len(fr.clients[0].jobs); j++ { // job 0 was the warm-up
			steps := 0
			for _, c := range fr.clients {
				steps = max(steps, len(c.jobs[j]))
			}
			for step := 0; step < steps; step++ {
				o0 := time.Now()
				oc0, err := fr.cpu(true)
				if err != nil {
					fr.close()
					return p, err
				}
				units := fr.lockstep(j, step, errs, &p)
				wall := time.Since(o0)
				oc1, err := fr.cpu(false)
				if err != nil {
					fr.close()
					return p, err
				}
				p.ops.add(units, wall, oc1-oc0)
				r.cal.maybe()
				if err := errors.Join(errs...); err != nil {
					r.fail("round %d job %d step %d: %v", k, j, step, err)
				} else {
					r.op(true)
				}
			}
		}
		stream := time.Since(t0)
		c1, err := fr.cpu(false)
		if err != nil {
			fr.close()
			return p, err
		}
		p.busy = append(p.busy, (c1-c0).Seconds()/stream.Seconds())
		rss := peakRSSMB(os.Getpid())
		for i := 0; i < fleetShards; i++ {
			rss += peakRSSMB(fr.fl.Pid(i))
		}
		p.ops.rssMB = append(p.ops.rssMB, rss)
		for _, c := range fr.clients {
			p.resub += c.rc.Stats.Resubmitted
			p.pressure += c.rc.Stats.Backpressure
		}

		st := fr.fl.Router().Stats()
		p.forwarded += st.Forwarded
		p.shardDown += st.ShardDown
		p.rerouted += st.Rerouted
		want := sentCounts(fr.clients)
		tallies := fr.fl.Router().Tallies()
		p.skew = append(p.skew, skew(tallies))
		f.checkTallies(tallies, want, r)

		// The drain stops the shards, so their CPU time is read first.
		shards, err := fr.shardCPU()
		if err != nil {
			fr.close()
			return p, err
		}
		d0 := time.Now()
		merged, err := fr.fl.Drain(nil)
		p.drainMs = append(p.drainMs, msSince(d0))
		fr.close()
		if err != nil {
			r.fail("drain: %v", err)
		} else {
			f.checkDrained(merged, want, r)
			if traced {
				p.layers.measure(bundleInput(merged.Bundle))
			}
		}
		p.cpu += selfCPU() + shards - c0
	}
	return p, nil
}

// lockstep sends batch step of job j on every client concurrently, waits
// for the acks, and returns the messages sent. A client whose send failed
// (errs) sends nothing more. Every job has the same steps, so the clients
// stay aligned.
func (fr *fleetRound) lockstep(j, step int, errs []error, p *fleetPhase) int {
	units := 0
	acks := make([]float64, len(fr.clients))
	var wg sync.WaitGroup
	for i, c := range fr.clients {
		acks[i] = -1
		if j >= len(c.jobs) || step >= len(c.jobs[j]) || errs[i] != nil {
			continue
		}
		span := c.jobs[j][step]
		units += span[1] - span[0]
		wg.Add(1)
		go func(i int, c *fleetClient) {
			defer wg.Done()
			b0 := time.Now()
			if err := c.flushBatch(span[0], span[1]); err != nil {
				errs[i] = fmt.Errorf("client %s batch at %d: %w", c.id, span[0], err)
				return
			}
			acks[i] = msSince(b0)
		}(i, c)
	}
	wg.Wait()
	for _, a := range acks {
		if a >= 0 {
			p.ackMs = append(p.ackMs, a)
		}
	}
	return units
}

// sent counts what a round's clients sent, by payload type; CFs counts
// distinct collective flows (the merge keeps each flow once).
type sent struct{ records, reports, cfMsgs, cfs int }

func sentCounts(clients []*fleetClient) sent {
	var s sent
	distinct := map[fabric.FlowKey]bool{}
	for _, c := range clients {
		for _, m := range c.msgs {
			switch m.typ {
			case analyzerd.TypeStep:
				s.records++
			case analyzerd.TypeReport:
				s.reports++
			default:
				s.cfMsgs++
				distinct[m.cf] = true
			}
		}
	}
	s.cfs = len(distinct)
	return s
}

// skew is the busiest shard's acked total over the mean.
func skew(tallies []fleet.ShardTally) float64 {
	sum, top := 0, 0
	for _, t := range tallies {
		sum += t.Total()
		if t.Total() > top {
			top = t.Total()
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(tallies)))
}

// checkTallies: the router must have acknowledged every sent message
// exactly once, and every shard must have received traffic.
func (f *fleetRun) checkTallies(tallies []fleet.ShardTally, want sent, r *report) {
	var got sent
	for s, t := range tallies {
		if t.Total() == 0 {
			r.fail("shard %d received no traffic", s)
			return
		}
		got.records += t.Records
		got.reports += t.Reports
		got.cfMsgs += t.CFs
	}
	if got.records != want.records || got.reports != want.reports || got.cfMsgs != want.cfMsgs {
		r.fail("router tallies %d records/%d reports/%d cfs, sent %d/%d/%d",
			got.records, got.reports, got.cfMsgs, want.records, want.reports, want.cfMsgs)
		return
	}
	r.op(true)
}

// checkDrained: the drained bundle must hold every sent message once,
// and the drained diagnosis must equal a local Analyze of that bundle.
func (f *fleetRun) checkDrained(m *fleet.Merged, want sent, r *report) {
	b := m.Bundle
	if m.Degraded() || len(b.Records) != want.records || len(b.Reports) != want.reports || len(b.CFs) != want.cfs {
		r.fail("drained bundle %d records/%d reports/%d cfs (missing shards %v), sent %d/%d/%d",
			len(b.Records), len(b.Reports), len(b.CFs), m.Missing, want.records, want.reports, want.cfs)
	} else {
		r.op(true)
	}
	got, err1 := diagDigest(m.Diagnosis)
	local, err2 := diagDigest(b.Analyze())
	switch {
	case err1 != nil || err2 != nil:
		r.fail("diagnosis digest: %v %v", err1, err2)
	case got != local:
		r.fail("drained diagnosis differs from a local Analyze of the drained bundle")
	default:
		r.op(true)
	}
}

// bundleInput is the analyzer input wire.Bundle.Analyze builds.
func bundleInput(b *wire.Bundle) diagnose.Input {
	records := make([]collective.StepRecord, 0, len(b.Records))
	for _, rec := range b.Records {
		records = append(records, rec.Record())
	}
	reports := make([]*telemetry.Report, 0, len(b.Reports))
	for _, rep := range b.Reports {
		reports = append(reports, rep.Telemetry())
	}
	cfs := make(map[fabric.FlowKey]bool, len(b.CFs))
	for _, c := range b.CFs {
		cfs[c.Key()] = true
	}
	return analyzerInput(records, reports, cfs)
}

func runFleetIngest(o options) (*report, error) {
	if o.analyzerd == "" {
		return nil, fmt.Errorf("-analyzerd (the vedranalyzerd binary) is required")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		return nil, fmt.Errorf("fleet-ingest attributes CPU time to the shard processes through /proc/<pid>/task/*/schedstat: %w", err)
	}
	r := newReport()
	f := &fleetRun{o: o}
	jobs := filepath.Join(o.workDir, "fleet-jobs")
	defer os.RemoveAll(jobs) // scratch copies of the inputs
	var cpuErr error
	setupCPU := func() time.Duration {
		d, err := f.setupCPU()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return d
	}
	fr, setup, err := repeatSetup(setupCPU, func() (*fleetRound, error) {
		bs, err := makeBundles(o.seed, fleetBundles, jobs)
		if err != nil {
			return nil, err
		}
		f.bundles = bs
		return f.start()
	}, func(fr *fleetRound) { fr.close() })
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return nil, err
	}
	f.next = fr
	clientID := fr.clients[0].id
	r.setCPU("setup_s", setup, setupRepeats, 1)

	releaseSetup()
	if !o.trace {
		p, err := f.phase(o.duration(), false, r)
		if err != nil {
			return nil, err
		}
		p.ops.endToEnd(r)
	} else {
		steal := startSteal()
		base, err := f.phase(o.duration()/2, false, r)
		if err != nil {
			return nil, err
		}
		base.ops.wallClock(r, steal.frac())
		p, err := f.phase(o.duration()/2, true, r)
		if err != nil {
			return nil, err
		}
		// The traced phase adds work between rounds (the drained
		// bundle's layer decomposition); compare whole rounds.
		perMsg := func(q fleetPhase) float64 { return q.cpu.Seconds() / float64(q.ops.units) }
		r.set("trace_overhead_frac", perMsg(p)/perMsg(base)-1, p.ops.units)
		r.set("ingest.ack_ms_p50", quantile(p.ackMs, 0.5), len(p.ackMs))
		r.set("ingest.ack_ms_p99", quantile(p.ackMs, 0.99), len(p.ackMs))
		r.set("analyzerd.client.resubmitted", float64(p.resub), 1)
		r.set("analyzerd.client.backpressure", float64(p.pressure), 1)
		r.set("fleet.router.forwarded", float64(p.forwarded), 1)
		r.set("fleet.router.shard_down", float64(p.shardDown), 1)
		r.set("fleet.router.rerouted", float64(p.rerouted), 1)
		r.set("fleet.shard_skew", mean(p.skew), len(p.skew))
		r.set("fleet.cpu_busy_frac", mean(p.busy), len(p.busy))
		r.set("fleet.drain_ms", mean(p.drainMs), len(p.drainMs))
		p.layers.report(r)
		us, bytes, n, err := parseCost(f.bundles, clientID)
		if err != nil {
			return nil, err
		}
		r.setCPU("analyzerd.parse_us_per_msg", us, n, 1)
		r.set("wire.line_bytes_per_msg", bytes, n)
		bundleStats(f.bundles, r)
	}
	r.note("%s", environmentNote(nil, cpuSelfAndShards))
	r.set("ok_frac", 1-r.failedFrac(), r.attempted)
	return r, nil
}

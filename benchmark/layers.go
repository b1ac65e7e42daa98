package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/provenance"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/waitgraph"
	"vedrfolnir/internal/wire"
)

// diagDigest is the identity of a diagnosis: the hash of its exported
// JSON form, the bytes the daemon and the CLIs print.
func diagDigest(d *diagnose.Diagnosis) (string, error) {
	raw, err := json.Marshal(wire.FromDiagnosis(d))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// analyzerInput builds the analyzer's input the way the daemon and
// wire.Bundle do: records, reports and collective flows in arrival order,
// with the flow→step index rebuilt from the records (last write wins).
func analyzerInput(records []collective.StepRecord, reports []*telemetry.Report, cfs map[fabric.FlowKey]bool) diagnose.Input {
	index := make(map[fabric.FlowKey]waitgraph.StepRef, len(records))
	for _, rec := range records {
		index[rec.Flow] = waitgraph.StepRef{Host: rec.Host, Step: rec.Step}
	}
	return diagnose.Input{
		Records: records,
		Reports: reports,
		CFs:     cfs,
		StepOf: func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
			ref, ok := index[f]
			return ref, ok
		},
	}
}

// diagLayers accumulates the traced decomposition of diagnose.Analyze:
// each graph phase re-run and timed on its own through the exported
// waitgraph and provenance functions, Analyze timed whole, and the rest
// of Analyze (signature matching and the Eq. 2–3 ratings) as the
// difference. Times are process CPU times, like the end-to-end ones.
type diagLayers struct {
	analyzeMs, buildMs, critMs, provMs, rateMs []float64
	allocs, bytes                              []float64
	vertices, edges, ports, fpEdges, findings  []float64
}

// measure decomposes one Analyze call over in and returns its diagnosis.
func (l *diagLayers) measure(in diagnose.Input) *diagnose.Diagnosis {
	t0 := selfCPU()
	wg := waitgraph.Build(in.Records)
	t1 := selfCPU()
	wg.CriticalPath()
	t2 := selfCPU()
	graph := provenanceGraph(in)
	t3 := selfCPU()
	build, crit, prov := cpuMs(t1-t0), cpuMs(t2-t1), cpuMs(t3-t2)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t4 := selfCPU()
	d := diagnose.Analyze(in)
	analyze := cpuMs(selfCPU() - t4)
	runtime.ReadMemStats(&m1)

	l.analyzeMs = append(l.analyzeMs, analyze)
	l.buildMs = append(l.buildMs, build)
	l.critMs = append(l.critMs, crit)
	l.provMs = append(l.provMs, prov)
	l.rateMs = append(l.rateMs, analyze-build-crit-prov)
	l.allocs = append(l.allocs, float64(m1.Mallocs-m0.Mallocs))
	l.bytes = append(l.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	l.vertices = append(l.vertices, float64(len(wg.Vertices())))
	l.edges = append(l.edges, float64(len(wg.Edges())))
	l.ports = append(l.ports, float64(len(graph.Ports())))
	fp := 0
	for _, p := range graph.Ports() {
		for _, f := range graph.FlowsAt(p) {
			if graph.HasFlowPortEdge(f, p) {
				fp++
			}
		}
	}
	l.fpEdges = append(l.fpEdges, float64(fp))
	l.findings = append(l.findings, float64(len(d.Findings)))
	return d
}

// cpuMs converts a CPU duration to milliseconds.
func cpuMs(d time.Duration) float64 { return float64(d) / 1e6 }

// provenanceGraph builds the aggregate provenance graph as Analyze's
// phase 2 does: one graph per triggering step (plus one for reports no
// step claims), merged.
func provenanceGraph(in diagnose.Input) *provenance.Graph {
	byStep := map[waitgraph.StepRef][]*telemetry.Report{}
	var rest []*telemetry.Report
	for _, rep := range in.Reports {
		if ref, ok := in.StepOf(rep.TriggeredBy); ok {
			byStep[ref] = append(byStep[ref], rep)
			continue
		}
		rest = append(rest, rep)
	}
	refs := make([]waitgraph.StepRef, 0, len(byStep))
	for ref := range byStep {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Host != refs[j].Host {
			return refs[i].Host < refs[j].Host
		}
		return refs[i].Step < refs[j].Step
	})
	parts := make([]*provenance.Graph, 0, len(refs)+1)
	for _, ref := range refs {
		parts = append(parts, provenance.Build(byStep[ref], in.CFs))
	}
	parts = append(parts, provenance.Build(rest, in.CFs))
	return provenance.Merge(parts...)
}

// report writes the decomposition's means into r.
func (l *diagLayers) report(r *report) {
	n := len(l.analyzeMs)
	if n == 0 {
		return
	}
	r.setCPU("waitgraph.build_ms", mean(l.buildMs), n, 1)
	r.setCPU("waitgraph.critical_path_ms", mean(l.critMs), n, 1)
	r.setCPU("provenance.build_ms", mean(l.provMs), n, 1)
	r.setCPU("diagnose.rate_ms", mean(l.rateMs), n, 1)
	r.set("diagnose.allocs_per_call", mean(l.allocs), n)
	r.set("diagnose.alloc_bytes_per_call", mean(l.bytes), n)
	r.set("waitgraph.vertices", mean(l.vertices), n)
	r.set("waitgraph.edges", mean(l.edges), n)
	r.set("provenance.ports", mean(l.ports), n)
	r.set("provenance.flow_port_edges", mean(l.fpEdges), n)
	r.set("diagnose.findings", mean(l.findings), n)
}

// modelStats are the simulator's modelled statistics for one case. They
// depend only on the case, so they must not move under any change that
// leaves the model alone.
type modelStats struct {
	PFCPauses      int64
	ECNMarks       int64
	TelemetryBytes int64
	PollBytes      int64
	ReportBytes    int64
	NotifyBytes    int64
	Reports        int64
	SimTimeNs      int64
}

func (s *modelStats) add(o modelStats) {
	s.PFCPauses += o.PFCPauses
	s.ECNMarks += o.ECNMarks
	s.TelemetryBytes += o.TelemetryBytes
	s.PollBytes += o.PollBytes
	s.ReportBytes += o.ReportBytes
	s.NotifyBytes += o.NotifyBytes
	s.Reports += o.Reports
	s.SimTimeNs += o.SimTimeNs
}

// report writes the summed statistics of n cases into r.
func (s modelStats) report(r *report, n int) {
	r.set("fabric.pfc_pauses", float64(s.PFCPauses), n)
	r.set("fabric.ecn_marks", float64(s.ECNMarks), n)
	r.set("telemetry.telemetry_bytes", float64(s.TelemetryBytes), n)
	r.set("telemetry.poll_bytes", float64(s.PollBytes), n)
	r.set("telemetry.report_bytes", float64(s.ReportBytes), n)
	r.set("telemetry.notify_bytes", float64(s.NotifyBytes), n)
	r.set("monitor.reports", float64(s.Reports), n)
	r.set("collective.sim_time_ms", float64(s.SimTimeNs)/1e6, n)
}

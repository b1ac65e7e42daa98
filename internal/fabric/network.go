package fabric

import (
	"fmt"

	"vedrfolnir/internal/eventq"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// Config sets the data-plane behaviour shared by all switches.
type Config struct {
	// PFCPauseThreshold pauses an upstream link when the bytes attributed
	// to its ingress exceed this value (lossless operation).
	PFCPauseThreshold int64
	// PFCResumeThreshold resumes the upstream link when attributed bytes
	// fall to or below this value. Must be < PFCPauseThreshold.
	PFCResumeThreshold int64
	// ECNThreshold marks data packets CE when the egress queue they join
	// already holds at least this many bytes (DCQCN's Kmin≈Kmax simplification).
	ECNThreshold int64
	// TTL for forwarded packets; loops exhaust it.
	TTL int
}

// DefaultConfig mirrors shallow-buffered 100 Gbps RDMA switches, scaled to
// the simulator's 64 KiB default cell: pause at 4 cells of headroom, resume
// at half, mark ECN from 2 cells.
func DefaultConfig() Config {
	return Config{
		PFCPauseThreshold:  256 << 10,
		PFCResumeThreshold: 128 << 10,
		ECNThreshold:       128 << 10,
		TTL:                DefaultTTL,
	}
}

// Device consumes packets arriving at a node. Hosts (RDMA NICs) implement
// this; switches are internal to the fabric.
type Device interface {
	Receive(pkt *Packet, port int)
}

// Network binds a topology to running devices and simulates packet motion.
type Network struct {
	K    *sim.Kernel
	Topo *topo.Topology
	Cfg  Config

	devices  []Device
	switches []*Switch // indexed by NodeID; nil for hosts
	egress   [][]*egressPort

	// PFCLog records every pause/resume edge for provenance tracing.
	PFCLog []PFCEvent

	// Drops counts TTL-exhausted packets per switch (loop signature).
	Drops map[topo.NodeID]int64

	// Observer, when set, receives every data-packet queue transition —
	// the feed for the replay logs (internal/replay).
	Observer QueueObserver

	// Tap, when set, decides the fate of every control packet routed
	// through DeliverControl (fault injection). Nil delivers exactly one
	// on-time copy, identical to the pre-tap behaviour.
	Tap ControlTap

	// tForward is the wall-time stage timer around switch forwarding
	// decisions; nil (the default) no-ops and the packet outcome is
	// identical either way.
	tForward *obs.Timer

	// freePkts recycles data, ACK and CNP packets (NewPacket/Release).
	freePkts []*Packet
}

// Network event kinds (eventq.Event.Kind when To is the Network).
const (
	evTxDone   uint8 = iota // Node/Port finished serializing Ref; Aux is its ingress
	evArrive                // Ref lands on ingress Node/Port
	evPFC                   // a PFC frame lands on Node/Port; Aux 1 pauses, 0 resumes
	evDeliver               // control packet Ref reaches host Node (DeliverControl)
	evStormOn               // injected PFC storm starts at switch Node, ingress Port
	evStormOff              // ...and ends
)

// HandleEvent implements eventq.Owner: it runs one of the network's
// scheduled events.
func (n *Network) HandleEvent(ev eventq.Event) {
	node, port := topo.NodeID(ev.Node), int(ev.Port)
	switch ev.Kind {
	case evTxDone:
		n.txDone(node, port, queued{pkt: ev.Ref.(*Packet), ingress: int(ev.Aux)})
	case evArrive:
		n.arrive(node, port, ev.Ref.(*Packet))
	case evPFC:
		n.setPaused(node, port, ev.Aux == 1)
	case evDeliver:
		if d := n.devices[node]; d != nil {
			d.Receive(ev.Ref.(*Packet), -1)
		}
	case evStormOn:
		n.stormOn(node, port)
	case evStormOff:
		n.stormOff(node, port)
	}
}

// NewPacket returns a zeroed packet from the network's free list. Hosts
// allocate their data, ACK and CNP packets here and Release them once
// consumed, so steady-state traffic allocates no packets.
func (n *Network) NewPacket() *Packet {
	if k := len(n.freePkts); k > 0 {
		pkt := n.freePkts[k-1]
		n.freePkts = n.freePkts[:k-1]
		return pkt
	}
	return new(Packet)
}

// Release zeroes pkt and returns it to the free list. The caller must hold
// the last reference: a device releases a packet only after handling it,
// and never one it handed on (notifications reach monitors and fault
// taps, so they are not released).
func (n *Network) Release(pkt *Packet) {
	*pkt = Packet{}
	n.freePkts = append(n.freePkts, pkt)
}

// SetStages installs wall-time stage timers on the fabric hot path
// (perf observability); a nil bundle disables them.
func (n *Network) SetStages(st *obs.Stages) {
	if st == nil {
		n.tForward = nil
		return
	}
	n.tForward = st.FabricForward
}

// ControlTap decides a control packet's fate: each returned element is one
// delivered copy's extra latency on top of the path latency; an empty (or
// nil) slice drops the packet. internal/chaos implements this.
type ControlTap func(from, to topo.NodeID, pkt *Packet) []simtime.Duration

// QueueObserver consumes per-port queue transitions of data packets.
type QueueObserver interface {
	QueueEvent(node topo.NodeID, port int, enqueue bool, flow FlowKey, size int, at simtime.Time)
}

// PFCEvent is one pause or resume crossing a link, as needed for the
// e(p_i, p_j) edges of the provenance graph: Upstream is the halted egress
// port p_i; CauseEgress is the congested downstream egress p_j.
type PFCEvent struct {
	At          simtime.Time
	Pause       bool
	Upstream    topo.PortID // egress port being paused/resumed
	Downstream  topo.NodeID // switch that sent the PFC frame
	IngressPort int         // ingress of Downstream that crossed threshold
	CauseEgress int         // most-loaded egress of Downstream at that time
	Injected    bool        // true when generated by a PFC storm injector
}

// NewNetwork wires a network over t. Attach host devices before running.
func NewNetwork(k *sim.Kernel, t *topo.Topology, cfg Config) *Network {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	n := &Network{
		K:        k,
		Topo:     t,
		Cfg:      cfg,
		devices:  make([]Device, len(t.Nodes)),
		switches: make([]*Switch, len(t.Nodes)),
		egress:   make([][]*egressPort, len(t.Nodes)),
		Drops:    make(map[topo.NodeID]int64),
	}
	for _, node := range t.Nodes {
		ports := make([]*egressPort, len(node.Ports))
		for i := range ports {
			link := t.LinkAt(topo.PortID{Node: node.ID, Port: i})
			ports[i] = newEgressPort(node.ID, i, link.Bandwidth, link.Delay)
		}
		n.egress[node.ID] = ports
		if node.Kind == topo.KindSwitch {
			n.switches[node.ID] = newSwitch(n, node.ID, len(node.Ports))
		}
	}
	return n
}

// ECNMarksTotal sums the CE marks applied across every switch egress —
// the fabric-level congestion signal the observability layer snapshots
// after a run.
func (n *Network) ECNMarksTotal() int64 {
	var total int64
	for _, sw := range n.switches {
		if sw == nil {
			continue
		}
		for _, st := range sw.Stats {
			total += st.ECNMarks
		}
	}
	return total
}

// Attach registers the device handling packets that arrive at a host node.
// Only host nodes accept devices; attaching to a switch is an error.
func (n *Network) Attach(node topo.NodeID, d Device) error {
	if n.Topo.Node(node).Kind != topo.KindHost {
		return fmt.Errorf("fabric: Attach to non-host node %d", node)
	}
	n.devices[node] = d
	return nil
}

// SwitchAt returns the switch state for a switch node (nil for hosts).
// Telemetry collection reads counters through this.
func (n *Network) SwitchAt(node topo.NodeID) *Switch { return n.switches[node] }

// Egress exposes a node's egress port state read-only (telemetry, tests).
func (n *Network) Egress(node topo.NodeID, port int) *EgressView {
	return &EgressView{p: n.egress[node][port]}
}

// Inject hands pkt to node's forwarding logic as if it had just been
// generated there: hosts enqueue on their single uplink, switches route it.
func (n *Network) Inject(node topo.NodeID, pkt *Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = n.Cfg.TTL
	}
	if n.switches[node] != nil {
		t0 := n.tForward.Begin()
		n.switches[node].forward(pkt, -1)
		n.tForward.End(t0)
		return
	}
	n.enqueue(node, 0, -1, pkt)
}

// DeliverControl moves a highest-priority control packet from one host to
// another without touching the data queues, modelling the paper's
// "assigned the highest priority to avoid being affected by network
// congestion" notification packets. Latency is the path's propagation plus
// per-hop serialization of the small frame. It returns the hop count so the
// caller can account bandwidth overhead.
func (n *Network) DeliverControl(from, to topo.NodeID, pkt *Packet) int {
	path := n.Topo.Path(from, to, pkt.Flow.PathHash())
	var lat simtime.Duration
	for _, p := range path {
		l := n.Topo.LinkAt(p)
		lat += l.Delay + l.Bandwidth.Transmit(int64(pkt.Size))
	}
	ev := eventq.Event{To: n, Kind: evDeliver, Node: int32(to), Ref: pkt}
	if n.Tap == nil {
		n.K.AfterEvent(lat, ev)
		return len(path)
	}
	for _, extra := range n.Tap(from, to, pkt) {
		n.K.AfterEvent(lat+extra, ev)
	}
	return len(path)
}

// enqueue places pkt on the egress queue (node, port). ingress is the port
// the packet arrived on (-1 when locally generated) for PFC attribution.
func (n *Network) enqueue(node topo.NodeID, port, ingress int, pkt *Packet) {
	ep := n.egress[node][port]
	if sw := n.switches[node]; sw != nil {
		sw.noteEnqueue(ep, ingress, pkt)
	}
	if n.Observer != nil && !control(pkt.Kind) {
		n.Observer.QueueEvent(node, port, true, pkt.Flow, pkt.Size, n.K.Now())
	}
	ep.push(pkt, ingress)
	n.tryTransmit(node, port)
}

// tryTransmit starts serializing the head-of-line packet if the port is
// idle and not paused.
func (n *Network) tryTransmit(node topo.NodeID, port int) {
	ep := n.egress[node][port]
	if ep.busy || ep.paused || ep.empty() {
		return
	}
	ep.busy = true
	item := ep.pop()
	if n.Observer != nil && !control(item.pkt.Kind) {
		n.Observer.QueueEvent(node, port, false, item.pkt.Flow, item.pkt.Size, n.K.Now())
	}
	// Data leaving its origin NIC gets its RTT timestamp here — per-cell
	// RTT measures the network, not the sender's own queue ahead of the
	// cell (hardware NICs timestamp at wire departure).
	if n.switches[node] == nil && item.pkt.Kind == KindData {
		item.pkt.SentAt = int64(n.K.Now())
	}
	txTime := ep.bw.Transmit(int64(item.pkt.Size))
	n.K.AfterEvent(txTime, eventq.Event{
		To: n, Kind: evTxDone, Node: int32(node), Port: int32(port),
		Aux: int32(item.ingress), Ref: item.pkt,
	})
}

// txDone frees the port once item has been serialized, credits its ingress,
// schedules its arrival at the link's far end and starts the next packet.
func (n *Network) txDone(node topo.NodeID, port int, item queued) {
	ep := n.egress[node][port]
	ep.busy = false
	if sw := n.switches[node]; sw != nil {
		sw.noteDequeue(ep, item)
	}
	peer := n.Topo.PeerOf(topo.PortID{Node: node, Port: port})
	n.K.AfterEvent(ep.delay, eventq.Event{
		To: n, Kind: evArrive, Node: int32(peer.Node), Port: int32(peer.Port), Ref: item.pkt,
	})
	n.tryTransmit(node, port)
}

// arrive handles a packet landing at a node's ingress.
func (n *Network) arrive(node topo.NodeID, port int, pkt *Packet) {
	switch pkt.Kind {
	case KindPause, KindResume:
		n.setPaused(node, port, pkt.Kind == KindPause)
		return
	}
	if sw := n.switches[node]; sw != nil {
		t0 := n.tForward.Begin()
		sw.forward(pkt, port)
		n.tForward.End(t0)
		return
	}
	if d := n.devices[node]; d != nil {
		d.Receive(pkt, port)
	}
}

// setPaused pauses or resumes the egress (node, port) in response to a PFC
// frame received on that port's link.
func (n *Network) setPaused(node topo.NodeID, port int, paused bool) {
	ep := n.egress[node][port]
	if ep.paused == paused {
		return
	}
	now := n.K.Now()
	if paused {
		ep.pausedSince = now
	} else {
		ep.PausedTotal += now.Sub(ep.pausedSince)
	}
	ep.paused = paused
	if paused {
		ep.PauseCount++
	}
	if !paused {
		n.tryTransmit(node, port)
	}
}

// sendPFC emits a pause/resume frame from (node, ingressPort) to the
// upstream device on that link, recording it in the PFC log.
func (n *Network) sendPFC(node topo.NodeID, ingressPort int, pause bool, causeEgress int, injected bool) {
	up := n.Topo.PeerOf(topo.PortID{Node: node, Port: ingressPort})
	link := n.Topo.LinkAt(topo.PortID{Node: node, Port: ingressPort})
	n.PFCLog = append(n.PFCLog, PFCEvent{
		At:          n.K.Now(),
		Pause:       pause,
		Upstream:    up,
		Downstream:  node,
		IngressPort: ingressPort,
		CauseEgress: causeEgress,
		Injected:    injected,
	})
	var aux int32
	if pause {
		aux = 1
	}
	delay := link.Delay + link.Bandwidth.Transmit(int64(PFCSize))
	n.K.AfterEvent(delay, eventq.Event{To: n, Kind: evPFC, Node: int32(up.Node), Port: int32(up.Port), Aux: aux})
}

// EgressView is a read-only window on an egress port's state for telemetry
// and tests.
type EgressView struct{ p *egressPort }

// QueuedBytes returns the bytes currently queued.
func (v *EgressView) QueuedBytes() int64 { return v.p.bytes }

// Paused reports whether the port is currently PFC-paused.
func (v *EgressView) Paused() bool { return v.p.paused }

// PauseCount returns how many pause edges this port has seen.
func (v *EgressView) PauseCount() int64 { return v.p.PauseCount }

// PausedFor returns the cumulative paused duration.
func (v *EgressView) PausedFor(now simtime.Time) simtime.Duration {
	d := v.p.PausedTotal
	if v.p.paused {
		d += now.Sub(v.p.pausedSince)
	}
	return d
}

// FlowCounts returns a live read-only view of packets per flow currently in
// the queue. Callers must not mutate or retain it across events.
func (v *EgressView) FlowCounts() map[FlowKey]int { return v.p.pktsByFlow }

package fabric

import (
	"fmt"

	"vedrfolnir/internal/eventq"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// InjectPFCStorm makes the given switch port behave like the hardware bug
// of §II-B: from start, it continuously asserts PAUSE toward its upstream
// neighbour regardless of queue occupancy, and releases it after duration.
// Cascading backpressure then propagates through the normal PFC machinery.
// The injection point must be a switch.
func (n *Network) InjectPFCStorm(sw topo.NodeID, port int, start simtime.Time, duration simtime.Duration) error {
	if n.switches[sw] == nil {
		return fmt.Errorf("fabric: PFC storm injection point %d is not a switch", sw)
	}
	n.K.AtEvent(start, eventq.Event{To: n, Kind: evStormOn, Node: int32(sw), Port: int32(port)})
	n.K.AtEvent(start.Add(duration), eventq.Event{To: n, Kind: evStormOff, Node: int32(sw), Port: int32(port)})
	return nil
}

// stormOn force-pauses the upstream of the storm port.
func (n *Network) stormOn(sw topo.NodeID, port int) {
	s := n.switches[sw]
	s.stormPorts[port] = true
	if !s.pausedUpstream[port] {
		s.pausedUpstream[port] = true
		n.sendPFC(sw, port, true, s.busiestEgressFor(port), true)
	}
}

// stormOff ends the storm, resuming the upstream unless organic
// backpressure still holds it.
func (n *Network) stormOff(sw topo.NodeID, port int) {
	s := n.switches[sw]
	s.stormPorts[port] = false
	if s.pausedUpstream[port] && s.ingressBytes[port] <= n.Cfg.PFCResumeThreshold {
		s.pausedUpstream[port] = false
		n.sendPFC(sw, port, false, s.busiestEgressFor(port), true)
	}
}

// Package fabric is a per-packet package: closures handed to the kernel
// are flagged, typed events are not.
package fabric

import "kernelclosure/internal/sim"

type Network struct {
	K    *sim.Kernel
	busy bool
}

func (n *Network) txClosure() {
	n.K.After(100, func() { n.busy = false }) // want "func literal passed to Kernel.After allocates a closure"
}

func (n *Network) stormClosure() {
	n.K.At(5, func() { n.busy = true }) // want "func literal passed to Kernel.At allocates a closure"
}

func (n *Network) txTyped() {
	n.K.AfterEvent(100, sim.Event{Kind: 1, Ref: n})
}

func (n *Network) idle() { n.busy = false }

// A method value is not a literal; the rule targets inline closures.
func (n *Network) txMethodValue() {
	n.K.After(100, n.idle)
}

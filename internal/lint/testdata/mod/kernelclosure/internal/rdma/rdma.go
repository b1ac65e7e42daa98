// Package rdma is the other per-packet package.
package rdma

import "kernelclosure/internal/sim"

type Host struct{ K *sim.Kernel }

func (h *Host) pump(cells int) {
	for i := 0; i < cells; i++ {
		h.K.At(int64(i), func() {}) // want "func literal passed to Kernel.At"
	}
	h.K.AtEvent(int64(cells), sim.Event{Kind: 2, Ref: h})
}

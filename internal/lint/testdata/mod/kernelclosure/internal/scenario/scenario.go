// Package scenario is cold-path setup code: scheduling a closure here is
// legal.
package scenario

import "kernelclosure/internal/sim"

func Inject(k *sim.Kernel, start int64, kill func()) {
	k.At(start, func() { kill() })
}

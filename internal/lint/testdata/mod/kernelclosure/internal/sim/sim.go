// Package sim is a stand-in kernel with the scheduling surface hotalloc
// recognises: closure-taking At/After and typed AtEvent/AfterEvent.
package sim

// Event is a typed, allocation-free event record.
type Event struct {
	Kind uint8
	Ref  any
}

// Kernel schedules events.
type Kernel struct{ n int }

// At schedules fn at absolute time at.
func (k *Kernel) At(at int64, fn func()) { k.n++ }

// After schedules fn d after now.
func (k *Kernel) After(d int64, fn func()) { k.n++ }

// AtEvent schedules a typed event at absolute time at.
func (k *Kernel) AtEvent(at int64, ev Event) { k.n++ }

// AfterEvent schedules a typed event d after now.
func (k *Kernel) AfterEvent(d int64, ev Event) { k.n++ }

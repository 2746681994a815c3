// Package clock provides the time substrate for fungus decay.
//
// The paper's natural laws are phrased against "a periodic clock of T
// seconds". The engine's time is logical: the Clock interface is a
// monotonically non-decreasing sequence of Ticks that the caller
// advances — a deployment once per wall-clock period (fungusd's -period
// ticker calls DB.Tick), an experiment as fast as it likes.
// All decay dynamics in the repository depend only on tick counts, never
// on wall-clock durations, which is what makes the simulation faithful
// (see DESIGN.md, substitutions table).
package clock

import (
	"fmt"
	"sync"
)

// Tick is a logical instant. Tick 0 is the epoch; decay laws are applied
// at integer ticks.
type Tick uint64

// String implements fmt.Stringer.
func (t Tick) String() string { return fmt.Sprintf("t%d", uint64(t)) }

// Clock exposes the current logical time.
type Clock interface {
	// Now returns the current tick. It never decreases.
	Now() Tick
}

// Advancer is a Clock whose time is driven by the caller. The simulator
// and all tests use Advancers so runs are reproducible.
type Advancer interface {
	Clock
	// Advance moves the clock forward by n ticks and returns the new time.
	Advance(n uint64) Tick
}

// Virtual is a manually advanced clock. The zero value is ready to use
// and reads tick 0. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.RWMutex
	now Tick
}

// NewVirtual returns a Virtual clock positioned at start.
func NewVirtual(start Tick) *Virtual {
	return &Virtual{now: start}
}

// Now returns the current tick.
func (v *Virtual) Now() Tick {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.now
}

// Advance moves the clock forward n ticks and returns the new tick.
func (v *Virtual) Advance(n uint64) Tick {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now += Tick(n)
	return v.now
}

// Set jumps the clock to tick t. Set panics if t would move time
// backwards; logical time is monotone by contract.
func (v *Virtual) Set(t Tick) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t < v.now {
		panic(fmt.Sprintf("clock: Set(%v) would move time backwards from %v", t, v.now))
	}
	v.now = t
}

// Fixed is an immutable clock frozen at a single tick, useful for
// constructing snapshots "as of" a time.
type Fixed Tick

// Now returns the frozen tick.
func (f Fixed) Now() Tick { return Tick(f) }

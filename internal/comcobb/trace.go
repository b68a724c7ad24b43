package comcobb

import (
	"fmt"

	"damq/internal/obs"
)

// Event is one timestamped occurrence inside the chip, at clock-cycle and
// phase resolution — the unit Table 1 is written in.
type Event struct {
	Cycle int64
	Phase int // 0 or 1
	Unit  string
	Msg   string
}

// String renders the event in the style of the paper's Table 1.
func (e Event) String() string {
	return fmt.Sprintf("cycle %3d phase %d  %-12s %s", e.Cycle, e.Phase, e.Unit, e.Msg)
}

// Trace records chip events for timing assertions and the omegasim -exp
// chip demonstration. A nil *Trace discards events, so tracing costs
// nothing when disabled — the nil-guard convention the obs layer
// generalizes.
type Trace struct {
	Events []Event
	// Metrics, when non-nil, additionally counts each event under
	// "chip.events.<unit>" in an observer's registry (NewChip sets it
	// when a Config carries both a Trace and an Observer). Counting
	// happens inside add, which only runs behind the trace's own nil
	// guard, so it inherits the trace's cold-path status.
	Metrics *obs.Registry
}

// add records one event.
func (t *Trace) add(cycle int64, phase int, unit, format string, args ...any) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{Cycle: cycle, Phase: phase, Unit: unit, Msg: fmt.Sprintf(format, args...)})
	if t.Metrics != nil {
		t.Metrics.Counter("chip.events." + unit).Inc()
	}
}

// Find returns the first event whose unit and message match exactly, and
// whether one was found.
func (t *Trace) Find(unit, msg string) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	for _, e := range t.Events {
		if e.Unit == unit && e.Msg == msg {
			return e, true
		}
	}
	return Event{}, false
}

// FindAll returns every event for the given unit.
func (t *Trace) FindAll(unit string) []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, e := range t.Events {
		if e.Unit == unit {
			out = append(out, e)
		}
	}
	return out
}

package core

import "fmt"

// Monitor is a specification machine: it can receive notification events
// (via Context.Monitor) but never send. Safety monitors maintain a history
// of the computation and flag erroneous global behavior with
// MonitorContext.Assert. Liveness monitors additionally move between hot
// states (progress required but not yet made) and cold states (progress
// made); see §2.4–2.5 of the paper.
//
// Monitors execute synchronously inside the notifying machine's step, so
// they observe a consistent global order of notifications and introduce no
// scheduling points of their own.
type Monitor interface {
	Name() string
	Init(mc *MonitorContext)
	Handle(mc *MonitorContext, ev Event)
}

// MonitorContext is the API surface available to monitor code.
type MonitorContext struct {
	r       *Runtime
	mon     Monitor
	hot     bool
	hotName string // state or reason string for reports
	hotStep int    // r.steps when the monitor last became hot
}

// Assert flags a safety violation if cond is false.
func (mc *MonitorContext) Assert(cond bool, format string, args ...any) {
	if !cond {
		mc.r.failSafety(fmt.Sprintf("monitor %s: %s", mc.mon.Name(), fmt.Sprintf(format, args...)))
	}
}

// Hot marks the monitor hot: the system is now required to make progress.
// reason appears in liveness-violation reports.
func (mc *MonitorContext) Hot(reason string) {
	if !mc.hot {
		mc.hot = true
		mc.hotStep = mc.r.steps
	}
	if mc.hotName != reason {
		// A monitor-state transition: part of the coverage fingerprint
		// (the step number deliberately is not — it would make every
		// interleaving look novel).
		mc.r.covMix(1 ^ covString(reason))
	}
	mc.hotName = reason
}

// Cold marks the monitor cold: the awaited progress happened.
func (mc *MonitorContext) Cold() {
	if mc.hot {
		mc.r.covMix(2)
	}
	mc.hot = false
	mc.hotName = ""
}

// IsHot reports whether the monitor is currently in a hot state.
func (mc *MonitorContext) IsHot() bool { return mc.hot }

// Logf appends a line to the execution log (no-op unless log collection is
// enabled for this execution).
func (mc *MonitorContext) Logf(format string, args ...any) {
	if mc.r.logging() {
		b := append(mc.r.logLine(), "monitor "...)
		b = append(append(b, mc.mon.Name()...), ':', ' ')
		mc.r.logEnd(fmt.Appendf(b, format, args...))
	}
}

// MonitorSM is a Monitor implemented by a StateMachine whose states may be
// marked Hot. Entering a Hot state makes the monitor hot; entering any
// non-hot state makes it cold — exactly P#'s hot/cold monitor states.
type MonitorSM struct {
	SM *StateMachine[*MonitorContext]
}

// Name returns the underlying state machine's name.
func (m *MonitorSM) Name() string { return m.SM.name }

// Init wires hot/cold tracking and enters the initial state.
func (m *MonitorSM) Init(mc *MonitorContext) {
	m.SM.onTransition = func(c *MonitorContext, s *State[*MonitorContext]) {
		if s.Hot {
			c.Hot(s.Name)
		} else {
			c.Cold()
		}
	}
	m.SM.Start(mc)
}

// Handle dispatches the notification; unhandled notifications are safety
// violations, as for machines.
func (m *MonitorSM) Handle(mc *MonitorContext, ev Event) {
	if err := m.SM.Handle(mc, ev); err != nil {
		mc.Assert(false, "%v", err)
	}
}

// monitorEntry pairs a monitor with its context inside one runtime. name
// caches mon.Name() so the runtime's by-name lookup (findMonitor) scans
// entries without virtual calls; nameHash is covString(name), mixed into the
// fingerprint at every notification.
type monitorEntry struct {
	mon      Monitor
	name     string
	nameHash uint64
	mc       *MonitorContext
}

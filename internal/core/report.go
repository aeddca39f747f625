package core

import (
	"fmt"
	"strings"
)

// BugKind classifies a violation found by the testing engine.
type BugKind int

const (
	// SafetyBug: an assertion failed (machine-local assert, monitor
	// assert, unhandled event, or a panic in system-under-test code).
	SafetyBug BugKind = iota
	// LivenessBug: a liveness monitor was hot when the execution ended,
	// or still hot at twice the step bound after the fair tail (the
	// execution is treated as infinite).
	LivenessBug
	// DeadlockBug: no machine is enabled but at least one machine is
	// blocked in Receive waiting for an event that can no longer arrive.
	DeadlockBug
)

func (k BugKind) String() string {
	switch k {
	case SafetyBug:
		return "safety"
	case LivenessBug:
		return "liveness"
	case DeadlockBug:
		return "deadlock"
	default:
		return fmt.Sprintf("BugKind(%d)", int(k))
	}
}

// BugReport describes one violation, with enough context to understand and
// reproduce it: the classification, a message, the step at which it
// occurred, the machine that was executing, and the full decision trace
// (which Replay turns back into the identical execution).
type BugReport struct {
	Kind    BugKind
	Message string
	// Machine is the label of the machine executing when the bug fired
	// ("" for end-of-execution liveness checks).
	Machine string
	// Step is the scheduling step at which the bug fired.
	Step int
	// Iteration is the index of the buggy execution within its run.
	// Parallel runs report the bug with the lowest iteration index, so
	// for a fixed seed this is stable across worker counts whenever the
	// scheduler derives each execution purely from its iteration seed.
	Iteration int
	// Trace is the decision sequence of the buggy execution.
	Trace *Trace
	// Log holds the human-readable event log if collection was enabled
	// (the engine re-runs the buggy schedule with logging on).
	Log []string
}

// Error renders the report as a one-line summary.
func (b *BugReport) Error() string {
	where := ""
	if b.Machine != "" {
		where = " in " + b.Machine
	}
	return fmt.Sprintf("%s violation%s at step %d: %s", b.Kind, where, b.Step, b.Message)
}

// FormatLog renders the collected event log, one line per entry.
func (b *BugReport) FormatLog() string {
	if len(b.Log) == 0 {
		return "(no execution log collected)"
	}
	var sb strings.Builder
	for _, line := range b.Log {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// internal panic payloads used to unwind machine goroutines.

// haltSignal unwinds a goroutine when its machine halts itself.
type haltSignal struct{}

// killSignal unwinds a goroutine during runtime shutdown.
type killSignal struct{}

// bugSignal unwinds a goroutine after a violation has been recorded on the
// runtime; the report itself already lives in Runtime.bug.
type bugSignal struct{}

package gostorm

import (
	"github.com/gostorm/gostorm/internal/core"
)

// This file is the public model surface: the types a user needs to write
// a harness for their own system — machines, events, monitors, state
// machines, the fault plane — re-exported from the internal runtime as
// type aliases. Aliases (not wrappers) are deliberate: a core.Test built
// by an internal harness and a gostorm.Test built by user code are the
// same type, so the whole repository, including the bundled case
// studies, runs through the one public entry point (Explore) without
// conversion shims.

// Model types: the vocabulary for writing a system harness.
type (
	// Test describes one systematic test: an entry function that builds
	// the harness plus constructors for the specification monitors. See
	// core.Test for field documentation.
	Test = core.Test
	// Context is the API surface available to machine code: Send,
	// CreateMachine, Receive, RandomBool/RandomInt, the fault-plane
	// primitives (StartTimer, CrashPoint, SendUnreliable, ...), and
	// logging.
	Context = core.Context
	// Machine is the behavior of one concurrently executing component.
	Machine = core.Machine
	// Deferrer is the optional event-deferral interface a Machine can
	// implement (P#'s defer declaration).
	Deferrer = core.Deferrer
	// FuncMachine adapts plain functions to the Machine interface.
	FuncMachine = core.FuncMachine
	// Event is a message exchanged between machines or delivered to
	// monitors.
	Event = core.Event
	// Signal is an Event carrying nothing but its name — handy for simple
	// triggers and timer ticks: Signal("tick"). A constant Signal boxes
	// into an Event without allocating.
	Signal = core.Signal
	// MachineID identifies a machine within one execution.
	MachineID = core.MachineID
	// TimerID identifies a timer started with Context.StartTimer.
	TimerID = core.TimerID

	// Monitor is a specification machine: safety assertions and liveness
	// hot/cold states over notification events.
	Monitor = core.Monitor
	// MonitorContext is the API surface available to monitor code.
	MonitorContext = core.MonitorContext
	// MonitorSM is a Monitor implemented by a StateMachine with Hot
	// states.
	MonitorSM = core.MonitorSM

	// StateMachine is the P#-style state-machine skeleton: named states
	// with entry/exit actions, per-event handlers, goto-transitions,
	// deferred and ignored events.
	StateMachine[C any] = core.StateMachine[C]
	// State describes one state of a StateMachine.
	State[C any] = core.State[C]
	// SMachine adapts a StateMachine[*Context] to the Machine interface.
	SMachine = core.SMachine
	// MachineStats describes the static shape of a state-machine-based
	// component (the paper's Table 1 numbers).
	MachineStats = core.MachineStats

	// Faults budgets the scheduler-injected faults of one execution.
	Faults = core.Faults
	// FaultKind identifies the class of a fault choice point.
	FaultKind = core.FaultKind
	// FaultChoice describes one fault choice point presented to a
	// scheduler.
	FaultChoice = core.FaultChoice
	// DeliveryOutcome is the semantic outcome of a FaultDeliver choice.
	DeliveryOutcome = core.DeliveryOutcome
	// FaultInjector is the shared crash-injection machine: it offers
	// crashes until the budget is spent or, with Offers set, until that
	// many offers are made.
	FaultInjector = core.FaultInjector
)

// Result and reporting types.
type (
	// Result summarizes an Explore run: whether a bug was found, its
	// report and replayable trace, canonical statistics, and — for
	// portfolio runs — per-member attribution.
	Result = core.Result
	// MemberStats describes one portfolio member's share of a run.
	MemberStats = core.MemberStats
	// BugReport describes one violation with enough context to
	// understand and reproduce it.
	BugReport = core.BugReport
	// BugKind classifies a violation (safety, liveness, deadlock).
	BugKind = core.BugKind
	// Trace is the complete decision sequence of one execution,
	// sufficient to replay it exactly.
	Trace = core.Trace
	// Decision is one resolved nondeterministic choice.
	Decision = core.Decision
	// DecisionKind distinguishes the kinds of nondeterministic choices.
	DecisionKind = core.DecisionKind
	// ConfigError is the typed configuration error returned by Explore,
	// Replay and Resolve: Field names the Options field at fault
	// ("Options.Iterations", whichever option set it), Reason what is
	// wrong with it.
	ConfigError = core.ConfigError
)

// Scheduler extension surface: the types needed to register a custom
// exploration strategy (see RegisterScheduler).
type (
	// Scheduler resolves every nondeterministic choice of an execution:
	// which enabled machine runs, RandomBool/RandomInt, and every fault.
	Scheduler = core.Scheduler
	// LengthHinted is implemented by adaptive schedulers that accept the
	// engine's shared program-length estimate.
	LengthHinted = core.LengthHinted
	// FeedbackScheduler is implemented by coverage-guided schedulers: the
	// engine attaches the run's shared exploration corpus, which the
	// scheduler must treat as read-only.
	FeedbackScheduler = core.FeedbackScheduler
	// Corpus is the bounded, deterministically evolved set of interesting
	// trace prefixes a feedback scheduler mutates.
	Corpus = core.Corpus
)

// NoMachine is the "no machine" identifier (e.g. a declined CrashPoint).
const NoMachine = core.NoMachine

// Bug classifications.
const (
	SafetyBug   = core.SafetyBug
	LivenessBug = core.LivenessBug
	DeadlockBug = core.DeadlockBug
)

// Fault choice-point classes.
const (
	FaultTimer   = core.FaultTimer
	FaultCrash   = core.FaultCrash
	FaultDeliver = core.FaultDeliver
	FaultPersist = core.FaultPersist
)

// Delivery outcomes of a FaultDeliver choice.
const (
	Deliver   = core.Deliver
	Drop      = core.Drop
	Duplicate = core.Duplicate
)

// Decision kinds recorded in traces.
const (
	DecisionSchedule = core.DecisionSchedule
	DecisionBool     = core.DecisionBool
	DecisionInt      = core.DecisionInt
	DecisionTimer    = core.DecisionTimer
	DecisionCrash    = core.DecisionCrash
	DecisionDeliver  = core.DecisionDeliver
	DecisionPersist  = core.DecisionPersist
)

// TraceVersion is the trace format version this build writes.
const TraceVersion = core.TraceVersion

// NewStateMachine builds a state machine that starts in initial. The
// context type parameter C is *Context for ordinary machines and
// *MonitorContext for monitors. It panics on malformed specs (duplicate
// or missing states), since those are programming errors in the harness.
func NewStateMachine[C any](name, initial string, states ...*State[C]) *StateMachine[C] {
	return core.NewStateMachine[C](name, initial, states...)
}

// DecodeTrace parses a trace previously produced by Trace.Encode.
// Decoding is strict: an unknown version or decision kind is an error — a
// trace that cannot be fully understood cannot be faithfully replayed.
func DecodeTrace(data []byte) (*Trace, error) { return core.DecodeTrace(data) }

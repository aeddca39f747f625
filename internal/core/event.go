// Package core implements a systematic testing runtime for distributed
// systems modeled as communicating state machines, in the style of P#
// (Deligiannis et al., PLDI 2015; FAST 2016).
//
// A system under test is expressed as a set of Machines that exchange
// Events through FIFO inboxes. During testing the runtime serializes the
// whole system: exactly one machine runs at any instant, and control
// passes only at scheduling points — the Context operations that send,
// create a machine, receive, crash, restart, start or stop a timer, persist
// or sync (see Machine). A machine
// holds a coroutine only while one of its handlers is live; between
// handlers it owns no stack (see Runtime). Every source of nondeterminism
// — which machine runs next, the outcome of RandomBool/RandomInt choices,
// and the fault plane's timer firings, crash injections and delivery
// faults (see faults.go) — is resolved by a pluggable Scheduler and
// recorded in a Trace, which makes every execution exactly reproducible
// with the replay scheduler (Replay).
//
// Correctness criteria are expressed as safety monitors (global assertions
// over notification events) and liveness monitors (hot/cold states; an
// execution that ends, or exceeds the step bound, while a monitor is hot is
// a liveness violation — the bounded-infinite-execution heuristic of the
// paper's §2.5).
//
// Explore (and ExploreShard, for one range of the plan) repeatedly executes
// a Test from start to completion, each time exploring a potentially
// different schedule, until it finds a violation or exhausts its budget;
// every shape of run goes through the one exploration loop in loop.go.
package core

// Event is a message exchanged between machines, delivered to monitors, or
// used to model failures and timeouts. Concrete event types are ordinary
// structs carrying payload fields; Name returns a stable identifier used
// for handler dispatch, receive filters, and trace output.
type Event interface {
	Name() string
}

// Signal is an Event carrying nothing but its name — a trigger, a timer
// tick: Signal("tick"). Being a string, a constant Signal boxes into an
// Event without allocating.
type Signal string

// Name implements Event.
func (s Signal) Name() string { return string(s) }

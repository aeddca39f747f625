package core

import (
	"fmt"
	"strconv"
)

// MachineID identifies a machine within one execution. IDs are assigned in
// creation order, so they are deterministic for a fixed schedule.
type MachineID int32

// NoMachine is the zero-value "no machine" identifier.
const NoMachine MachineID = -1

func (id MachineID) String() string { return fmt.Sprintf("#%d", int32(id)) }

// Machine is the behavior of one concurrently executing component. A
// machine's Init runs once when the machine starts; Handle runs for every
// event dequeued from its inbox. Both receive a Context through which all
// interaction with the rest of the system must go (Send, CreateMachine,
// Receive, RandomBool, Halt, ...). Calling into another machine directly
// bypasses the scheduler and breaks systematic exploration; don't do it.
//
// A machine's inbox is FIFO. Handlers run to completion, but the Context
// operations that send, create a machine, receive, crash, restart, start or
// stop a timer, persist or sync are scheduling points where other machines
// may be interleaved. SendLast's is taken after the handler has returned, so
// Go code after it and the handler's deferred calls run before the machines
// scheduled next; only the machine's own state can tell, and no other
// machine may look at that.
type Machine interface {
	Init(ctx *Context)
	Handle(ctx *Context, ev Event)
}

// Deferrer is an optional interface a Machine can implement to defer
// events: a deferred event stays in the inbox (preserving order) and is
// skipped by dequeue until the machine stops deferring it, mirroring P#'s
// defer declaration. StateMachine implements it from per-state Defer lists.
type Deferrer interface {
	Deferred(ev Event) bool
}

// MachineStats describes the static shape of a state-machine-based
// component: the numbers reported in the paper's Table 1 (#states is folded
// into transitions there; we keep all three).
type MachineStats struct {
	Machine     string
	States      int
	Transitions int
	Handlers    int
}

// machineStatus tracks where a machine is in its lifecycle; it determines
// whether the machine is enabled (can be scheduled).
type machineStatus int8

const (
	// statusCreated: CreateMachine ran but the machine has not been
	// scheduled yet. Between handlers: it owns no stack. Always enabled
	// (its first step runs Init).
	statusCreated machineStatus = iota
	// statusRunning: mid-handler, suspended at a scheduling point on its
	// worker's stack — or on no stack at all: a timer between two steps of
	// its handler (see timerMachine), or a machine whose handler ended in
	// SendLast and returned, waiting for the step that takes it to its
	// loop top (machine.parked). Always enabled (the continuation can run).
	statusRunning
	// statusWaitDequeue: the event loop is waiting for the next event.
	// Between handlers: it owns no stack. Enabled iff the inbox holds a
	// non-deferred event.
	statusWaitDequeue
	// statusWaitReceive: mid-handler, blocked in Receive on its worker's
	// stack. Enabled iff the inbox holds an event matching the receive
	// predicate.
	statusWaitReceive
	// statusHalted: the machine is gone; events sent to it are dropped.
	statusHalted
)

// inbox is a machine's FIFO event queue, laid out as a head-indexed window
// over a reusable buffer. The live events are buf[head:]; dequeuing the
// front event advances head in O(1) instead of shifting the whole slice
// (the old []Event representation copied the tail on every dequeue — O(n)
// per event, O(n²) per busy machine). Removing a deferred-past or
// receive-matched event at position i shifts only the i skipped events in
// front of it, which deferral keeps small. The buffer is compacted when
// the dead prefix dominates and recycled across executions by the pooled
// engine, so a steady-state inbox allocates nothing.
type inbox struct {
	buf  []Event
	head int
}

// size returns the number of live events.
func (q *inbox) size() int { return len(q.buf) - q.head }

// at returns the i-th live event (0 = front).
func (q *inbox) at(i int) Event { return q.buf[q.head+i] }

// push appends ev, compacting the dead prefix when it dominates the
// buffer so the backing array stays proportional to the live window.
func (q *inbox) push(ev Event) {
	if q.head > 0 {
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		} else if q.head >= 16 && q.head*2 >= len(q.buf) {
			n := copy(q.buf, q.buf[q.head:])
			for i := n; i < len(q.buf); i++ {
				q.buf[i] = nil
			}
			q.buf = q.buf[:n]
			q.head = 0
		}
	}
	q.buf = append(q.buf, ev)
}

// removeAt removes and returns the i-th live event. The front event (the
// overwhelmingly common case — dequeue of a non-deferring machine) is O(1);
// otherwise the i events skipped in front of it are shifted right by one,
// preserving their order.
func (q *inbox) removeAt(i int) Event {
	j := q.head + i
	ev := q.buf[j]
	copy(q.buf[q.head+1:j+1], q.buf[q.head:j])
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return ev
}

// clear drops every event, nilling the slots so user events don't outlive
// the execution, but keeps the backing buffer for reuse.
func (q *inbox) clear() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// machine is the runtime's per-machine bookkeeping. The structs (and their
// inbox buffers and hosting coroutines) are recycled across executions by
// the pooled engine; createMachine re-arms every field that carries
// per-execution state, and scrub releases at death what must not outlive
// the machine.
// The field order clusters everything a scheduling step touches — status,
// crash/enabled bits, the hosting worker, the deferrer and the inbox — into
// the struct's first cache lines. A coroutine switch reenters this struct
// cold, and the hot-loop profile shows the resulting misses directly, so
// the cold tail (name, ctx, recvPred) deliberately sits last.
type machine struct {
	status machineStatus
	// crashed is set by the crash reaper just before resuming a machine
	// that is mid-handler so its stack unwinds via killSignal.
	crashed bool
	// timer records that the machine is a fault-plane timer: stackless — it
	// has no impl and never gets a worker; whoever reaches a scheduling
	// point that picks it runs stepTimer on tm. It is set at
	// createTimer/createMachine/Restart and survives the machine's death,
	// so StopTimer can keep validating its target after the timer halted;
	// a *live* stackless timer is timer && status != statusHalted.
	timer bool
	// parked records that the machine's handler called SendLast, or that
	// a timer has made the self-send that ends its Init or Handle: from
	// then until the handler returns, every Context call but a pure read is
	// reported as misuse, and once it has returned the machine is
	// statusRunning on no stack until a scheduling step takes it to its
	// loop top, inline on whichever stack ran that step (stepStackless).
	// Cleared by that step and by scrub.
	parked bool
	// halting records that the handler halted (Context.haltOnReturn): host
	// finishes the machine once the handler has returned, as unwound
	// finishes a Halt, whose panic sets it too. Cleared by scrub.
	halting bool
	// epos is the machine's index in the runtime's incrementally
	// maintained enabled slice, or -1 while the machine is not enabled.
	// Owned by the insert/remove helpers in enabled.go; nobody else
	// writes it.
	epos int32
	id   MachineID
	// w is the worker whose coroutine holds the machine's live handler,
	// from the scheduling step that starts the handler until it returns,
	// halts or is unwound: the machine yields through it to whichever stack
	// resumed it — the hub, the trampoline (a free worker the hub resumed)
	// or a reaper, the three that resume it. Nil whenever the machine
	// holds no frame — statusCreated, statusWaitDequeue, statusHalted, or
	// parked with its handler returned — and always on a timer; no two
	// machines share one (w.m points back).
	w     *machineWorker
	defr  Deferrer // impl.(Deferrer), or nil
	queue inbox
	impl  Machine // nil for a timer
	name  string
	// ctx is the Context handed to impl's Init/Handle, embedded here so a
	// machine start allocates nothing.
	ctx Context
	// recvPred is non-nil while status == statusWaitReceive.
	recvPred func(Event) bool

	// The crash-consistency plane's split of machine state into a durable
	// and a volatile half lives here: everything else on this struct (and
	// in impl) is volatile — lost at crash — while durable holds the
	// synced writes that survive a crash and are handed to the restarted
	// incarnation through Context.Recover, one entry per key in the order
	// the keys first became durable. staged holds writes issued with
	// Persist but not yet covered by Sync, in issue order; on a crash the
	// scheduler chooses which prefix of them reaches durable anyway (the
	// FaultPersist choice). durable is a slice, not a map: a key is found
	// by a linear scan, which every store in the tree keeps short (wal
	// writes at most two keys per append, replsys-durable one per request,
	// mtable-crash one), and Recover walks it in order with no map
	// iteration. Both slices sit in the cold tail: persist-free workloads
	// never touch them (both stay nil), so the scheduling hot loop pays
	// nothing for the plane's existence.
	durable []keyValue
	staged  []keyValue

	// tm is a timer's resumable state, the zero value on every other
	// machine. It sits behind the cold tail, away from every field an
	// ordinary machine's step touches; a timer step pays one more cache
	// line for it and saves two coroutine switches.
	tm timerMachine
}

// keyValue is one (key, value) pair of the crash-consistency plane: a
// Persist call awaiting Sync, kept in issue order because the crash-state
// enumeration is over write *order*, or a durable entry.
type keyValue struct {
	key string
	val []byte
}

// applyStaged makes the first k staged writes durable, in issue order,
// and drops the rest: Sync applies all of them, a crash applies the
// scheduler-chosen surviving prefix. A key already durable is overwritten
// in place; a new one is appended.
func (m *machine) applyStaged(k int) {
staged:
	for _, w := range m.staged[:k] {
		for i := range m.durable {
			if m.durable[i].key == w.key {
				m.durable[i].val = w.val
				continue staged
			}
		}
		m.durable = append(m.durable, w)
	}
	m.clearStaged()
}

// clearStaged drops the staged writes, nilling the value slots so user
// data does not outlive the execution but keeping the slice for reuse.
func (m *machine) clearStaged() {
	for i := range m.staged {
		m.staged[i] = keyValue{}
	}
	m.staged = m.staged[:0]
}

// clearDurable empties the durable store, nilling its entries so user
// data does not outlive the execution but keeping the slice for pooled
// reuse. Only end-of-execution cleanup calls it — durable state must
// survive mid-execution crashes; that is the point of the plane.
func (m *machine) clearDurable() {
	clear(m.durable)
	m.durable = m.durable[:0]
}

// persistState reports whether the machine holds any crash-consistency
// state at all; the death/reset scrub assertions use it.
func (m *machine) persistState() bool {
	return len(m.durable) > 0 || len(m.staged) > 0
}

// scrub is the death cleanup every machine gets exactly once per life,
// whoever performs it — the stack its handler unwound on (unwound), or the
// reaper and shutdown for machines with no stack to unwind (between
// handlers, or a stackless timer): status, worker, inbox, predicate, crash
// flag, enabled-set membership, and the user's values (implementation,
// timer tick), released for the garbage collector's sake — the struct
// itself is recycled through machineCache. This is what lets the pooled
// reset skip the per-machine rewind loop entirely: by the time reset runs,
// every machine is already clean. Crash-consistency state is deliberately
// not touched here (see unwound and shutdown).
func (r *Runtime) scrub(m *machine) {
	m.status = statusHalted
	m.w = nil
	m.queue.clear()
	m.recvPred = nil
	m.crashed = false
	m.parked = false
	m.halting = false
	m.impl = nil
	m.defr = nil
	m.tm.tick = nil
	r.removeEnabled(m)
}

func (m *machine) label() string {
	return string(m.appendLabel(nil))
}

// appendLabel appends the machine's label, "name(id)".
func (m *machine) appendLabel(b []byte) []byte {
	b = append(append(b, m.name...), '(')
	b = strconv.AppendInt(b, int64(m.id), 10)
	return append(b, ')')
}

// hasDequeuable reports whether the inbox holds an event the machine's
// event loop would accept (i.e. not deferred in its current state).
func (m *machine) hasDequeuable() bool {
	if m.defr == nil {
		return m.queue.size() > 0
	}
	for i, n := 0, m.queue.size(); i < n; i++ {
		if !m.defr.Deferred(m.queue.at(i)) {
			return true
		}
	}
	return false
}

// popDequeuable removes and returns the first non-deferred event.
// It must only be called when hasDequeuable() is true.
func (m *machine) popDequeuable() Event {
	if m.defr == nil {
		// Non-deferring machine: hasDequeuable() guaranteed a front event.
		return m.queue.removeAt(0)
	}
	for i, n := 0, m.queue.size(); i < n; i++ {
		if !m.defr.Deferred(m.queue.at(i)) {
			return m.queue.removeAt(i)
		}
	}
	panic("core: popDequeuable on machine with no dequeuable event")
}

// hasMatch reports whether the inbox holds an event satisfying the pending
// receive predicate.
func (m *machine) hasMatch() bool {
	if m.recvPred == nil {
		return false
	}
	for i, n := 0, m.queue.size(); i < n; i++ {
		if m.recvPred(m.queue.at(i)) {
			return true
		}
	}
	return false
}

// popMatch removes and returns the first event satisfying pred.
// It must only be called when hasMatch() is true.
func (m *machine) popMatch(pred func(Event) bool) Event {
	for i, n := 0, m.queue.size(); i < n; i++ {
		if pred(m.queue.at(i)) {
			return m.queue.removeAt(i)
		}
	}
	panic("core: popMatch on machine with no matching event")
}

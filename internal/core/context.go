package core

import "fmt"

// Context is the API surface available to machine code. All interaction
// between a machine and the rest of the system must go through it so the
// scheduler observes (and controls) every source of nondeterminism.
type Context struct {
	r *Runtime
	m *machine
}

// ID returns the executing machine's identifier.
func (c *Context) ID() MachineID { return c.m.id }

// MachineName returns the executing machine's registered name.
func (c *Context) MachineName() string { return c.m.name }

// Step returns the current global scheduling step, useful for harness
// bookkeeping (never use it to influence behavior — that would be hidden
// nondeterminism under schedule-dependent step counts).
func (c *Context) Step() int { return c.r.steps }

// Send enqueues ev into target's inbox and yields to the scheduler. Send
// never blocks; events sent to halted machines are dropped, which is how
// messages to failed nodes disappear.
func (c *Context) Send(target MachineID, ev Event) {
	c.notParked("Send")
	r := c.r
	if target < 0 || int(target) >= len(r.machines) {
		c.Assert(false, "send of %s to unknown machine %d", ev.Name(), target)
	}
	r.enqueue(c.m, r.machines[target], ev)
	r.schedulingPoint(c.m)
}

// SendLast is Send as the handler's last action. It enqueues ev into
// target's inbox exactly as Send does, but Send's scheduling point is taken
// after the handler has returned: the machine waits for that step holding
// no stack, and the step that picks it moves it to the top of its event
// loop inline, on whichever stack ran the scheduling iteration, the way a
// timer is stepped. Decisions, enabled sets, fingerprints, log lines and
// traces are exactly those of Send as the handler's last statement; only
// the coroutine resume that returns from Send is saved.
//
// The one difference: plain Go code after SendLast, and the handler's
// deferred calls, run before the machines scheduled next rather than after
// them — which no other machine may observe (see Machine). Misuse is a bug,
// not a silent schedule change: a Context call after SendLast in the same
// handler, other than ID, MachineName, Step, Logging or an Assert that
// holds, ends the execution with a SafetyBug that names SendLast.
func (c *Context) SendLast(target MachineID, ev Event) {
	c.notParked("SendLast")
	r := c.r
	if target < 0 || int(target) >= len(r.machines) {
		c.Assert(false, "send of %s to unknown machine %d", ev.Name(), target)
	}
	r.enqueue(c.m, r.machines[target], ev)
	c.m.parked = true
}

// notParked ends the execution with a safety violation when the handler
// already called SendLast: op, a Context call with an effect, would have
// run after the scheduling point SendLast took past the handler's end.
func (c *Context) notParked(op string) {
	if c.m.parked {
		c.r.failSafety(op + " after SendLast in the same handler: SendLast must be its last Context call")
	}
}

// CreateMachine registers a new machine and yields. The machine's Init
// runs when the scheduler first picks it.
func (c *Context) CreateMachine(impl Machine, name string) MachineID {
	c.notParked("CreateMachine")
	id := c.r.createMachine(impl, name)
	if c.r.logging() {
		c.r.logf(c.m, " created %s(%d)", name, id)
	}
	c.r.schedulingPoint(c.m)
	return id
}

// RandomBool returns a scheduler-controlled boolean — the P# Nondet().
// Harnesses use it to model timeouts firing or not, messages dropping or
// not, and workload choices. Every outcome is recorded in the trace.
func (c *Context) RandomBool() bool {
	c.notParked("RandomBool")
	b := c.r.sched.NextBool()
	c.r.dec.add(DecisionBool, 0, b, 0, 0)
	return b
}

// RandomInt returns a scheduler-controlled value in [0, n).
func (c *Context) RandomInt(n int) int {
	c.notParked("RandomInt")
	if n <= 0 {
		c.Assert(false, "RandomInt bound must be positive, got %d", n)
	}
	v := c.r.sched.NextInt(n)
	if v < 0 || v >= n {
		c.r.lied(c.m, "int", v, n)
		panic(bugSignal{})
	}
	c.r.dec.add(DecisionInt, 0, false, v, n)
	return v
}

// Receive blocks the machine until an event whose name is one of names
// arrives, removes it from the inbox (other events stay queued in order),
// and returns it. Mirrors the P# receive statement.
func (c *Context) Receive(names ...string) Event {
	desc := ""
	if c.Logging() {
		desc = fmt.Sprintf("%v", names)
	}
	return c.ReceiveWhere(desc, func(ev Event) bool {
		name := ev.Name()
		for _, n := range names {
			if name == n {
				return true
			}
		}
		return false
	})
}

// Logging reports whether this execution collects a log: Logf lines are
// recorded during replay and dropped during exploration. Harnesses guard
// expensive log or description construction on it — e.g. a ReceiveWhere
// desc built with fmt.Sprintf — so the exploration fast path, which runs
// millions of executions, never pays for strings nobody will read.
func (c *Context) Logging() bool { return c.r.logging() }

// ReceiveWhere blocks until an event satisfying pred arrives and returns
// it. desc appears only in the replay log ("waiting to receive <desc>"),
// so callers building it with fmt.Sprintf should guard on Logging and
// pass "" during exploration — deadlock reports identify machines by
// label and never read desc.
func (c *Context) ReceiveWhere(desc string, pred func(Event) bool) Event {
	c.notParked("ReceiveWhere")
	m := c.m
	m.recvPred = pred
	m.status = statusWaitReceive
	c.r.blockReceive(m)
	if c.r.logging() {
		c.r.logWords(m, " waiting to receive ", desc)
	}
	c.r.yieldPoint(m)
	ev := m.popMatch(pred)
	m.recvPred = nil
	if c.r.logging() {
		c.r.logWords(m, " received ", ev.Name())
	}
	return ev
}

// Halt terminates the executing machine: its queue is discarded and future
// events to it are dropped. Harnesses use it to model node failures.
func (c *Context) Halt() {
	c.haltOnReturn()
	panic(haltSignal{})
}

// haltOnReturn is Halt for a handler that returns right after it, which
// only engine code can promise (FaultInjector.Handle): it logs the same
// halt line at the same point, and host finishes the machine once the
// handler has returned, as unwound finishes a Halt, without a panic.
func (c *Context) haltOnReturn() {
	c.notParked("Halt")
	if c.r.logging() {
		c.r.logWords(c.m, " halt")
	}
	c.m.halting = true
}

// Monitor delivers a notification event to the named specification
// monitor, synchronously. Monitors are registered on the Test.
func (c *Context) Monitor(name string, ev Event) {
	c.notParked("Monitor")
	e := c.r.findMonitor(name)
	if e == nil {
		c.Assert(false, "notify of unknown monitor %q", name)
	}
	c.r.covMix(e.nameHash ^ covString(ev.Name()))
	if c.r.logging() {
		c.r.logWords(c.m, " notify ", name, ": ", ev.Name())
	}
	e.mon.Handle(e.mc, ev)
}

// Assert flags a safety violation if cond is false.
func (c *Context) Assert(cond bool, format string, args ...any) {
	if !cond {
		c.notParked("Assert")
		c.r.failSafety(fmt.Sprintf(format, args...))
	}
}

// Logf appends a line to the execution log. Logging is free when the
// engine is exploring (collection is off) and enabled during replay, so
// harnesses can log liberally — exactly the paper's workflow of iterating
// on a buggy trace with richer debug output.
func (c *Context) Logf(format string, args ...any) {
	c.notParked("Logf")
	if c.r.logging() {
		b := append(c.m.appendLabel(c.r.logLine()), ':', ' ')
		c.r.logEnd(fmt.Appendf(b, format, args...))
	}
}

// --- fault plane ---
//
// The methods below are the typed fault primitives (see faults.go): each
// presents the scheduler a FaultChoice and records the outcome as a
// dedicated Decision kind, so fault scenarios replay exactly and fault
// points are distinguishable — both in traces and to exploration
// strategies — from ordinary data choices.

// StartTimer creates a nondeterministically firing timer delivering tick
// to target — the P# timer model every harness used to hand-roll. The
// timer is a runtime machine: whenever the scheduler picks it, a
// FaultTimer choice (recorded as DecisionTimer) decides whether the tick
// fires, and the timer re-arms either way until StopTimer halts it. It
// costs scheduling steps, not a stack (see timerMachine).
func (c *Context) StartTimer(name string, target MachineID, tick Event) TimerID {
	c.notParked("StartTimer")
	r := c.r
	if target < 0 || int(target) >= len(r.machines) {
		c.Assert(false, "StartTimer targeting unknown machine %d", target)
	}
	id := r.createTimer(name, target, tick)
	if r.logging() {
		r.logf(c.m, " started timer %s(%d) -> %s", name, id, r.machines[target].label())
	}
	r.schedulingPoint(c.m)
	return id
}

// StopTimer halts a timer started with StartTimer: pending ticks are
// discarded and no further firing choices are presented.
func (c *Context) StopTimer(id TimerID) {
	c.notParked("StopTimer")
	r := c.r
	if id < 0 || int(id) >= len(r.machines) {
		c.Assert(false, "StopTimer of unknown timer %d", id)
	}
	m := r.machines[id]
	if !m.timer {
		c.Assert(false, "StopTimer of machine %d (%s), which is not a timer", id, m.label())
	}
	if r.logging() {
		r.logf(c.m, " stopped timer %s", m.label())
	}
	r.pendingCrash = append(r.pendingCrash, id)
	r.schedulingPoint(c.m)
}

// CrashPoint offers the scheduler the opportunity to crash one of the
// candidate machines here — or to decline. Candidates that have already
// halted are filtered out; the choice is only presented while the run's
// crash budget (Faults.MaxCrashes) has headroom, and a taken offer is
// charged against it. The outcome is recorded as DecisionCrash. Returns
// the crashed machine, or NoMachine when nothing crashed.
func (c *Context) CrashPoint(candidates ...MachineID) MachineID {
	c.notParked("CrashPoint")
	r := c.r
	if r.crashes >= r.faults.MaxCrashes {
		return NoMachine
	}
	live := r.crashScratch[:0]
	for _, id := range candidates {
		if id < 0 || int(id) >= len(r.machines) {
			c.Assert(false, "CrashPoint over unknown machine %d", id)
		}
		if r.machines[id].status != statusHalted {
			live = append(live, id)
		}
	}
	r.crashScratch = live
	if len(live) == 0 {
		return NoMachine
	}
	out, ok := r.choose(FaultChoice{Kind: FaultCrash, N: len(live) + 1, Machine: NoMachine, Candidates: live}, c.m)
	if !ok {
		panic(bugSignal{})
	}
	if out == 0 {
		return NoMachine
	}
	victim := live[out-1]
	r.crashes++
	c.Crash(victim)
	return victim
}

// Crash unconditionally halts the target machine as if the node it models
// failed: its inbox is discarded, in-flight handler state is abandoned,
// and future sends to it are dropped — exactly the fate of a process
// kill, unlike a cooperative Halt the machine performs itself. Crashing
// the executing machine is equivalent to Halt. Crash is a deterministic
// command (no decision is recorded); the nondeterministic form is
// CrashPoint.
func (c *Context) Crash(target MachineID) {
	c.notParked("Crash")
	r := c.r
	if target < 0 || int(target) >= len(r.machines) {
		c.Assert(false, "Crash of unknown machine %d", target)
	}
	if target == c.m.id {
		c.Halt()
	}
	if r.logging() {
		r.logf(c.m, " crashed %s", r.machines[target].label())
	}
	r.pendingCrash = append(r.pendingCrash, target)
	// Yield so the crash is reaped before the caller's next action: after
	// Crash returns, the victim is gone from every machine's perspective
	// (and an immediate Restart finds it halted).
	r.schedulingPoint(c.m)
}

// Restart re-creates a crashed (or otherwise halted) machine in place:
// same MachineID — so routing tables survive — but fresh behavior and an
// empty inbox, modeling a process restart that lost its volatile state.
// The machine's durable storage (Persist + Sync, plus whatever staged
// prefix the crash's FaultPersist choice let survive) is carried over:
// the new incarnation reads it back through Recover, typically in Init —
// the recovery path the crash-consistency plane exists to test.
func (c *Context) Restart(id MachineID, impl Machine) {
	c.notParked("Restart")
	r := c.r
	if id < 0 || int(id) >= len(r.machines) {
		c.Assert(false, "Restart of unknown machine %d", id)
	}
	if impl == nil {
		c.Assert(false, "Restart of machine %d with a nil implementation", id)
	}
	m := r.machines[id]
	for _, pending := range r.pendingCrash {
		if pending == id {
			c.Assert(false, "Restart of machine %d while its crash is still pending (restart it from a later scheduling point)", id)
		}
	}
	if m.status != statusHalted {
		c.Assert(false, "Restart of machine %d (%s), which has not halted", id, m.label())
	}
	m.impl = impl
	if d, ok := impl.(Deferrer); ok {
		m.defr = d
	} else {
		m.defr = nil
	}
	m.timer, m.tm = false, timerMachine{}
	m.queue.clear()
	m.recvPred = nil
	m.crashed = false
	m.status = statusCreated
	// Halted machines are out of the enabled set; a Created one is always
	// enabled. id sits mid-range, so this is a real sorted insert.
	r.insertEnabled(m)
	if r.logging() {
		r.logf(c.m, " restarted %s", m.label())
	}
	r.schedulingPoint(c.m)
}

// --- crash-consistency plane ---
//
// Machine state is split into a volatile and a durable half. Everything a
// machine holds in its implementation struct is volatile: a crash (and a
// Restart) loses it. The durable half is a per-machine key/value store
// written through Persist and made crash-proof by Sync, modeling a disk
// behind a write cache: Persist stages a write (issued, not yet fsynced),
// Sync is the fsync barrier. On a crash, synced writes always survive;
// staged ones are lost — unless the scheduler, within the execution's
// Faults.MaxTornCrashes budget, picks a torn crash state in which some
// prefix of them reached the disk anyway (the FaultPersist choice,
// recorded as DecisionPersist). The restarted incarnation reads the
// surviving store back through Recover and must rebuild a consistent
// state from it — which is exactly the recovery logic these primitives
// exist to put under systematic test.

// Persist stages a durable write of value under key on the executing
// machine. The write is not crash-proof until a Sync covers it: a crash
// before then loses it, except for scheduler-chosen torn crash states
// (see Faults.MaxTornCrashes). A later Persist of the same key overwrites
// the earlier value once applied. The value bytes are copied, so the
// caller may reuse its buffer. Persist is a scheduling point — issuing a
// write is I/O, and the interesting crashes land between writes. A
// machine can only persist its own state; a voluntary Halt (and a
// self-Crash, which is equivalent) discards staged writes deterministically,
// like a process exiting without fsync.
func (c *Context) Persist(key string, value []byte) {
	c.notParked("Persist")
	m, r := c.m, c.r
	// The copy lands in the runtime's persist arena, which reset rewinds.
	r.persistArena = append(r.persistArena, value...)
	end := len(r.persistArena)
	m.staged = append(m.staged, keyValue{key: key, val: r.persistArena[end-len(value) : end : end]})
	if c.r.logging() {
		c.r.logf(m, " persist %q (%d bytes staged)", key, len(value))
	}
	c.r.schedulingPoint(m)
}

// Sync makes every staged write of the executing machine durable, in the
// order they were issued — the fsync barrier of the crash-consistency
// plane. After Sync returns, those writes survive any crash. Sync is a
// scheduling point; it resolves no scheduler choice and records no
// decision.
func (c *Context) Sync() {
	c.notParked("Sync")
	m := c.m
	if c.r.logging() {
		c.r.logf(m, " sync (%d staged writes made durable)", len(m.staged))
	}
	m.applyStaged(len(m.staged))
	c.r.schedulingPoint(m)
}

// Recover returns a snapshot of the executing machine's durable store:
// every synced write plus whatever staged prefix past crashes let
// survive, nil when the store is empty. A restarted machine calls it
// (typically in Init) to rebuild its state — the hand-over from the
// crashed incarnation. The snapshot is built by one in-order walk of the
// store, which keeps each key once, at its last durable value; it is the
// caller's to keep — a map of copies, so mutating it does not touch the
// store or the next snapshot. Iterate it deterministically (sorted keys,
// or a known key scheme) — ranging over the map directly is hidden
// nondeterminism that breaks replay.
func (c *Context) Recover() map[string][]byte {
	c.notParked("Recover")
	m := c.m
	if len(m.durable) == 0 {
		return nil
	}
	// One map and one value buffer: each value is a capacity-capped window
	// of the buffer, so writing or appending to one reaches neither the
	// store nor a neighbour. An empty value recovers as nil.
	size := 0
	for i := range m.durable {
		size += len(m.durable[i].val)
	}
	buf := make([]byte, 0, size)
	out := make(map[string][]byte, len(m.durable))
	for _, kv := range m.durable {
		var cp []byte
		if len(kv.val) > 0 {
			buf = append(buf, kv.val...)
			cp = buf[len(buf)-len(kv.val) : len(buf) : len(buf)]
		}
		out[kv.key] = cp
	}
	if c.r.logging() {
		c.r.logf(m, " recovered %d durable keys", len(out))
	}
	return out
}

// CrashBudget returns the number of CrashPoint injections the scheduler
// may still take in this execution. Injector machines halt themselves
// when it reaches zero.
func (c *Context) CrashBudget() int {
	c.notParked("CrashBudget")
	if left := c.r.faults.MaxCrashes - c.r.crashes; left > 0 {
		return left
	}
	return 0
}

// SendUnreliable sends ev to target over an unreliable link: when the
// run's delivery-fault budget (Faults.MaxDrops / MaxDuplicates) has
// headroom, the scheduler chooses the delivery fate — deliver, drop, or
// duplicate — recorded as DecisionDeliver. With no budget (the zero
// Faults) it is exactly Send. Harnesses use it on the network paths of
// the system under test and plain Send for their own scaffolding, which
// keeps harness control flow outside the fault plane.
func (c *Context) SendUnreliable(target MachineID, ev Event) {
	c.notParked("SendUnreliable")
	r := c.r
	if target < 0 || int(target) >= len(r.machines) {
		c.Assert(false, "unreliable send of %s to unknown machine %d", ev.Name(), target)
	}
	if !r.faults.deliveryFaults() {
		// No delivery budget configured: the common case costs exactly a
		// Send — no outcome slice, no scheduler call, no decision.
		c.Send(target, ev)
		return
	}
	outcomes := append(r.deliverScratch[:0], Deliver)
	if r.drops < r.faults.MaxDrops {
		outcomes = append(outcomes, Drop)
	}
	if r.dups < r.faults.MaxDuplicates {
		outcomes = append(outcomes, Duplicate)
	}
	r.deliverScratch = outcomes
	if len(outcomes) == 1 {
		c.Send(target, ev)
		return
	}
	idx, ok := r.choose(FaultChoice{Kind: FaultDeliver, N: len(outcomes), Machine: target, Outcomes: outcomes}, c.m)
	if !ok {
		panic(bugSignal{})
	}
	t := r.machines[target]
	switch outcomes[idx] {
	case Drop:
		r.drops++
		if r.logging() {
			r.logSend(c.m, ev, t, " (dropped: fault plane)")
		}
	case Duplicate:
		r.dups++
		r.enqueue(c.m, t, ev)
		r.enqueue(c.m, t, ev)
		if r.logging() {
			r.logSend(c.m, ev, t, " (duplicated: fault plane)")
		}
	default:
		r.enqueue(c.m, t, ev)
	}
	r.schedulingPoint(c.m)
}

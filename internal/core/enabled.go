package core

import "fmt"

// Incremental enabled-set maintenance.
//
// The scheduling loop used to rebuild the enabled set from scratch on
// every step (walk all machines, call hasDequeuable/hasMatch on each
// blocked one), making even the advContinue fast path O(machines). This
// file replaces the rebuild with event-driven maintenance: r.enabled is a
// slice of machine IDs, always sorted ascending, patched at exactly the
// points where a machine's schedulability can change. advance just reads
// it.
//
// Invariant (holds whenever the control token is at a scheduling-loop
// iteration): m.epos >= 0 and r.enabled[m.epos] == m.id iff m would be in
// the set enabledMachines() rebuilt — i.e. m is statusCreated or
// statusRunning, or statusWaitDequeue with a non-deferred event queued, or
// statusWaitReceive with a matching event queued.
//
// The transitions, exhaustively:
//
//   - createMachine / Restart: Created is always enabled → insert.
//   - event-loop top (Running → WaitDequeue): full hasDequeuable
//     recompute (blockDequeue) — the handler may have changed the
//     machine's state-machine state and with it the deferral set.
//   - ReceiveWhere (Running → WaitReceive): full hasMatch recompute
//     (blockReceive) against the freshly installed predicate.
//   - enqueue into a Wait-blocked machine: the only way a blocked
//     machine's bit can flip false→true is a push into its inbox, and
//     only the *new* event needs checking (noteEnqueue): every event
//     already queued was rejected when the machine blocked, and its
//     verdict cannot have changed since — a deferral set only changes
//     while the machine itself runs a handler, and receive predicates
//     must be pure. That is what makes noteEnqueue O(1).
//   - machine death (halt, crash reaping, bug, shutdown unwinding):
//     remove. A machine being scheduled (Wait → Running in yieldPoint)
//     is already in the set — the scheduler picked it from r.enabled.
//
// Dequeues never disable *other* machines (a machine only pops from its
// own inbox), so pops need no hook; the popping machine is Running and
// re-evaluates itself at its next transition.
//
// Insert keeps the slice sorted with a backward shift. Machine IDs are
// assigned in creation order, so createMachine's insert is a pure append;
// a mid-execution wake-up (enqueue into a blocked machine) shifts only the
// enabled IDs above it — cost bounded by the number of *enabled* machines,
// not by the machine count, and typically zero or one on harnesses where
// most machines are blocked.

// insertEnabled adds m to the enabled set, keeping it sorted by ID.
// No-op when m is already present.
func (r *Runtime) insertEnabled(m *machine) {
	if m.epos >= 0 {
		return
	}
	e := append(r.enabled, 0)
	i := len(e) - 1
	for i > 0 && e[i-1] > m.id {
		id := e[i-1]
		e[i] = id
		r.machines[id].epos = int32(i)
		i--
	}
	e[i] = m.id
	m.epos = int32(i)
	r.enabled = e
}

// removeEnabled deletes m from the enabled set, shifting the tail left.
// No-op when m is not present.
func (r *Runtime) removeEnabled(m *machine) {
	i := int(m.epos)
	if i < 0 {
		return
	}
	e := r.enabled
	last := len(e) - 1
	for ; i < last; i++ {
		id := e[i+1]
		e[i] = id
		r.machines[id].epos = int32(i)
	}
	r.enabled = e[:last]
	m.epos = -1
}

// blockDequeue re-evaluates m's bit as it enters statusWaitDequeue from
// statusRunning (so it is currently enabled): the handler that just ran
// may have changed the deferral set, so the whole inbox is re-checked.
func (r *Runtime) blockDequeue(m *machine) {
	if !m.hasDequeuable() {
		r.removeEnabled(m)
	}
}

// blockReceive re-evaluates m's bit as it enters statusWaitReceive from
// statusRunning, against the just-installed receive predicate.
func (r *Runtime) blockReceive(m *machine) {
	if !m.hasMatch() {
		r.removeEnabled(m)
	}
}

// noteEnqueue updates t's bit after ev was pushed into its inbox. Already-
// enabled machines (Created, Running, or a Wait state with an accepted
// event) stay enabled — one more event cannot disable a machine — so only
// a disabled Wait-blocked target needs the new event checked.
func (r *Runtime) noteEnqueue(t *machine, ev Event) {
	if t.epos >= 0 {
		return
	}
	switch t.status {
	case statusWaitDequeue:
		if t.defr == nil || !t.defr.Deferred(ev) {
			r.insertEnabled(t)
		}
	case statusWaitReceive:
		if t.recvPred(ev) {
			r.insertEnabled(t)
		}
	}
}

// rebuildEnabled recomputes the enabled set from scratch into a scratch
// buffer — the old per-step scan, kept as the cross-check oracle.
func (r *Runtime) rebuildEnabled() []MachineID {
	r.enabledScratch = r.enabledScratch[:0]
	for _, m := range r.machines {
		switch m.status {
		case statusCreated, statusRunning:
			r.enabledScratch = append(r.enabledScratch, m.id)
		case statusWaitDequeue:
			if m.hasDequeuable() {
				r.enabledScratch = append(r.enabledScratch, m.id)
			}
		case statusWaitReceive:
			if m.hasMatch() {
				r.enabledScratch = append(r.enabledScratch, m.id)
			}
		}
	}
	return r.enabledScratch
}

// verifyEnabledSet panics unless the incrementally maintained enabled set
// is exactly the from-scratch rebuild, the epos back-pointers are
// consistent, and stacks belong to live handlers only: a machine has a
// worker iff it is mid-handler (statusRunning or statusWaitReceive, and
// neither a timer nor parked by SendLast), and that worker is bound to it
// alone (w.m points back, so no two machines can share one). Enabled with
// the `enabledcheck` build tag (whole suite) or the unexported
// debugCheckEnabled option (targeted tests). Besides engine
// bugs, it catches user-code violations of the model the incremental set
// relies on: impure receive predicates, deferral sets mutated from outside
// the machine, and schedulers that mutate the enabled slice they were
// handed.
func (r *Runtime) verifyEnabledSet() {
	want := r.rebuildEnabled()
	got := r.enabled
	ok := len(want) == len(got)
	if ok {
		for i := range want {
			if want[i] != got[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("core: enabled-set mismatch at step %d:\n  incremental: %v\n  rebuilt:     %v",
			r.steps, got, want))
	}
	for i, id := range got {
		if p := r.machines[id].epos; p != int32(i) {
			panic(fmt.Sprintf("core: enabled-set epos corruption at step %d: machine %d at index %d has epos %d",
				r.steps, id, i, p))
		}
	}
	for _, m := range r.machines {
		midHandler := !m.stackless() && (m.status == statusRunning || m.status == statusWaitReceive)
		if (m.w != nil) != midHandler || midHandler && m.w.m != m {
			panic(fmt.Sprintf("core: stack ownership broken at step %d: machine %s in status %d has worker %p (bound to it: %v)",
				r.steps, m.label(), m.status, m.w, m.w != nil && m.w.m == m))
		}
		if m.epos < 0 {
			continue
		}
		if int(m.epos) >= len(got) || got[m.epos] != m.id {
			panic(fmt.Sprintf("core: enabled-set epos corruption at step %d: machine %d has epos %d but is not in %v",
				r.steps, m.id, m.epos, got))
		}
	}
}

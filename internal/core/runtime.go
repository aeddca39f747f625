package core

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
)

// defaultLogCap bounds the lines the replay log collects per execution.
const defaultLogCap = 100000

// Runtime executes one test run from start to completion under the control
// of a Scheduler. It owns the machines, the monitors, the decision trace,
// and the bug report (if any). The engine either builds a fresh Runtime per
// execution (Options.NoReuse) or — the fast path — recycles one per
// exploration worker through an execPool (see pool.go), resetting it
// between executions so repeated execution allocates almost nothing.
//
// Concurrency model — a stack exists while a handler is live. A machine's
// body is cut at its scheduling points. Inside a handler (Init or Handle:
// after a Send, in a Receive, ...) the machine holds user frames, so the
// handler runs on a coroutine pulled with iter.Pull (machineWorker, pool.go)
// that is bound to the machine from the scheduling step that starts the
// handler until it returns, halts or is unwound. Between handlers — never
// started, or waiting at the top of its event loop — a machine holds no
// frame and owns no stack (m.w == nil). Two kinds of machine are stackless
// while enabled, and whoever picks one steps it inline (stepStackless): the
// fault plane's timer (timerMachine, faults.go), whose handlers are engine
// code cut into phases, never holds a frame and never gets a worker; and a
// machine whose handler ended in SendLast is parked — its handler has
// returned, but the scheduling step that takes it to its loop top is still
// to come, and it waits for that step with no stack.
//
// The goroutine that called execute is the hub. A coroutine switch is a
// synchronous call — next() returns when the callee yields — so exactly one
// stack runs at any instant and no runtime state needs synchronization.
// Whoever reaches a scheduling point runs the next scheduling-loop iteration
// on its own stack (advance) and steps a picked stackless machine right
// there. A machine
// mid-handler (yieldPoint) that is picked again simply carries on; otherwise
// it yields to the stack that resumed it. A worker whose handler just
// returned, parked or not, or whose machine just died (host) has a free
// stack: a pick that
// is between handlers it binds and runs inline — no switch at all. A pick
// suspended mid-handler it resumes itself with a nested next() if the hub
// resumed it (w.top): it is then the trampoline, the pick yields back to it,
// and it carries on with the verdict — one resume, where relaying through
// the hub would take two. A worker a trampoline resumed is nested: with such
// a pick it goes idle to the free list and yields up, so nesting stops at
// hub → trampoline → machine and at most one trampoline is active. The hub
// runs the first iteration and, after a handler handed off mid-handler,
// resumes the pick's worker or arms an idle one with it; it alone arms a
// worker, and it never hosts a handler. A suspended machine is resumed to
// carry on by the hub or the trampoline, and to unwind by a reaper's nested
// next() (reapCrashes, shutdown). Only a machine mid-handler has frames to
// unwind when it dies; a parked one is scrubbed in place like a timer.
// Every scheduling point is deterministic, and nothing observable depends
// on which stack ran a step.
type Runtime struct {
	// The leading fields are the per-step hot set — everything advance
	// reads on its way to the next scheduling decision — clustered so a
	// step touches as few cache lines of this (large) struct as possible.
	//
	// divergence is set when a replay scheduler detects that the program
	// departed from the recorded trace; it aborts the execution. advance
	// tests it every step.
	divergence error
	sched      Scheduler
	machines   []*machine
	// enabled is the incrementally maintained schedulable set, sorted by
	// MachineID; machine.epos back-points into it. Patched at the status
	// transitions enumerated in enabled.go instead of being rebuilt every
	// step, it is handed to NextMachine as-is — schedulers must treat it
	// as read-only.
	enabled []MachineID
	dec     decArena
	// current is the machine scheduled at the previous step (NoMachine
	// before the first). Kept as an ID, not a pointer: the hot loop
	// stores it every step, and an integer store dodges the write
	// barrier a pointer field would pay.
	current MachineID
	// pending is the verdict of the iteration a worker ran before yielding
	// to the stack that resumed it, the hub or a trampoline (advHandoff:
	// resume machines[current], an ordinary machine mid-handler or between
	// handlers; advDone: stop).
	pending advAction
	steps   int
	// limit is the step count at which advance calls atLimit: the one
	// compare a step makes for the fair tail and the step bound.
	limit int
	// The execution's knobs, installed as one value by reset; the ones
	// advance reads lead the struct.
	runtimeConfig
	killed bool
	// cov is the execution's coverage fingerprint, mixed incrementally at
	// every abstract event right next to the decision arena: event
	// dequeues (machine identity and event name), monitor notifications,
	// and monitor hot/cold transitions. It abstracts away the raw schedule
	// — two interleavings that deliver the same events in the same order
	// to the same machines and drive the monitors through the same states
	// fingerprint identically — so novel fingerprints mark behaviorally
	// new executions, which is what feedback exploration feeds on.
	cov uint64
	bug *BugReport
	// aborted records that abort cut the execution short and its results
	// are partial.
	aborted bool

	monitors []*monitorEntry

	// crashes/drops/dups count the injections charged against the fault
	// budget (faults) so far. pendingCrash holds machines doomed by
	// Crash/CrashPoint/StopTimer, reaped at the next scheduling-loop
	// iteration on whichever stack runs it (usually the machine that issued
	// the crash, via advance): the reaper resumes a victim that is
	// mid-handler with a nested next() so it unwinds via killSignal and
	// yields straight back. A machine is never in its own pendingCrash list
	// — Crash(self) takes the Halt path before the list is touched — so the
	// reaper never resumes the stack it is running on.
	crashes      int
	drops        int
	dups         int
	tornCrashes  int
	pendingCrash []MachineID

	logBuf []byte // the execution log; see logLine

	// enabledScratch is the rebuild buffer of the enabled-set cross-check
	// (checkEnabled; see verifyEnabledSet).
	enabledScratch []MachineID

	// reuse marks a pooled runtime: machineWorker coroutines idle on the
	// free list between assignments instead of exiting, and the caches
	// below recycle per-execution storage across resets (see pool.go).
	reuse        bool
	machineCache []*machine
	freeWorkers  []*machineWorker
	monCache     []*monitorEntry
	// entry hosts the test's entry function so starting an execution does
	// not allocate an entryMachine.
	entry entryMachine

	// Scratch storage of the fault and crash-consistency planes, kept
	// across choice points and executions so a crash-plane execution makes
	// no garbage. crashScratch, deliverScratch and persistScratch back a
	// FaultChoice's Candidates, Outcomes and Keys: the scheduler reads them
	// during NextFault and must not keep them (see FaultChoice).
	// persistArena holds the bytes Persist copied this execution; staged
	// and durable values are windows into it, and reset rewinds it once
	// shutdown has dropped them all (Recover hands out copies, never
	// windows).
	crashScratch   []MachineID
	deliverScratch []DeliveryOutcome
	persistScratch []string
	persistArena   []byte

	// trampolining is set while a trampoline's nested next() runs; only the
	// cross-check build's nesting check (trampoline) keeps it.
	trampolining bool

	// tailAt is the step the fair tail begins at (0: none), lowered per
	// fault choice (choose); own is tail's stream for a scheduler with none.
	tailAt int
	tail   randomScheduler
	own    draws

	// logEnds is where each line of logBuf ends.
	logEnds []int
}

// runtimeConfig is the per-execution knobs of a Runtime, derived from the
// resolved Options (Options.runtimeConfig). The Runtime embeds it, so reset
// installs a configuration with one assignment.
type runtimeConfig struct {
	maxSteps int
	// abort, when non-nil, is polled at every scheduling step; a true
	// return cancels the execution (parallel exploration uses it to stop
	// executions superseded by a bug at a lower position).
	abort      func() bool
	collectLog bool
	// checkEnabled turns the per-step enabled-set cross-check on for this
	// runtime (the enabledcheck build tag turns it on binary-wide).
	checkEnabled bool
	// livenessAtBound treats an execution that reaches maxSteps as an
	// infinite execution and checks hot monitors (§2.5 heuristic).
	livenessAtBound bool
	// logCap bounds the lines collectLog may collect.
	logCap int
	// faults is the execution's fault budget.
	faults Faults
	// lengthHint (the member's pinned estimate) and seed shape the tail.
	lengthHint int
	seed       int64
}

// newRuntime returns a fresh Runtime ready to execute under sched/cfg.
func newRuntime(sched Scheduler, cfg runtimeConfig) *Runtime {
	r := &Runtime{}
	r.dec.presize(cfg.maxSteps)
	r.reset(sched, cfg)
	return r
}

// execute runs the test to completion and returns the violation found, or
// nil for a clean execution. It always reaps every live handler before
// returning (pooled runtimes keep the coroutines idle on the free list;
// unpooled ones stop them).
func (r *Runtime) execute(t Test) (rep *BugReport) {
	defer func() {
		if p := recover(); p != nil {
			switch v := p.(type) {
			case bugSignal:
				// r.bug is already set (monitor assert on the engine
				// goroutine, e.g. during monitor Init).
			case replayDivergence:
				r.divergence = v
			default:
				panic(p)
			}
		}
		r.shutdown()
		rep = r.bug
	}()
	for _, mk := range t.Monitors {
		r.addMonitor(mk())
	}
	r.entry = entryMachine{entry: t.Entry}
	r.createMachine(&r.entry, "harness")
	r.runLoop()
	return r.bug
}

// runLoop is the hub: it runs the first scheduling iteration, then keeps
// resuming (or arming a worker for) whichever ordinary machine the latest
// iteration picked. Every later iteration runs on a worker's stack — a
// machine's at a scheduling point (yieldPoint), or a free one's between
// handlers (host) — and comes back here as pending only when the stack the
// hub resumed yields: its handler handed off mid-handler, or the execution
// is over. A replay divergence raised inside the first iteration unwinds to
// execute's recover.
func (r *Runtime) runLoop() {
	for act := r.pick(); act == advHandoff; act = r.pending {
		r.switchTo(r.machines[r.current])
	}
}

// pick runs scheduling-loop iterations on a stack that hosts no handler —
// the hub's, or a worker's between handlers — until the verdict concerns a
// machine that needs a stack or ends the execution: a picked stackless
// machine is stepped right here (stepStackless) and the next iteration
// follows.
func (r *Runtime) pick() advAction {
	act := r.advance(nil)
	for act == advHandoff && r.machines[r.current].stackless() {
		r.stepStackless(r.machines[r.current])
		act = r.advance(nil)
	}
	return act
}

// stackless reports whether a step of m, when the scheduler picks it, is
// engine code run on the picking stack rather than a handler's: m is a
// timer, or parked by SendLast with its handler returned.
func (m *machine) stackless() bool { return m.timer || m.parked }

// stepStackless runs one scheduling step of m, picked while stackless, on
// the calling stack: the return of a parked machine — a timer after its
// self-send, or a machine whose handler ended in SendLast — to the top of
// its event loop, what host does once a handler returns, which a tail
// Send's step would have reached; or a timer's other steps (stepTimer).
func (r *Runtime) stepStackless(m *machine) {
	if !m.parked {
		r.stepTimer(m)
		return
	}
	m.parked = false
	m.status = statusWaitDequeue
	r.blockDequeue(m)
}

// advAction is advance's verdict on who runs next.
type advAction int8

const (
	// advContinue: the caller's own machine was scheduled again — keep
	// running, no handoff needed.
	advContinue advAction = iota
	// advHandoff: machines[current] runs next. A stackless machine is
	// stepped inline by the caller (pick); a machine between handlers is hosted by a caller
	// whose stack is free (host), and one suspended mid-handler is resumed
	// by such a caller if it is the trampoline; everything else goes up to
	// the stack that resumed the caller.
	advHandoff
	// advDone: the execution is over (bug, divergence, abort, bound, or
	// quiescence); a trampoline, then the hub, must leave its loop.
	advDone
)

// advance runs one scheduling-loop iteration on the calling stack: finish
// the bookkeeping of the step that just ended, then pick the next machine.
// from is the caller's machine (nil when called from the hub at loop start
// or from a worker between handlers). The check order — loop condition
// (a bug or a divergence ends the execution before anything else runs),
// crash reaping, abort, step bound, quiescence, scheduling — is exactly the
// old engine loop's and is observable through traces, so don't reorder it.
func (r *Runtime) advance(from *machine) advAction {
	if r.bug != nil || r.divergence != nil {
		return advDone
	}
	if len(r.pendingCrash) > 0 {
		r.reapCrashes()
		if r.bug != nil {
			return advDone // a persist choice was answered out of range
		}
	}
	if r.abort != nil && r.abort() {
		r.aborted = true
		return advDone
	}
	if r.steps >= r.limit && r.atLimit() {
		return advDone
	}
	if enabledCrossCheckBuild || r.checkEnabled {
		r.verifyEnabledSet()
	}
	enabled := r.enabled
	if len(enabled) == 0 {
		r.checkTermination()
		return advDone
	}
	next := r.sched.NextMachine(enabled)
	if uint(next) >= uint(len(r.machines)) {
		r.lied(nil, "machine", int(next), len(r.machines))
		return advDone
	}
	m := r.machines[next]
	if m.epos < 0 {
		r.lied(nil, "machine (not enabled)", int(next), len(r.machines))
		return advDone
	}
	r.dec.add(DecisionSchedule, next, false, 0, 0)
	r.steps++
	r.current = next
	if m == from {
		return advContinue
	}
	return advHandoff
}

// switchTo resumes m from the hub and returns when the stack it ran on
// yields back. A machine between handlers is handed an idle worker (off the
// free list, or a fresh coroutine); only the hub arms, and a worker enters
// the free list only on its way to yielding, so the list never hands out a
// live stack. The worker is marked top: once its stack is free it may
// trampoline. Never called for a stackless machine.
func (r *Runtime) switchTo(m *machine) {
	w := m.w
	if w == nil {
		w = r.getWorker()
		w.m = m
	}
	w.top = true
	w.next()
}

// host is one activation of worker w, under one recover frame: it runs the
// handler of w.m, the machine it was armed with, and then — the stack being
// free once a handler has returned — the next scheduling iteration and,
// inline, the handler of every pick that is itself between handlers. A pick
// suspended mid-handler a top worker resumes itself (trampoline) and
// carries on with the verdict that pick yields back. The end of the
// execution, or such a pick on a nested worker, sends w idle to the free
// list and up to the stack that resumed it with the verdict in pending. A
// handler that halted by returning (Context.haltOnReturn) is finished here
// as unwound finishes a Halt, and the iteration that follows its death
// runs right on. A panic (halt, kill, bug, divergence, user panic) ends the
// activation through unwound; true asks for another, which starts with the
// iteration that follows the death.
func (r *Runtime) host(w *machineWorker) (again bool) {
	defer func() {
		if p := recover(); p != nil {
			again = r.unwound(w, p)
		}
	}()
hosting:
	for {
		if m := w.m; m != nil {
			m.w = w
			if m.status == statusCreated {
				m.status = statusRunning
				m.ctx = Context{r: r, m: m}
				m.impl.Init(&m.ctx)
			} else {
				m.status = statusRunning
				ev := m.popDequeuable()
				r.covMix(uint64(m.id)<<32 ^ covString(ev.Name()))
				if r.logging() {
					r.logWords(m, " dequeued ", ev.Name())
				}
				m.impl.Handle(&m.ctx, ev)
			}
			m.w, w.m = nil, nil
			if m.halting {
				// Halted by returning: finished as unwound finishes a Halt.
				m.clearStaged()
				r.scrub(m)
			} else if !m.parked {
				m.status = statusWaitDequeue
				r.blockDequeue(m)
			}
		}
		act := r.pick()
		if act == advHandoff {
			next := r.machines[r.current]
			if next.w == nil {
				w.m = next
				continue
			}
			if w.top {
				for {
					r.trampoline(w, next.w)
					if act = r.pending; act != advHandoff {
						break
					}
					if next = r.machines[r.current]; next.w == nil {
						w.m = next
						continue hosting
					}
				}
			}
		}
		r.pending = act
		r.putWorker(w)
		return false
	}
}

// trampoline resumes nw, the worker of a machine suspended mid-handler, from
// w's free stack and returns when nw's stack yields back. nw is nested: when
// its own stack frees up with such a pick it yields back here instead, so
// one trampoline is active at a time, and w, bound to no machine, is never a
// crash victim. The cross-check build panics if that nesting rule breaks.
func (r *Runtime) trampoline(w, nw *machineWorker) {
	if enabledCrossCheckBuild {
		if r.trampolining || w.m != nil {
			panic(fmt.Sprintf("core: trampoline nested at step %d: another active %v, bound to a machine %v", r.steps, r.trampolining, w.m != nil))
		}
		r.trampolining = true
	}
	nw.top = false
	nw.next()
	if enabledCrossCheckBuild {
		r.trampolining = false
	}
}

// unwound ends an activation of w that panic p cut short and reports
// whether w should start another. With a machine bound, p is its death:
// after a reaper's killSignal w goes idle and yields straight back to the
// reaper's nested next(); every other death is followed by a scheduling
// iteration on the now free stack. With none, the scheduler raised p
// between handlers: a replay divergence ends the execution right there, at
// the step the diverging decision had already counted, and anything else is
// re-raised to the stack that resumed w (through a trampoline, on to the
// hub), as if the hub's own iteration had panicked.
func (r *Runtime) unwound(w *machineWorker, p any) (again bool) {
	m := w.m
	if m == nil {
		d, ok := p.(replayDivergence)
		if !ok {
			panic(p)
		}
		r.divergence = d
		r.pending = advDone
		r.putWorker(w)
		return false
	}
	reaped := false
	switch p := p.(type) {
	case haltSignal:
		// Voluntary termination.
	case killSignal:
		reaped = true
	case bugSignal:
		// Violation already recorded on the runtime.
	case replayDivergence:
		r.divergence = p
	default:
		r.safetyBug(m.label(), fmt.Sprintf("panic in %s: %v\n%s", m.label(), p, debug.Stack()))
	}
	// Crash-consistency state is not scrub's: durable survives every
	// mid-execution death by design (shutdown scrubs it at the end), and a
	// crashed machine's staged writes are left for the reaper, whose
	// FaultPersist choice decides their fate (reapCrashes). A voluntary
	// death discards them here — a process that exits without fsync loses
	// its un-synced writes, deterministically.
	if !reaped {
		m.clearStaged()
	}
	r.scrub(m)
	w.m = nil
	if reaped {
		r.putWorker(w)
	}
	return !reaped
}

// Coverage fingerprinting (see the cov field). The mix is FNV-1a over
// 64-bit lanes: xor the observation in, multiply by the FNV prime. The
// multiply makes the hash order-sensitive, so the fingerprint encodes the
// *sequence* of abstract events, not their multiset.
const (
	covBasis = 0xcbf29ce484222325
	covPrime = 0x100000001b3
)

// covMix folds one abstract observation into the execution fingerprint.
func (r *Runtime) covMix(x uint64) {
	r.cov = (r.cov ^ x) * covPrime
}

// covString hashes a short identifier (event name, monitor state).
func covString(s string) uint64 {
	h := uint64(covBasis)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * covPrime
	}
	return h
}

// Fingerprint returns the execution's coverage fingerprint. Only valid
// after execute returned; a pure function of the decision sequence for a
// deterministic system under test.
func (r *Runtime) Fingerprint() uint64 { return r.cov }

// yieldPoint is a scheduling point inside a handler: run the next loop
// iteration right here and, unless the scheduler picked m again — the free
// advContinue path: no switch at all — yield to the stack that resumed m,
// the hub or a trampoline, until either resumes it again.
// A picked stackless machine is stepped right here too (pick's loop,
// inline: a machine the scheduler keeps re-picking spends most of its step
// here), m lending its stack, and the iteration after it is m's again: a run
// of such steps that ends with m being picked is all advContinue. m keeps
// the status it entered with throughout, exactly as if it were suspended,
// so a tick a hosted timer sends it is accounted like any other enqueue. A replay divergence
// raised inside the iteration unwinds through m's handler into host's
// recover. Must be called on m's own stack.
func (r *Runtime) yieldPoint(m *machine) {
	act := r.advance(m)
	for act == advHandoff && r.machines[r.current].stackless() {
		r.stepStackless(r.machines[r.current])
		act = r.advance(m)
	}
	if act != advContinue {
		r.pending = act
		m.w.yield(struct{}{})
	}
	m.status = statusRunning
	if r.killed || m.crashed {
		panic(killSignal{})
	}
}

// reapCrashes kills the machines doomed by the fault plane (Crash, a taken
// CrashPoint, StopTimer). It runs inside advance on whatever stack that
// runs on — usually the machine whose Crash call queued the victim. A
// victim mid-handler is resumed with a nested next(): it wakes in
// yieldPoint, sees crashed, panics out of its handler, cleans up in unwound
// and yields back here. Any other — never started, between handlers,
// parked, a timer at whatever step — has no stack and gets the same cleanup right
// here. Its staged writes meet their crash state next. The list is walked
// by index and truncated once: slicing the head off per victim would walk
// the header forward and leave a pooled runtime re-allocating it every
// execution.
func (r *Runtime) reapCrashes() {
	for i := 0; i < len(r.pendingCrash); i++ {
		m := r.machines[r.pendingCrash[i]]
		if m.status == statusHalted {
			continue // already gone (self-halted, or crashed twice)
		}
		if m.w != nil {
			m.crashed = true
			m.w.next()
		} else {
			r.scrub(m)
		}
		r.settleCrashedStorage(m)
	}
	r.pendingCrash = r.pendingCrash[:0]
}

// settleCrashedStorage resolves the fate of a crashed machine's staged
// writes. With staged writes present and torn-crash budget left, the
// scheduler chooses how many of them — a prefix in Persist order — reach
// durable storage anyway (FaultPersist, recorded as DecisionPersist;
// outcome 0, the benign choice, loses them all). Without budget the
// default is deterministic: every un-synced write is lost, no choice
// point is presented and no decision recorded, so persist-free workloads
// and zero-budget runs trace identically to a build without the plane.
// Runs on the reaping stack inside reapCrashes, after the victim is gone,
// which pins the decision's position in the trace: right after the crash
// that doomed the machine, before the next schedule decision.
func (r *Runtime) settleCrashedStorage(m *machine) {
	n := len(m.staged)
	if n == 0 {
		return
	}
	k := 0
	if r.tornCrashes < r.faults.MaxTornCrashes {
		keys := r.persistScratch[:0]
		for i := range m.staged {
			keys = append(keys, m.staged[i].key)
		}
		r.persistScratch = keys
		// An out-of-range answer loses every write; advance ends the
		// execution once the reaper is done.
		out, ok := r.choose(FaultChoice{Kind: FaultPersist, N: n + 1, Machine: m.id, Keys: keys}, m)
		clear(keys) // user keys do not outlive the choice
		if ok {
			if out > 0 {
				// Only a non-benign outcome — un-synced data surviving — is a
				// torn crash; the benign "all lost" outcome stays free, like a
				// declined CrashPoint.
				r.tornCrashes++
			}
			k = out
			if r.logging() {
				r.logf(m, " crash persisted %d of %d staged writes", out, n)
			}
		}
	}
	m.applyStaged(k)
}

// choose is the one door every fault choice point goes through: it asks the
// scheduler, checks the answer against [0, c.N), records the decision and
// returns the outcome. asker is the machine presenting the choice. ok is
// false when the answer was out of range: lied has ended the execution and
// nothing is recorded; a caller mid-handler unwinds with bugSignal, one on a
// borrowed stack returns to the scheduling iteration that follows.
func (r *Runtime) choose(c FaultChoice, asker *machine) (out int, ok bool) {
	out = r.sched.NextFault(c)
	if out < 0 || out >= c.N {
		r.lied(asker, faultKinds[c.Kind].noun+" fault", out, c.N)
		return 0, false
	}
	r.dec.add(c.decision(out))
	if r.tailAt > r.steps {
		// A fault choice counts toward the fair tail like a scheduling step.
		r.tailAt--
		r.limit = min(r.limit, r.tailAt)
	}
	return out, true
}

// lied ends the execution on a scheduler's answer v outside the [0, n) it
// was offered: a safety violation that names the scheduler — never the
// system under test, never a panic on whichever stack ran the step —
// attributed to asker (nil for the scheduling choice itself).
func (r *Runtime) lied(asker *machine, what string, v, n int) {
	label := ""
	if asker != nil {
		label = asker.label()
	}
	r.safetyBug(label, fmt.Sprintf("core: %s scheduler: %s outcome %d out of [0, %d)", r.sched.Name(), what, v, n))
}

// schedulingPoint is a voluntary yield mid-handler (after Send, Create...).
// The machine is necessarily statusRunning here — yieldPoint restored that
// on its way back into the handler — so no status write is needed.
func (r *Runtime) schedulingPoint(m *machine) {
	r.yieldPoint(m)
}

// enqueue appends ev, sent by from, to t's inbox (dropping it when t has
// halted) without yielding; Send, SendUnreliable and the timer step share
// it.
func (r *Runtime) enqueue(from, t *machine, ev Event) {
	if t.status != statusHalted {
		t.queue.push(ev)
		r.noteEnqueue(t, ev)
		if r.logging() {
			r.logSend(from, ev, t, "")
		}
	} else if r.logging() {
		r.logSend(from, ev, t, " (dropped: target halted)")
	}
}

// createMachine registers a machine; it owns no stack until a scheduling
// step starts its Init. Pooled runtimes recycle the machine struct (and
// its inbox buffer) from a previous execution when one is available, so
// the timer state is re-armed here too (createTimer, its only caller with
// a nil impl, then fills it in).
func (r *Runtime) createMachine(impl Machine, name string) MachineID {
	id := MachineID(len(r.machines))
	var m *machine
	if n := len(r.machineCache); n > 0 {
		m = r.machineCache[n-1]
		r.machineCache = r.machineCache[:n-1]
	} else {
		m = &machine{}
	}
	m.id = id
	m.name = name
	m.impl = impl
	m.status = statusCreated
	if d, ok := impl.(Deferrer); ok {
		m.defr = d
	} else {
		m.defr = nil
	}
	m.timer, m.parked, m.tm = false, false, timerMachine{}
	r.machines = append(r.machines, m)
	// A Created machine is always enabled, and its ID is the largest so
	// far, so the sorted insert is a plain append.
	m.epos = int32(len(r.enabled))
	r.enabled = append(r.enabled, id)
	return id
}

// addMonitor registers and initializes a specification monitor, recycling
// the entry and context structs on pooled runtimes. Monitors are looked up
// by linear scan (findMonitor): tests register a handful at most, so a
// scan over entries with the name cached inline beats a map lookup — and
// dropping the map removed a per-reset clear().
func (r *Runtime) addMonitor(mon Monitor) {
	name := mon.Name()
	if r.findMonitor(name) != nil {
		panic(fmt.Sprintf("core: duplicate monitor %q", name))
	}
	var e *monitorEntry
	if n := len(r.monCache); n > 0 {
		e = r.monCache[n-1]
		r.monCache = r.monCache[:n-1]
		e.mon = mon
		*e.mc = MonitorContext{r: r, mon: mon}
	} else {
		e = &monitorEntry{mon: mon, mc: &MonitorContext{r: r, mon: mon}}
	}
	e.name, e.nameHash = name, covString(name)
	r.monitors = append(r.monitors, e)
	mon.Init(e.mc)
}

// findMonitor returns the registered monitor entry named name, or nil.
func (r *Runtime) findMonitor(name string) *monitorEntry {
	for _, e := range r.monitors {
		if e.name == name {
			return e
		}
	}
	return nil
}

// shutdown reaps every live machine from the hub after the loop ended: one
// suspended mid-handler is resumed so it unwinds via killSignal, the others
// have no stack and get the death cleanup here. After it returns no handler
// is live: every coroutine is idle on the free list — or, on an unpooled
// runtime, stopped.
func (r *Runtime) shutdown() {
	r.killed = true
	for _, m := range r.machines {
		if m.status != statusHalted {
			if m.w != nil {
				m.w.next()
			} else {
				r.scrub(m)
			}
		}
		// The execution is over, so durable storage dies with it —
		// mid-execution deaths deliberately preserve it (that is the
		// crash-consistency plane's point), which makes this loop the one
		// place that scrubs it, keeping pooled reuse from leaking
		// persisted state into the next execution. Shutdown-reaped
		// machines also still hold their staged writes (no FaultPersist
		// choice is presented during shutdown — the scheduler must not be
		// consulted after the execution ended). Both slices are empty on
		// machines that never persisted, so this costs nothing there.
		if len(m.durable) > 0 {
			m.clearDurable()
		}
		if m.staged != nil {
			m.clearStaged()
		}
	}
	if !r.reuse {
		r.stopWorkers()
	}
}

// setBug records the first violation; later ones are ignored.
func (r *Runtime) setBug(b *BugReport) {
	if r.bug == nil {
		r.bug = b
	}
}

// safetyBug records a safety violation at the current step, attributed to the
// machine labelled label ("" for none).
func (r *Runtime) safetyBug(label, msg string) {
	r.setBug(&BugReport{Kind: SafetyBug, Message: msg, Machine: label, Step: r.steps})
}

// failSafety records a safety violation attributed to the currently
// executing machine and unwinds the calling goroutine.
func (r *Runtime) failSafety(msg string) {
	label := ""
	if r.current != NoMachine {
		label = r.machines[r.current].label()
	}
	r.safetyBug(label, msg)
	panic(bugSignal{})
}

// checkTermination runs when no machine is enabled: either a clean
// quiescent termination, a deadlock (machines stuck in Receive), or a
// liveness violation (terminating while a monitor is hot).
func (r *Runtime) checkTermination() {
	blocked := ""
	for _, m := range r.machines {
		if m.status == statusWaitReceive {
			if blocked != "" {
				blocked += ", "
			}
			blocked += m.label()
		}
	}
	if blocked != "" {
		r.setBug(&BugReport{
			Kind:    DeadlockBug,
			Message: "deadlock: machines blocked in Receive with no pending matching event: " + blocked,
			Step:    r.steps,
		})
		return
	}
	r.checkLiveness("execution terminated")
}

// checkLiveness flags any monitor still hot.
func (r *Runtime) checkLiveness(when string) {
	for _, e := range r.monitors {
		if e.mc.hot {
			r.setBug(&BugReport{
				Kind: LivenessBug,
				Message: fmt.Sprintf("monitor %s hot in state %q since step %d; %s without progress",
					e.mon.Name(), e.mc.hotName, e.mc.hotStep, when),
				Step: r.steps,
			})
			return
		}
	}
}

// fairTailFactor is how many length estimates an execution runs before its
// fair tail; no catalog execution that ends before the bound runs past 3.41.
const fairTailFactor = 8

// atLimit runs when the steps reach limit, enters the fair tail stated in
// the gostorm package documentation (Liveness) and reports whether the
// execution ends here. A replay keeps answering from the trace.
func (r *Runtime) atLimit() bool {
	r.tailAt, r.limit = 0, r.maxSteps
	if r.steps >= r.maxSteps {
		hot := false
		for _, e := range r.monitors {
			hot = hot || e.mc.hot
		}
		if !r.livenessAtBound || !hot {
			return true
		}
		if r.steps >= 2*r.maxSteps {
			r.checkLiveness("execution exceeded the step bound and is treated as infinite")
			return true
		}
		r.limit = r.steps + 1 // past the bound, every step checks the monitors
	}
	if r.steps > r.maxSteps || r.sched == &r.tail {
		return false // in the tail already
	}
	switch s := r.sched.(type) {
	case *replayScheduler:
	case interface{ stream() *draws }:
		r.tail.draws = *s.stream()
		r.sched = &r.tail
	default:
		r.own.name = s.Name()
		r.own.reseed(r.seed)
		r.tail.draws, r.sched = r.own, &r.tail
	}
	return false
}

// logging reports whether logf would record a line right now. Every logf
// call site guards on it so that on the exploration fast path — which
// collects no log — the arguments (machine labels, event names) are never
// evaluated and no varargs slice is boxed; before this guard, eager
// label() Sprintfs at logf call sites were the single largest source of
// per-step allocations in the engine.
func (r *Runtime) logging() bool {
	return r.collectLog && len(r.logEnds) < r.logCap
}

// The execution log is one byte buffer, logBuf, with line i ending at
// logEnds[i]: a line is appended in place — its "[%6d] " step prefix, the
// machine's label and, on the lines every logged step writes (send,
// dequeued, received), its words — and logLines cuts the whole log into a
// report's []string out of one string. Every writer below is reached only
// under a logging() guard.

// logLine starts a line: the step prefix, as fmt's "[%6d] " writes it.
// The log's buffers double when they grow (append's own growth slows to
// 1.25× past a few hundred elements), so a long log costs a few dozen
// allocations, not one a few lines.
func (r *Runtime) logLine() []byte {
	b := r.logBuf
	if cap(b)-len(b) < 256 {
		b = slices.Grow(b, len(b)+1024)
	}
	b = append(b, '[')
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(r.steps), 10)
	for i := len(d); i < 6; i++ {
		b = append(b, ' ')
	}
	b = append(b, d...)
	return append(b, ']', ' ')
}

// logEnd ends the line b, which logLine began.
func (r *Runtime) logEnd(b []byte) {
	r.logBuf = b
	if len(r.logEnds) == cap(r.logEnds) {
		r.logEnds = slices.Grow(r.logEnds, len(r.logEnds)+64)
	}
	r.logEnds = append(r.logEnds, len(b))
}

// logf appends the line of m's label followed by format applied to args.
func (r *Runtime) logf(m *machine, format string, args ...any) {
	r.logEnd(fmt.Appendf(m.appendLabel(r.logLine()), format, args...))
}

// logWords appends the line of m's label followed by words.
func (r *Runtime) logWords(m *machine, words ...string) {
	b := m.appendLabel(r.logLine())
	for _, w := range words {
		b = append(b, w...)
	}
	r.logEnd(b)
}

// logSend appends the line "<from> send <ev> -> <to><note>".
func (r *Runtime) logSend(from *machine, ev Event, to *machine, note string) {
	b := append(from.appendLabel(r.logLine()), " send "...)
	b = append(append(b, ev.Name()...), " -> "...)
	r.logEnd(append(to.appendLabel(b), note...))
}

// logLines returns the collected log, a line an element: slices of one
// string, so a report's log costs two allocations however long it is. It
// returns nil when nothing was logged.
func (r *Runtime) logLines() []string {
	if len(r.logEnds) == 0 {
		return nil
	}
	s := string(r.logBuf)
	out := make([]string, len(r.logEnds))
	start := 0
	for i, end := range r.logEnds {
		out[i], start = s[start:end], end
	}
	return out
}

// entryMachine runs the test's entry function as machine 0 and silently
// drops any events sent to it afterwards (harness entry functions usually
// finish after setting up the system).
type entryMachine struct {
	entry func(ctx *Context)
}

func (e *entryMachine) Init(ctx *Context)      { e.entry(ctx) }
func (e *entryMachine) Handle(*Context, Event) {}

package core

import "fmt"

// This file is the fault plane: the runtime primitives that turn every
// classic fault of a distributed storage system — a timeout firing, a node
// crashing, a message vanishing or arriving twice — into a typed,
// scheduler-controlled choice point recorded in the trace. Harnesses used
// to re-implement these by hand on top of bare RandomBool; hoisting them
// into the runtime makes fault scenarios consistent across workloads,
// replayable decision-for-decision, and visible to schedulers that want to
// prioritize them.

// Faults budgets the scheduler-injected faults of one execution. The zero
// value disables every fault class: CrashPoint never crashes, and
// SendUnreliable behaves exactly like Send. A Test may declare the budget
// its scenario needs (Test.Faults); Options.Faults, when set, replaces it
// wholesale.
//
// Budgets are strictly per execution: the runtime counts the crashes,
// drops and duplicates charged so far, and the pooled engine rewinds those
// counters — together with the pending-crash reap list — on every runtime
// reset (see pool.go), so a recycled runtime starts each execution with
// the full budget exactly like a fresh one.
type Faults struct {
	// MaxCrashes bounds how many CrashPoint offers the scheduler may take
	// per execution.
	MaxCrashes int `json:"crashes,omitempty"`
	// MaxDrops bounds how many SendUnreliable deliveries may be dropped
	// per execution.
	MaxDrops int `json:"drops,omitempty"`
	// MaxDuplicates bounds how many SendUnreliable deliveries may be
	// duplicated per execution.
	MaxDuplicates int `json:"dups,omitempty"`
	// MaxTornCrashes bounds how many crashes may take a torn outcome: a
	// FaultPersist choice letting some un-synced staged writes survive
	// (see Context.Persist). With a zero budget every crash is clean —
	// staged writes not yet covered by Sync are deterministically lost —
	// and no persist choice points are presented.
	MaxTornCrashes int `json:"torn,omitempty"`
}

// enabled reports whether any fault class has a budget.
func (f Faults) enabled() bool {
	return f.MaxCrashes > 0 || f.MaxDrops > 0 || f.MaxDuplicates > 0 || f.MaxTornCrashes > 0
}

// deliveryFaults reports whether SendUnreliable has any fault budget.
func (f Faults) deliveryFaults() bool {
	return f.MaxDrops > 0 || f.MaxDuplicates > 0
}

// String renders the budget compactly ("crashes=1 drops=2"), or "-" for a
// disabled fault plane; the table2 faults column prints exactly this.
func (f Faults) String() string {
	if !f.enabled() {
		return "-"
	}
	out := ""
	add := func(label string, v int) {
		if v <= 0 {
			return
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", label, v)
	}
	add("crashes", f.MaxCrashes)
	add("drops", f.MaxDrops)
	add("dups", f.MaxDuplicates)
	add("torn", f.MaxTornCrashes)
	return out
}

// validate rejects negative budgets with typed ConfigErrors; what names
// the budget's origin ("Options.Faults" or "Test.Faults"). It returns
// error, not *ConfigError, so a clean result is an untyped nil whoever
// passes it on.
func (f Faults) validate(what string) error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"MaxCrashes", f.MaxCrashes},
		{"MaxDrops", f.MaxDrops},
		{"MaxDuplicates", f.MaxDuplicates},
		{"MaxTornCrashes", f.MaxTornCrashes},
	} {
		if c.v < 0 {
			return &ConfigError{
				Field:  what + "." + c.name,
				Reason: fmt.Sprintf("must be non-negative, got %d", c.v),
			}
		}
	}
	return nil
}

// FaultKind identifies the class of a fault choice point.
type FaultKind byte

const (
	// FaultTimer: should this timer fire now? Two outcomes: 0 = stay
	// idle, 1 = fire.
	FaultTimer FaultKind = iota
	// FaultCrash: crash one of the candidate machines, or decline.
	// Outcome 0 declines; outcome i crashes candidate i-1.
	FaultCrash
	// FaultDeliver: the fate of one unreliable send. Outcomes are the
	// DeliveryOutcome codes.
	FaultDeliver
	// FaultPersist: which un-synced staged writes of a crashing machine
	// reach durable storage anyway. Outcome k means the first k staged
	// writes (in Persist order) survive: 0 — the benign outcome — loses
	// them all, exactly what a crash with no torn budget does; N-1 keeps
	// every one, as if the sync had just completed. The prefix bound is
	// the B3-style crash-state enumeration: writes hit the disk in the
	// order they were issued, and the crash tears at one point.
	FaultPersist
)

func (k FaultKind) String() string {
	if int(k) < len(faultKinds) {
		return faultKinds[k].name
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultChoice describes one fault choice point presented to a scheduler.
// Outcome 0 is always the benign choice (timer idle, no crash, normal
// delivery), so strategies that inject sparingly can default to 0 and
// spend their fault budget only at selected points.
//
// Candidates, Outcomes and Keys are runtime scratch storage, reused by the
// next choice point: like NextMachine's enabled set, a scheduler must treat
// them as read-only and must not retain them past NextFault (copy if
// needed).
type FaultChoice struct {
	Kind FaultKind
	// N is the number of outcomes; the scheduler answers in [0, N).
	// N >= 2 always — a choice point with only the benign outcome is not
	// presented.
	N int
	// Machine is the subject: the timer machine, the send target, the
	// crashed machine whose staged writes a FaultPersist choice settles.
	// For FaultCrash it is NoMachine — the candidates are in Candidates.
	Machine MachineID
	// Candidates, for FaultCrash, lists the live machines eligible to
	// crash (len == N-1; outcome i > 0 crashes Candidates[i-1]). The
	// trace records the chosen victim, which is what lets a replay
	// resolve the recorded machine — and diverge loudly — even if the
	// candidate order ever shifted.
	Candidates []MachineID
	// Outcomes, for FaultDeliver, lists the semantic DeliveryOutcome
	// codes currently affordable under the run's budget (len == N,
	// Outcomes[0] == Deliver). Schedulers answer with an index into it;
	// the trace records the semantic code, which is what lets a replay
	// match the recorded outcome even when budget exhaustion has since
	// narrowed the outcome space.
	Outcomes []DeliveryOutcome
	// Keys, for FaultPersist, lists the crashing machine's staged keys in
	// Persist order (len == N-1); outcome k makes Keys[:k] durable.
	Keys []string
}

// DeliveryOutcome is the semantic outcome of a FaultDeliver choice.
type DeliveryOutcome int

const (
	// Deliver: the message arrives normally.
	Deliver DeliveryOutcome = iota
	// Drop: the message is lost.
	Drop
	// Duplicate: the message arrives twice, back to back.
	Duplicate

	deliveryOutcomes = 3
)

func (o DeliveryOutcome) String() string {
	if o >= 0 && o < deliveryOutcomes {
		return [...]string{"deliver", "drop", "duplicate"}[o]
	}
	return fmt.Sprintf("DeliveryOutcome(%d)", int(o))
}

// TimerID identifies a timer started with Context.StartTimer. Timers are
// runtime machines, so the ID doubles as the timer's MachineID (which is
// how DecisionTimer records attribute firings).
type TimerID = MachineID

// timerMachine is the runtime's nondeterministically firing timer (the P#
// timer model, Figure 9 of the paper): every time the scheduler picks the
// timer, a FaultTimer choice decides whether the tick is delivered to the
// target, and the timer re-arms either way. StopTimer halts it.
//
// As a machine it would read
//
//	Init:   Send(self, armed)
//	Handle: if fireTimer() { Send(target, tick) }; Send(self, armed)
//
// and to the scheduler, the trace, the fingerprint and the log it is exactly
// that machine: it has a MachineID, an inbox, a status, a place in the
// enabled set, and every Send above is a scheduling point. But it is always
// enabled — on the timer-driven harnesses most scheduling steps pick a
// timer — and its body is engine code that can never block mid-handler, so
// it owns no stack. The body is cut at its scheduling points, and a
// scheduling step that picks the timer runs the one piece between two of
// them on whatever stack reached the scheduling point: the hub, the machine
// whose yieldPoint picked it, or a worker whose handler just returned. A
// timer step therefore costs no coroutine switch at all.
//
// Each self-send ends Init or Handle, so after it the timer is a parked
// machine (machine.parked, as after SendLast), which stepStackless takes to
// its loop top. Every other step is stepTimer's: Init's send (statusCreated),
// the re-arm after a delivered tick (fired), or a dequeue at the loop top.
type timerMachine struct {
	target MachineID
	tick   Event
	// fired: the tick is queued at the target and the re-arming self-send
	// is the next step.
	fired bool
}

// timerArmed is the event a timer sends itself to keep its loop going: a
// type of its own, so a timer's dequeue recognises it by type and mixes its
// name's hash, taken once, into the fingerprint.
type timerArmedEvent struct{}

func (timerArmedEvent) Name() string { return "core.timer.armed" }

var (
	timerArmed     Event = timerArmedEvent{}
	timerArmedHash       = covString(timerArmed.Name())
)

// createTimer registers a stackless timer machine delivering tick to target.
func (r *Runtime) createTimer(name string, target MachineID, tick Event) MachineID {
	id := r.createMachine(nil, name)
	m := r.machines[id]
	m.timer = true
	m.tm = timerMachine{target: target, tick: tick}
	return id
}

// stepTimer runs one scheduling step of timer m, not parked, on the calling
// stack: what the timer's coroutine would do between being resumed at the
// scheduling point it waits at and reaching the next one — status
// writes, enabled-set maintenance, fingerprint mix, decision and log lines
// included, in the same order. The caller has just recorded the step that
// picked m (advance) and runs the next scheduling iteration right after,
// exactly as the timer's own yieldPoint would have.
func (r *Runtime) stepTimer(m *machine) {
	t := &m.tm
	switch {
	case m.status == statusCreated:
		m.status = statusRunning
		r.enqueue(m, m, timerArmed)
		m.parked = true
	case t.fired:
		t.fired = false
		r.enqueue(m, m, timerArmed)
		m.parked = true
	default:
		m.status = statusRunning
		// The timer never looks at what it dequeues, so an event a user
		// machine sent to its ID costs one fire choice like an armed one.
		ev := m.popDequeuable()
		h := timerArmedHash
		if _, armed := ev.(timerArmedEvent); !armed {
			h = covString(ev.Name())
		}
		r.covMix(uint64(m.id)<<32 ^ h)
		if r.logging() {
			r.logWords(m, " dequeued ", ev.Name())
		}
		// The step runs on a borrowed stack: on an out-of-range answer
		// choose has named the timer and the scheduler, and the next
		// scheduling iteration ends the execution.
		out, ok := r.choose(FaultChoice{Kind: FaultTimer, N: 2, Machine: m.id}, m)
		if !ok {
			return
		}
		if out == 1 {
			if r.logging() {
				r.logWords(m, " fired")
			}
			r.enqueue(m, r.machines[t.target], t.tick)
			t.fired = true
		} else {
			r.enqueue(m, m, timerArmed)
			m.parked = true
		}
	}
}

// FaultInjector is the shared crash-injection machine (the paper's
// TestingDriver failure logic, hoisted out of the harnesses): at every
// scheduling opportunity it offers the scheduler a CrashPoint over the
// current candidate set and invokes OnCrash when an injection is taken.
// It halts right after the crash that spends the budget — so a run with a
// zero budget quiesces exactly like a run with no injector at all — or,
// with Offers set, after its last offer even with budget left, so a clean
// execution quiesces instead of running to the step bound. The halt is
// observably Context.Halt's — the same log line, the same death, the same
// next step — but it is a return: the engine finishes the injector once
// its handler has returned, so no panic unwinds its stack.
type FaultInjector struct {
	// Candidates returns the machines currently eligible to crash. It is
	// consulted at every injection opportunity, so it may track a system
	// whose membership evolves (replica sets, extent-node fleets). Halted
	// machines are filtered out by CrashPoint, which copies the rest
	// before its first scheduling point, so the slice may be the
	// harness's own; an empty set simply defers the offer.
	Candidates func() []MachineID
	// OnCrash runs right after a machine crashed — the harness's hook to
	// notify monitors, inform managers, or launch replacements.
	OnCrash func(ctx *Context, victim MachineID)
	// Offers, when positive, bounds the crash offers: each offer counts
	// it down, and the injector halts after the offer that brings it to
	// zero. Zero leaves only the budget to stop it: counted down from
	// zero, Offers never comes back to it.
	Offers int
}

// Init implements Machine.
func (in *FaultInjector) Init(ctx *Context) {
	ctx.SendLast(ctx.ID(), Signal("core.inject"))
}

// Handle implements Machine: one crash offer per scheduling of the
// injector, until the budget or the offers are gone.
func (in *FaultInjector) Handle(ctx *Context, ev Event) {
	if ctx.CrashBudget() <= 0 {
		ctx.haltOnReturn()
		return
	}
	in.Offers--
	victim := ctx.CrashPoint(in.Candidates()...)
	if victim != NoMachine && in.OnCrash != nil {
		in.OnCrash(ctx, victim)
	}
	if in.Offers == 0 || ctx.CrashBudget() <= 0 {
		ctx.haltOnReturn()
		return
	}
	ctx.SendLast(ctx.ID(), Signal("core.inject"))
}

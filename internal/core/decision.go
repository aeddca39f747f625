package core

import (
	"encoding/json"
	"fmt"
	"slices"
)

// This file owns what a decision is: the kinds, what each carries, and the
// mapping between a recorded Decision and the live choice it answers — in
// both directions. The arena, the codec and DecodeTrace's version gates read
// decisionKinds; the runtime records through FaultChoice.decision; the replay
// scheduler and the mutational splice feed decisions back through
// Decision.machine/boolean/integer/outcome and differ only in what they do
// with a misfit.

// DecisionKind distinguishes the kinds of nondeterministic choices an
// execution makes.
type DecisionKind byte

const (
	// DecisionSchedule records which machine was scheduled at a step.
	DecisionSchedule DecisionKind = 's'
	// DecisionBool records the outcome of a RandomBool.
	DecisionBool DecisionKind = 'b'
	// DecisionInt records the outcome of a RandomInt.
	DecisionInt DecisionKind = 'i'
	// DecisionTimer records whether a runtime timer fired when it was
	// scheduled (Machine is the timer machine, Bool the firing outcome).
	DecisionTimer DecisionKind = 't'
	// DecisionCrash records the outcome of a CrashPoint: Int/N are the
	// scheduler's choice among the candidates (0 = no crash), Machine the
	// crashed machine (NoMachine when the scheduler declined).
	DecisionCrash DecisionKind = 'c'
	// DecisionDeliver records the delivery fate of a SendUnreliable:
	// Int is a DeliveryOutcome, N the outcome-space size, Machine the
	// target machine.
	DecisionDeliver DecisionKind = 'd'
	// DecisionPersist records the crash state chosen for a crashing
	// machine's un-synced staged writes: Machine is the crashed machine,
	// Int the number of staged writes that survived (a prefix in Persist
	// order), N the outcome-space size (staged count + 1).
	DecisionPersist DecisionKind = 'p'
)

// kindShape is what one DecisionKind carries: which Decision fields are
// meaningful (and therefore packed, encoded and decoded), and the trace
// version that introduced the kind — decoding it out of an older trace is a
// strict error. The zero shape marks a byte that is no kind at all.
type kindShape struct {
	machine, boolean, integer bool // integer: Int and N, the exclusive bound
	version                   uint8
}

var decisionKinds = [256]kindShape{
	DecisionSchedule: {machine: true},
	DecisionBool:     {boolean: true},
	DecisionInt:      {integer: true},
	DecisionTimer:    {machine: true, boolean: true, version: 1},
	DecisionCrash:    {machine: true, integer: true, version: 1},
	DecisionDeliver:  {machine: true, integer: true, version: 1},
	DecisionPersist:  {machine: true, integer: true, version: 2},
}

// faultKinds says, per FaultKind, its name, what messages about a choice of
// that kind call it, and the DecisionKind that records its outcome.
var faultKinds = [...]struct {
	name, noun string
	decision   DecisionKind
}{
	FaultTimer:   {"timer", "timer", DecisionTimer},
	FaultCrash:   {"crash", "crash", DecisionCrash},
	FaultDeliver: {"deliver", "delivery", DecisionDeliver},
	FaultPersist: {"persist", "persist", DecisionPersist},
}

// Decision is one resolved nondeterministic choice. The paper's "#NDC"
// column (nondeterministic choices in the first buggy execution) counts
// exactly these.
type Decision struct {
	Kind DecisionKind
	// Machine is set for DecisionSchedule, DecisionTimer, DecisionCrash,
	// DecisionDeliver and DecisionPersist.
	Machine MachineID
	// Bool is set for DecisionBool and DecisionTimer.
	Bool bool
	// Int and N (the exclusive bound) are set for DecisionInt,
	// DecisionCrash, DecisionDeliver and DecisionPersist.
	Int int
	N   int
}

func (d Decision) String() string {
	switch d.Kind {
	case DecisionSchedule:
		return fmt.Sprintf("sched(%d)", d.Machine)
	case DecisionBool:
		return fmt.Sprintf("bool(%t)", d.Bool)
	case DecisionInt:
		return fmt.Sprintf("int(%d/%d)", d.Int, d.N)
	case DecisionTimer:
		if d.Bool {
			return fmt.Sprintf("timer(%d fired)", d.Machine)
		}
		return fmt.Sprintf("timer(%d idle)", d.Machine)
	case DecisionCrash:
		if d.Machine == NoMachine {
			return fmt.Sprintf("crash(declined/%d)", d.N)
		}
		return fmt.Sprintf("crash(%d, choice %d/%d)", d.Machine, d.Int, d.N)
	case DecisionDeliver:
		return fmt.Sprintf("deliver(%d, %s)", d.Machine, DeliveryOutcome(d.Int))
	case DecisionPersist:
		return fmt.Sprintf("persist(%d, %d of %d staged survive)", d.Machine, d.Int, d.N-1)
	default:
		return fmt.Sprintf("decision(%q)", byte(d.Kind))
	}
}

// traceDecisionJSON is the compact wire form of a Decision.
type traceDecisionJSON struct {
	K string `json:"k"`
	M int32  `json:"m,omitempty"`
	B bool   `json:"b,omitempty"`
	V int    `json:"v,omitempty"`
	N int    `json:"n,omitempty"`
}

// carried returns d with every field its kind does not carry zeroed — the
// form both directions of the codec go through — and whether its kind is one.
func (d Decision) carried() (Decision, bool) {
	k := decisionKinds[d.Kind]
	if !k.machine {
		d.Machine = 0
	}
	if !k.boolean {
		d.Bool = false
	}
	if !k.integer {
		d.Int, d.N = 0, 0
	}
	return d, k != (kindShape{})
}

// MarshalJSON encodes the decision compactly: the kind and the fields it
// carries.
func (d Decision) MarshalJSON() ([]byte, error) {
	d, ok := d.carried()
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal decision kind %q", byte(d.Kind))
	}
	return json.Marshal(traceDecisionJSON{K: string(d.Kind), M: int32(d.Machine), B: d.Bool, V: d.Int, N: d.N})
}

// UnmarshalJSON decodes the compact wire form; fields the kind does not
// carry are dropped.
func (d *Decision) UnmarshalJSON(b []byte) error {
	var j traceDecisionJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	c, err := j.decision()
	if err != nil {
		return err
	}
	*d = c
	return nil
}

// decision is the Decision the wire record j stands for, with the fields
// its kind does not carry dropped, or an error naming a kind that is none.
func (j traceDecisionJSON) decision() (Decision, error) {
	if len(j.K) == 1 {
		if d, ok := (Decision{Kind: DecisionKind(j.K[0]), Machine: MachineID(j.M), Bool: j.B, Int: j.V, N: j.N}).carried(); ok {
			return d, nil
		}
	}
	return Decision{}, fmt.Errorf("core: bad decision kind %q", j.K)
}

// decision is what the trace records when live choice c is answered with
// out, which the caller has checked lies in [0, c.N) — the Decision's five
// fields, in decArena.add's order: not the bare index but what it meant — the
// crash victim, the semantic delivery outcome, the surviving prefix — so that
// a replay resolves the recorded meaning, and diverges loudly, even where the
// outcome space has since shifted.
func (c *FaultChoice) decision(out int) (k DecisionKind, m MachineID, b bool, v, n int) {
	k, m = faultKinds[c.Kind].decision, c.Machine
	switch c.Kind {
	case FaultTimer:
		b = out == 1
	case FaultCrash:
		if out > 0 {
			m = c.Candidates[out-1]
		}
		v, n = out, c.N
	case FaultDeliver:
		v, n = int(c.Outcomes[out]), deliveryOutcomes
	case FaultPersist:
		v, n = out, c.N
	}
	return
}

// outcome is decision's inverse: the answer in [0, c.N) with which recorded
// decision d resolves live choice c, or why d does not fit c.
func (c *FaultChoice) outcome(d Decision) (out int, misfit string) {
	if want := faultKinds[c.Kind].decision; d.Kind != want {
		return 0, d.wrongKind(want)
	}
	// A crash decision names its victim; every other one names the choice's
	// subject.
	if c.Kind != FaultCrash && d.Machine != c.Machine {
		return 0, fmt.Sprintf("%s choice for machine %d, trace holds %s", faultKinds[c.Kind].noun, c.Machine, d)
	}
	switch c.Kind {
	case FaultTimer:
		if d.Bool {
			out = 1
		}
	case FaultCrash:
		if d.Machine != NoMachine {
			if out = 1 + slices.Index(c.Candidates, d.Machine); out == 0 {
				return 0, fmt.Sprintf("recorded crash victim %d is not a live candidate (candidates %v)", d.Machine, c.Candidates)
			}
		}
	case FaultDeliver:
		if out = slices.Index(c.Outcomes, DeliveryOutcome(d.Int)); out < 0 {
			return 0, fmt.Sprintf("recorded delivery outcome %s not affordable here (outcomes %v)", DeliveryOutcome(d.Int), c.Outcomes)
		}
	case FaultPersist:
		if out = d.Int; out < 0 || out >= c.N {
			return 0, fmt.Sprintf("recorded persist outcome %d out of range %d (staged-write count changed)", out, c.N)
		}
	}
	return out, ""
}

// machine, boolean and integer are outcome's counterparts for the three
// choices that are no FaultChoice: the value with which recorded decision d
// answers a NextMachine over enabled, a NextBool, a NextInt below n — or why
// it does not fit.

func (d Decision) machine(enabled []MachineID) (MachineID, string) {
	if d.Kind != DecisionSchedule {
		return NoMachine, d.wrongKind(DecisionSchedule)
	}
	if !slices.Contains(enabled, d.Machine) {
		return NoMachine, fmt.Sprintf("machine %d not enabled (enabled: %v)", d.Machine, enabled)
	}
	return d.Machine, ""
}

func (d Decision) boolean() (bool, string) {
	if d.Kind != DecisionBool {
		return false, d.wrongKind(DecisionBool)
	}
	return d.Bool, ""
}

func (d Decision) integer(n int) (int, string) {
	if d.Kind != DecisionInt {
		return 0, d.wrongKind(DecisionInt)
	}
	if d.Int < 0 || d.Int >= n {
		return 0, fmt.Sprintf("int choice %d out of range %d", d.Int, n)
	}
	return d.Int, ""
}

func (d Decision) wrongKind(want DecisionKind) string {
	return fmt.Sprintf("program asked for %q, trace holds %s", byte(want), d)
}

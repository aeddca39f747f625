package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// updateTimerLifecycle rewrites testdata/timer_lifecycle.json from the
// current tree. The file pins every observable of the fault plane's timer —
// decisions, step counts, fingerprint mixes, log lines — and was recorded
// while the timer was still an ordinary machine on a coroutine of its own;
// a change to how the timer is *hosted* must leave it byte-identical.
// Regenerate only with a change that means to move the timer's behaviour.
var updateTimerLifecycle = flag.Bool("update-timer-lifecycle", false, "rewrite testdata/timer_lifecycle.json from this tree")

// scriptScheduler drives one execution along a hand-written prefix — which
// machine runs at each step, whether each timer choice fires, which
// CrashPoint outcome is taken, how many staged writes survive each crash —
// and then falls back to the lowest enabled machine and the benign outcome,
// under which every lifecycle case below winds down. That is what lets a case put StopTimer (or a crash) at an
// exact point of the timer's loop. A scripted pick that is not enabled is a
// mistake in the case; it is recorded in bad and fails the test.
type scriptScheduler struct {
	picks    []MachineID
	fires    []bool
	crashes  []int
	persists []int
	pi       int
	fi       int
	ci       int
	xi       int
	bad      string
}

func (s *scriptScheduler) Name() string { return "script" }
func (s *scriptScheduler) Prepare(int64, int) {
	s.pi, s.fi, s.ci, s.xi, s.bad = 0, 0, 0, 0, ""
}
func (s *scriptScheduler) NextBool() bool  { return false }
func (s *scriptScheduler) NextInt(int) int { return 0 }

func (s *scriptScheduler) NextMachine(enabled []MachineID) MachineID {
	if s.pi < len(s.picks) {
		want := s.picks[s.pi]
		s.pi++
		if slices.Contains(enabled, want) {
			return want
		}
		if s.bad == "" {
			s.bad = fmt.Sprintf("scripted pick %d: machine %d is not enabled (enabled %v)", s.pi-1, want, enabled)
		}
	}
	return enabled[0]
}

func (s *scriptScheduler) NextFault(c FaultChoice) int {
	switch c.Kind {
	case FaultTimer:
		if s.fi < len(s.fires) {
			s.fi++
			if s.fires[s.fi-1] {
				return 1
			}
		}
	case FaultCrash:
		if s.ci < len(s.crashes) {
			s.ci++
			return s.crashes[s.ci-1]
		}
	case FaultPersist:
		if s.xi < len(s.persists) {
			s.xi++
			return s.persists[s.xi-1]
		}
	}
	return 0
}

// lifecycleCase is one walk through a lifecycle's state space (the timer's
// here, an ordinary machine's in machine_lifecycle_test.go): a deterministic
// entry function, the scripted execution whose full replay log is pinned,
// and the step bound both that execution and the exploration legs run under.
type lifecycleCase struct {
	name     string
	test     Test
	maxSteps int
	script   scriptScheduler
	// scriptedOnly skips the exploration legs: the case shares its test
	// program with an earlier one that already ran them.
	scriptedOnly bool
	// bends returns the perturbed copies of the scripted execution's
	// decisions whose Replay divergence errors are pinned. Nil bends the
	// machine of the first and of the last DecisionTimer.
	bends func(ds []Decision) [][]Decision
	// pinBugSite also pins the violation's Machine and Step.
	pinBugSite bool
}

// bendTimers perturbs the machine of the first and of the last DecisionTimer:
// the replay scheduler raises the divergence inside the timer's fire choice.
func bendTimers(ds []Decision) [][]Decision {
	first, last := -1, -1
	for i, d := range ds {
		if d.Kind == DecisionTimer {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return nil
	}
	var out [][]Decision
	for _, i := range []int{first, last} {
		bent := slices.Clone(ds)
		bent[i].Machine += 100
		out = append(out, bent)
	}
	return out
}

// stopAfterTest: the entry machine (0) creates a sink (1), starts a timer
// (2) on it, exchanges one ping/echo with the sink and stops the timer.
// Which phase of its loop the timer is in when StopTimer lands is up to the
// schedule: the scripted cases step the timer exactly k times before letting
// the entry machine run on, the exploration legs spread it.
func stopAfterTest() Test {
	return Test{
		Name: "timer-stop",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&echoMachine{}, "sink")
			tid := ctx.StartTimer("T", sink, Signal("tick"))
			ctx.Send(sink, pingEvent{From: ctx.ID()})
			ctx.Receive("echo")
			ctx.StopTimer(tid)
		},
	}
}

// stopAfter scripts k timer steps between StartTimer and the rest of the
// entry function: entry Init (CreateMachine yields), entry again (StartTimer
// yields), the timer k times, then the fallback.
func stopAfter(k int, fires ...bool) scriptScheduler {
	return scriptScheduler{picks: slices.Concat([]MachineID{0, 0}, slices.Repeat([]MachineID{2}, k)), fires: fires}
}

func lifecycleCases() []lifecycleCase {
	return []lifecycleCase{
		// StopTimer before the timer's first step: it dies statusCreated.
		{name: "stop-in-created", test: stopAfterTest(), maxSteps: 80, script: stopAfter(0)},
		// One step: Init's self-send is out, the timer is parked mid-Init.
		{name: "stop-after-init-send", test: stopAfterTest(), maxSteps: 80, script: stopAfter(1), scriptedOnly: true},
		// Two steps: waiting at the top of its event loop, armed event queued.
		{name: "stop-at-loop-top", test: stopAfterTest(), maxSteps: 80, script: stopAfter(2), scriptedOnly: true},
		// Three steps, fired: the tick is out, the re-arm is not.
		{name: "stop-after-tick", test: stopAfterTest(), maxSteps: 80, script: stopAfter(3, true), scriptedOnly: true},
		// Three steps, idle: re-armed, parked at the end of Handle.
		{name: "stop-after-rearm", test: stopAfterTest(), maxSteps: 80, script: stopAfter(3, false), scriptedOnly: true},
		// A whole second lap: fired, re-armed, back at the loop top, idle, re-armed.
		{name: "stop-in-second-lap", test: stopAfterTest(), maxSteps: 80, script: stopAfter(7, true, false), scriptedOnly: true},
		{
			// Crash(timerID) is the same reaping as StopTimer without the
			// "is a timer" validation.
			name: "crash-timer",
			test: Test{
				Name: "timer-crash",
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(&echoMachine{}, "sink")
					tid := ctx.StartTimer("T", sink, Signal("tick"))
					ctx.Send(sink, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
					ctx.Crash(tid)
					ctx.Send(sink, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
				},
			},
			maxSteps: 80,
			script:   stopAfter(4, true),
		},
		{
			// A CrashPoint whose candidates include a timer; the script takes
			// the timer (outcome 2), the exploration legs take either or
			// decline. StopTimer on the crashed timer must still pass its
			// validation: m.timer outlives the machine.
			name: "crashpoint-over-timer",
			test: Test{
				Name:   "timer-crashpoint",
				Faults: Faults{MaxCrashes: 1},
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(&echoMachine{}, "sink")
					tid := ctx.StartTimer("T", sink, Signal("tick"))
					ctx.Send(sink, pingEvent{From: ctx.ID()})
					ctx.CrashPoint(sink, tid)
					ctx.StopTimer(tid)
				},
			},
			maxSteps: 80,
			script:   scriptScheduler{picks: slices.Concat([]MachineID{0, 0}, slices.Repeat([]MachineID{2}, 2)), crashes: []int{2}},
		},
		{
			// The target halts in Init, so every tick is dropped. The
			// scripted timer steps run on the stack the victim died on,
			// which then resumes the entry machine itself.
			name: "tick-to-halted-target",
			test: Test{
				Name: "timer-halted-target",
				Entry: func(ctx *Context) {
					victim := ctx.CreateMachine(&FuncMachine{OnInit: func(ctx *Context) { ctx.Halt() }}, "victim")
					tid := ctx.StartTimer("T", victim, Signal("tick"))
					for i := 0; i < 3; i++ {
						ctx.Send(ctx.ID(), Signal("lap"))
					}
					ctx.StopTimer(tid)
				},
			},
			maxSteps: 80,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 0, 1}, slices.Repeat([]MachineID{2}, 6), []MachineID{0, 2, 2}),
				fires: []bool{true, false, true},
			},
		},
		{
			// A user Send to the timer's ID: the timer never looks at what
			// it dequeues, so each extra inbox event costs one fire choice.
			name: "user-send-to-timer",
			test: Test{
				Name: "timer-poked",
				Entry: func(ctx *Context) {
					tid := ctx.StartTimer("T", ctx.ID(), Signal("tick"))
					ctx.Send(tid, Signal("poke"))
					ctx.Send(tid, Signal("poke"))
					ctx.Receive("tick")
					ctx.StopTimer(tid)
				},
			},
			maxSteps: 80,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 1, 0, 0}, slices.Repeat([]MachineID{1}, 9)),
				fires: []bool{false, false, false, true},
			},
		},
		{
			name: "two-timers-one-target",
			test: Test{
				Name: "timer-pair",
				Entry: func(ctx *Context) {
					a := ctx.StartTimer("A", ctx.ID(), Signal("tick"))
					b := ctx.StartTimer("B", ctx.ID(), Signal("tick"))
					ctx.Receive("tick")
					ctx.Receive("tick")
					ctx.StopTimer(b)
					ctx.StopTimer(a)
				},
			},
			maxSteps: 120,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 0, 0}, []MachineID{1, 2, 2, 1, 1, 2, 2, 1, 2, 1}),
				fires: []bool{true, false, true},
			},
		},
		{
			// The stopped timer's ID is restarted as an ordinary machine;
			// StopTimer on it must assert "not a timer" in every execution.
			name: "restart-timer-id-as-machine",
			test: Test{
				Name: "timer-restart",
				Entry: func(ctx *Context) {
					tid := ctx.StartTimer("T", ctx.ID(), Signal("tick"))
					ctx.Receive("tick")
					ctx.StopTimer(tid)
					ctx.Restart(tid, &echoMachine{})
					ctx.Send(tid, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
					ctx.StopTimer(tid)
				},
			},
			maxSteps: 80,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 0}, slices.Repeat([]MachineID{1}, 4)),
				fires: []bool{true},
			},
		},
		{
			// Nobody stops the timers: the execution ends at MaxSteps with
			// both live and shutdown reaps them.
			name: "bound-with-live-timers",
			test: Test{
				Name: "timer-bound",
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(&echoMachine{}, "sink")
					ctx.StartTimer("A", sink, Signal("tick"))
					ctx.StartTimer("B", ctx.ID(), Signal("tick"))
				},
			},
			maxSteps: 60,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 0, 0}, []MachineID{2, 3, 3, 2, 2, 3, 1, 3, 2, 2, 0, 3, 3, 2}),
				fires: []bool{true, true, false, true, true},
			},
		},
		{
			// Quiescence after the last StopTimer: the timers were all that
			// kept the system enabled, so the execution must end well below
			// the bound once they are gone.
			name: "quiescence-after-last-stop",
			test: Test{
				Name: "timer-quiesce",
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(&echoMachine{}, "sink")
					a := ctx.StartTimer("A", sink, Signal("tick"))
					b := ctx.StartTimer("B", ctx.ID(), Signal("tick"))
					ctx.Receive("tick")
					ctx.StopTimer(a)
					ctx.Send(sink, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
					ctx.StopTimer(b)
				},
			},
			maxSteps: 200,
			script: scriptScheduler{
				picks: slices.Concat([]MachineID{0, 0, 0, 0}, []MachineID{3, 2, 3, 2, 3, 2, 3, 3, 0, 3, 0, 3, 3}),
				fires: []bool{false, true, true, true},
			},
		},
	}
}

// pinnedExecution is the scripted execution of a case.
type pinnedExecution struct {
	TraceSHA    string `json:"traceSHA256"`
	Steps       int    `json:"steps"`
	Choices     int    `json:"choices"`
	Fingerprint string `json:"fingerprint"`
	Bug         string `json:"bug,omitempty"`
	BugMachine  string `json:"bugMachine,omitempty"`
	BugStep     int    `json:"bugStep,omitempty"`
	// Divergences are the errors Replay returns for each perturbed copy of
	// the trace (lifecycleCase.bends).
	Divergences []string `json:"divergences,omitempty"`
	Log         []string `json:"log"`
}

// pinnedExploration is one scheduler's leg over a case.
type pinnedExploration struct {
	Scheduler  string `json:"scheduler"`
	Executions int    `json:"executions"`
	TotalSteps int64  `json:"totalSteps"`
	Found      bool   `json:"found"`
	Message    string `json:"message,omitempty"`
	TraceSHA   string `json:"traceSHA256,omitempty"`
	// Digest folds, over the first lifecycleDigestExecs executions of a
	// fresh scheduler instance, each execution's step count, fingerprint
	// and packed decision words.
	Digest string `json:"digest"`
}

type pinnedCase struct {
	Name     string              `json:"name"`
	MaxSteps int                 `json:"maxSteps"`
	Scripted pinnedExecution     `json:"scripted"`
	Explore  []pinnedExploration `json:"explore,omitempty"`
}

const (
	lifecycleSeed        = 17
	lifecycleIterations  = 120
	lifecycleDigestExecs = 40
)

var lifecycleSchedulers = []string{"random", "pct", "delay", "dfs"}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// firstLine cuts a violation message at its first newline: panic messages
// carry a stack.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// replayWithLog is Replay with the runtime kept: the log of a clean
// execution, the step count and the fingerprint are observables too.
func replayWithLog(t *testing.T, test Test, tr *Trace, maxSteps int) *Runtime {
	t.Helper()
	o := resolved(Options{MaxSteps: maxSteps})
	sched := newReplayScheduler(tr)
	cfg := o.runtimeConfig(test, true)
	cfg.faults = tr.Faults
	r := newRuntime(sched, cfg)
	r.execute(test)
	return r
}

// runScripted executes c's script on a runtime from pool (nil: unpooled)
// after warm executions that leave recycled machine structs behind, and
// pins the execution through a decoded copy of its own trace.
func runScripted(t *testing.T, c lifecycleCase, pool *execPool, warm int) pinnedExecution {
	t.Helper()
	o := resolved(Options{MaxSteps: c.maxSteps})
	cfg := o.runtimeConfig(c.test, false)
	cfg.checkEnabled = true
	rnd := NewRandomScheduler()
	for i := 0; i < warm; i++ {
		rnd.Prepare(int64(i+1), o.MaxSteps)
		pool.runtime(rnd, cfg).execute(c.test)
	}
	sched := c.script
	sched.Prepare(0, o.MaxSteps)
	r := pool.runtime(&sched, cfg)
	rep := r.execute(c.test)
	if sched.bad != "" {
		t.Fatalf("%s: %s", c.name, sched.bad)
	}
	if sched.pi < len(sched.picks) || sched.fi < len(sched.fires) || sched.ci < len(sched.crashes) || sched.xi < len(sched.persists) {
		t.Fatalf("%s: execution ended with the script unconsumed (%d/%d picks, %d/%d fires, %d/%d crashes, %d/%d persists)",
			c.name, sched.pi, len(sched.picks), sched.fi, len(sched.fires), sched.ci, len(sched.crashes), sched.xi, len(sched.persists))
	}
	tr := newTrace(c.test.Name, sched.Name(), 0, o.EffectiveFaults(c.test), r.dec.decode())
	data, err := tr.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", c.name, err)
	}
	p := pinnedExecution{
		TraceSHA:    sha256Hex(data),
		Steps:       r.steps,
		Choices:     len(tr.Decisions),
		Fingerprint: fmt.Sprintf("%016x", r.Fingerprint()),
	}
	if rep != nil {
		p.Bug = firstLine(rep.Message)
		if c.pinBugSite {
			p.BugMachine, p.BugStep = rep.Machine, rep.Step
		}
	}

	decoded, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.name, err)
	}
	rr := replayWithLog(t, c.test, decoded, c.maxSteps)
	if rr.divergence != nil {
		t.Fatalf("%s: replay diverged: %v", c.name, rr.divergence)
	}
	if rr.steps != r.steps || rr.Fingerprint() != r.Fingerprint() || (rr.bug == nil) != (rep == nil) {
		t.Fatalf("%s: replay took %d steps to fingerprint %016x (bug %v), the recording %d to %016x (bug %v)",
			c.name, rr.steps, rr.Fingerprint(), rr.bug != nil, r.steps, r.Fingerprint(), rep != nil)
	}
	p.Log = append([]string{}, rr.logLines()...)

	bends := c.bends
	if bends == nil {
		bends = bendTimers
	}
	for i, ds := range bends(decoded.Decisions) {
		bent := *decoded
		bent.Decisions = ds
		rep, err := Replay(c.test, &bent, Options{MaxSteps: c.maxSteps})
		if rep != nil || err == nil {
			t.Fatalf("%s: replay of perturbed trace %d = (%v, %v), want a divergence", c.name, i, rep, err)
		}
		p.Divergences = append(p.Divergences, err.Error())
	}
	return p
}

// runExplorations runs c under every lifecycle scheduler: Explore for the
// canonical statistics and winning trace, then a direct loop over a fresh
// instance for the per-execution digest.
func runExplorations(t *testing.T, c lifecycleCase, workers int, noReuse bool) []pinnedExploration {
	t.Helper()
	var out []pinnedExploration
	if c.scriptedOnly {
		return nil
	}
	for _, name := range lifecycleSchedulers {
		o := Options{
			Scheduler: name, Iterations: lifecycleIterations, MaxSteps: c.maxSteps, Seed: lifecycleSeed,
			Workers: workers, NoReuse: noReuse, NoReplayLog: true, debugCheckEnabled: true,
		}
		res := exploreWith(c.test, o)
		p := pinnedExploration{Scheduler: name, Executions: res.Executions, TotalSteps: res.TotalSteps, Found: res.BugFound}
		if res.BugFound {
			data, err := res.Report.Trace.Encode()
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", c.name, name, err)
			}
			p.Message, p.TraceSHA = firstLine(res.Report.Message), sha256Hex(data)
			assertFaultTraceReplays(t, c.test, res, o)
		}

		o.Scheduler = "" // the instance is built by name below, the dfs oracle's included
		o = resolved(o)
		cfg := o.runtimeConfig(c.test, false)
		sched := newScheduler(t, name, 0)
		pool := newExecPool(o)
		h := sha256.New()
		var buf [8]byte
		word := func(w uint64) {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
		for i := 0; i < lifecycleDigestExecs; i++ {
			if sched.Prepare(execSeed(lifecycleSeed, i), o.MaxSteps); treeSpent(sched) {
				break
			}
			r := pool.runtime(sched, cfg)
			r.execute(c.test)
			word(uint64(r.steps))
			word(r.Fingerprint())
			for _, w := range r.dec.words {
				word(w)
			}
		}
		pool.release()
		p.Digest = hex.EncodeToString(h.Sum(nil))
		out = append(out, p)
	}
	return out
}

// TestTimerLifecycleMatchesGolden walks the modelled timer's own state
// space — StopTimer landing in each phase of the timer's loop, crashes,
// dropped ticks, user sends to a timer, Restart of a timer's ID, the step
// bound, quiescence — and holds every observable to
// testdata/timer_lifecycle.json: the scripted execution's trace bytes, step
// count, fingerprint, divergence errors and full replay log, and per
// scheduler (random, pct, delay, bounded dfs) the exploration statistics,
// winning trace and a digest of the first executions' decisions and
// fingerprints. Everything is reproduced pooled and unpooled, on one
// exploration worker and on four, with the per-step enabled-set
// cross-check on.
func TestTimerLifecycleMatchesGolden(t *testing.T) {
	matchLifecycleGolden(t, filepath.Join("testdata", "timer_lifecycle.json"), *updateTimerLifecycle, lifecycleCases())
}

// matchLifecycleGolden holds cases to the golden file at path: the scripted
// execution and the exploration legs of each, reproduced pooled and
// unpooled, on one exploration worker and on four. update first rewrites the
// file from this tree (one unpooled pass).
func matchLifecycleGolden(t *testing.T, path string, update bool, cases []lifecycleCase) {
	if update {
		var golden []pinnedCase
		for _, c := range cases {
			golden = append(golden, pinnedCase{
				Name: c.name, MaxSteps: c.maxSteps,
				Scripted: runScripted(t, c, nil, 0),
				Explore:  runExplorations(t, c, 1, true),
			})
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(golden); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("goldens missing (record them with the test's -update flag): %v", err)
	}
	var golden []pinnedCase
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(cases) {
		t.Fatalf("%d lifecycle cases, goldens hold %d", len(cases), len(golden))
	}
	for i, c := range cases {
		want := golden[i]
		t.Run(c.name, func(t *testing.T) {
			if want.Name != c.name || want.MaxSteps != c.maxSteps {
				t.Fatalf("golden %d is %s (bound %d), case is %s (bound %d)", i, want.Name, want.MaxSteps, c.name, c.maxSteps)
			}
			for _, noReuse := range []bool{false, true} {
				o := Options{NoReuse: noReuse}
				pool := newExecPool(o)
				got := runScripted(t, c, pool, 3)
				pool.release()
				if !reflect.DeepEqual(got, want.Scripted) {
					t.Errorf("NoReuse=%v: scripted execution moved\n got %+v\nwant %+v", noReuse, got, want.Scripted)
				}
				for _, workers := range []int{1, 4} {
					got := runExplorations(t, c, workers, noReuse)
					if !reflect.DeepEqual(got, want.Explore) {
						t.Errorf("NoReuse=%v workers=%d: explorations moved\n got %+v\nwant %+v", noReuse, workers, got, want.Explore)
					}
				}
			}
		})
	}
}

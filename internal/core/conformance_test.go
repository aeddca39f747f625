package core

import "testing"

// TestSchedulerConformance is the cross-scheduler conformance matrix: it
// is table-driven over every registered scheduler name — including any
// registered by other tests in this binary via RegisterScheduler — so a
// new portfolio member is automatically held to the conformance contract.
// The contract itself lives in VerifySchedulerConformance (exported to
// the public package as gostorm.VerifyScheduler), so user-defined
// schedulers outside this repository are held to the identical checks.
func TestSchedulerConformance(t *testing.T) {
	for _, name := range SchedulerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := VerifySchedulerConformance(name); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// probeStore stages two durable writes and tells its parent; the probe
// entry then crashes it, which is what forces a FaultPersist choice (the
// staged count is schedule-independent: "ready" is sent only after both
// Persist calls).
type probeStore struct{ parent MachineID }

func (s *probeStore) Init(ctx *Context) {
	ctx.Persist("a", []byte{1})
	ctx.Persist("b", []byte{2})
	ctx.Send(s.parent, Signal("ready"))
}

func (s *probeStore) Handle(*Context, Event) {}

// probeRecover is the restarted store incarnation: it reads back whatever
// the FaultPersist outcome made durable.
type probeRecover struct{}

func (s *probeRecover) Init(ctx *Context) {
	if got := ctx.Recover(); len(got) > 2 {
		ctx.Assert(false, "recovered %d keys, staged only 2", len(got))
	}
}

func (s *probeRecover) Handle(*Context, Event) {}

// faultProbeTest is a workload whose every execution — buggy or clean,
// under any scheduler — records all four fault decision kinds: two
// unreliable sends (DecisionDeliver), one crash offer (DecisionCrash),
// a directed crash of a machine with staged persists (DecisionPersist,
// settled into the restarted incarnation's Recover), and a timer the
// entry blocks on (DecisionTimer entries accumulate until it fires or
// the step bound cuts the execution).
func faultProbeTest() Test {
	return Test{
		Name: "fault-probe",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&counterSink{want: -1}, "sink")
			ctx.SendUnreliable(sink, Signal("ping"))
			ctx.SendUnreliable(sink, Signal("ping"))
			ctx.CrashPoint(sink)
			store := ctx.CreateMachine(&probeStore{parent: ctx.ID()}, "store")
			ctx.Receive("ready")
			ctx.Crash(store)
			ctx.Restart(store, &probeRecover{})
			tid := ctx.StartTimer("T", ctx.ID(), Signal("tick"))
			ctx.Receive("tick")
			ctx.StopTimer(tid)
		},
	}
}

// probeFaults is the budget the fault-probe conformance runs use.
var probeFaults = Faults{MaxCrashes: 1, MaxDrops: 1, MaxDuplicates: 1, MaxTornCrashes: 1}

// TestSchedulerConformanceFaultPlane holds every registry scheduler (and,
// automatically, every future one) to the fault-plane contract: an
// execution of the fault probe records timer, crash and deliver decision
// kinds, and the recorded trace round-trips through encode → decode →
// replay, reproducing the same outcome decision for decision. The oracle's
// dfs is held to it too, on its first leaf.
func TestSchedulerConformanceFaultPlane(t *testing.T) {
	for _, name := range append(SchedulerNames(), "dfs") {
		t.Run(name, func(t *testing.T) {
			sched := newScheduler(t, name, 100)
			sched.Prepare(11, 300)
			r := newRuntime(sched, runtimeConfig{
				maxSteps: 300, faults: probeFaults,
			})
			rep := r.execute(faultProbeTest())
			decisions := r.dec.decode()
			for _, kind := range []DecisionKind{DecisionTimer, DecisionCrash, DecisionDeliver, DecisionPersist} {
				found := false
				for _, d := range decisions {
					if d.Kind == kind {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("execution recorded no %q decisions", string(kind))
				}
			}
			tr := newTrace("fault-probe", name, 11, probeFaults, decisions)
			data, err := tr.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			confirm, err := Replay(faultProbeTest(), decoded, Options{
				MaxSteps: 300, Faults: &probeFaults, NoReplayLog: true,
			})
			if err != nil {
				t.Fatalf("fault trace did not replay: %v", err)
			}
			switch {
			case rep == nil && confirm != nil:
				t.Fatalf("clean execution replayed to a violation: %v", confirm.Error())
			case rep != nil && confirm == nil:
				t.Fatalf("buggy execution replayed cleanly; recorded: %v", rep.Error())
			case rep != nil && confirm != nil && rep.Message != confirm.Message:
				t.Fatalf("replay reproduced %q, recorded %q", confirm.Message, rep.Message)
			}
		})
	}
}

// TestSchedulerConformanceSingletonEnabled: with exactly one enabled
// machine every scheduler must pick it, whatever its internal state; the
// oracle's dfs too.
func TestSchedulerConformanceSingletonEnabled(t *testing.T) {
	for _, name := range append(SchedulerNames(), "dfs") {
		t.Run(name, func(t *testing.T) {
			s := newScheduler(t, name, 0)
			s.Prepare(3, 1000)
			for step := 0; step < 50; step++ {
				only := MachineID(step % 11)
				if got := s.NextMachine([]MachineID{only}); got != only {
					t.Fatalf("step %d: NextMachine([%d]) = %d", step, only, got)
				}
			}
		})
	}
}

// TestSchedulerNamesCoverRegistry: SchedulerNames and lookupScheduler
// agree on the set of valid names, and the portfolio accepts
// every one of them as a member.
func TestSchedulerNamesCoverRegistry(t *testing.T) {
	names := SchedulerNames()
	if len(names) == 0 {
		t.Fatal("no registered schedulers")
	}
	for _, name := range names {
		if _, err := lookupScheduler(name); err != nil {
			t.Fatalf("registered name %q rejected by the registry: %v", name, err)
		}
	}
	// Every registered scheduler is a valid portfolio member: an
	// all-members portfolio on a trivially clean test must run through.
	res := MustExplore(cleanChoiceTest(), withMembers(
		Options{Iterations: 4, Seed: 1, Workers: 2, NoReplayLog: true}, names...))
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if len(res.Portfolio) != len(names) {
		t.Fatalf("portfolio stats for %d members, want %d", len(res.Portfolio), len(names))
	}
}

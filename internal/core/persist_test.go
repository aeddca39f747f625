package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// --- crash-consistency plane: Persist / Sync / Recover semantics ---

// persistStore is a machine with a synced and an un-synced write: "base"
// is made durable by Sync, "tail" stays staged. It reports readiness to
// its parent only after both, so the staged count at a later crash is
// schedule-independent.
type persistStore struct{ parent MachineID }

func (s *persistStore) Init(ctx *Context) {
	ctx.Persist("base", []byte("b"))
	ctx.Sync()
	ctx.Persist("tail", []byte("t"))
	ctx.Send(s.parent, Signal("ready"))
}

func (s *persistStore) Handle(*Context, Event) {}

// syncedRecover asserts the durability contract at recovery: the synced
// write is always there, and the staged one only ever survives through a
// torn crash state — never with a zero torn budget.
type syncedRecover struct{ allowTorn bool }

func (s *syncedRecover) Init(ctx *Context) {
	got := ctx.Recover()
	ctx.Assert(string(got["base"]) == "b", "synced write lost at crash: recovered %q", got["base"])
	if !s.allowTorn {
		_, tornTail := got["tail"]
		ctx.Assert(!tornTail, "un-synced write survived a crash with no torn budget")
	}
}

func (s *syncedRecover) Handle(*Context, Event) {}

func syncedSurvivalTest(allowTorn bool) Test {
	return Test{
		Name: "persist-synced",
		Entry: func(ctx *Context) {
			store := ctx.CreateMachine(&persistStore{parent: ctx.ID()}, "store")
			ctx.Receive("ready")
			ctx.Crash(store)
			ctx.Restart(store, &syncedRecover{allowTorn: allowTorn})
		},
	}
}

// TestSyncedWritesSurviveCrash: with a zero torn budget the crash outcome
// is fully deterministic — Sync'd writes survive, staged ones are lost —
// for every scheduler, with and without pooling.
func TestSyncedWritesSurviveCrash(t *testing.T) {
	for _, sched := range []string{"random", "rr", "pct", "dfs", "mutational"} {
		for _, reuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noreuse=%v", sched, reuse), func(t *testing.T) {
				res := exploreWith(syncedSurvivalTest(false), Options{
					Scheduler: sched, Iterations: 200, Seed: 5,
					NoReuse: reuse, NoReplayLog: true,
				})
				if res.BugFound {
					t.Fatalf("durability contract violated: %v", res.Report.Error())
				}
			})
		}
	}
}

// TestZeroTornBudgetRecordsNoPersistDecisions: without torn budget the
// crash settles staged writes silently — no FaultPersist choice point is
// presented and no DecisionPersist recorded, so persist-free *traces*
// stay exactly as they were before the plane existed.
func TestZeroTornBudgetRecordsNoPersistDecisions(t *testing.T) {
	sched := NewRandomScheduler()
	for seed := int64(0); seed < 20; seed++ {
		sched.Prepare(seed, 200)
		r := newRuntime(sched, runtimeConfig{maxSteps: 200})
		if rep := r.execute(syncedSurvivalTest(true)); rep != nil {
			t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
		}
		for _, d := range r.dec.decode() {
			if d.Kind == DecisionPersist {
				t.Fatalf("seed %d: DecisionPersist recorded with a zero torn budget", seed)
			}
		}
	}
}

// tornStore stages three ordered writes (no Sync) and reports readiness.
type tornStore struct{ parent MachineID }

func (s *tornStore) Init(ctx *Context) {
	ctx.Persist("a", []byte{1})
	ctx.Persist("b", []byte{2})
	ctx.Persist("c", []byte{3})
	ctx.Send(s.parent, Signal("ready"))
}

func (s *tornStore) Handle(*Context, Event) {}

// prefixRecover asserts the B3-style prefix bound of torn crash states —
// a later write never survives without every earlier one — and, when
// seeded, "fails" on any torn state so exploration provably reaches one.
type prefixRecover struct{ failOnTorn bool }

func (s *prefixRecover) Init(ctx *Context) {
	got := ctx.Recover()
	_, a := got["a"]
	_, b := got["b"]
	_, c := got["c"]
	ctx.Assert(!c || b, "write c survived without b: torn state is not a prefix")
	ctx.Assert(!b || a, "write b survived without a: torn state is not a prefix")
	if s.failOnTorn {
		ctx.Assert(len(got) == 0, "torn crash state reached: %d staged writes survived", len(got))
	}
}

func (s *prefixRecover) Handle(*Context, Event) {}

func tornCrashTest(failOnTorn bool) Test {
	return Test{
		Name: "persist-torn",
		Entry: func(ctx *Context) {
			store := ctx.CreateMachine(&tornStore{parent: ctx.ID()}, "store")
			ctx.Receive("ready")
			ctx.Crash(store)
			ctx.Restart(store, &prefixRecover{failOnTorn: failOnTorn})
		},
		Faults: Faults{MaxTornCrashes: 1},
	}
}

// TestTornCrashEnumeratesPrefixes: with budget, exploration reaches a
// non-benign crash state (the seeded assert fires), the trace records the
// torn DecisionPersist, and the trace replays to the identical violation.
func TestTornCrashEnumeratesPrefixes(t *testing.T) {
	for _, sched := range []string{"random", "pct", "mutational"} {
		t.Run(sched, func(t *testing.T) {
			opts := Options{Scheduler: sched, Iterations: 500, Seed: 7, NoReplayLog: true}
			res := MustExplore(tornCrashTest(true), opts)
			if !res.BugFound {
				t.Fatal("no torn crash state reached despite the budget")
			}
			if !hasDecisionKind(res.Report.Trace, DecisionPersist) {
				t.Fatal("buggy trace records no DecisionPersist")
			}
			torn := false
			for _, d := range res.Report.Trace.Decisions {
				if d.Kind == DecisionPersist && d.Int > 0 {
					torn = true
				}
			}
			if !torn {
				t.Fatal("recorded persist decisions are all benign, yet writes survived")
			}
			assertFaultTraceReplays(t, tornCrashTest(true), res, opts)
		})
	}
}

// TestTornPrefixInvariantHolds: across a wide exploration, every torn
// crash state the engine enumerates respects the prefix bound.
func TestTornPrefixInvariantHolds(t *testing.T) {
	res := MustExplore(tornCrashTest(false), Options{
		Scheduler: "random", Iterations: 2000, Seed: 3, NoReplayLog: true,
	})
	if res.BugFound {
		t.Fatalf("prefix invariant violated: %v", res.Report.Error())
	}
}

// twoCrashTest crashes two independent staged stores in sequence; with a
// torn budget of one, at most one of the two crashes may take a
// non-benign outcome.
func twoCrashTest() Test {
	return Test{
		Name: "persist-budget",
		Entry: func(ctx *Context) {
			s1 := ctx.CreateMachine(&tornStore{parent: ctx.ID()}, "s1")
			ctx.Receive("ready")
			ctx.Crash(s1)
			ctx.Restart(s1, &prefixRecover{})
			s2 := ctx.CreateMachine(&tornStore{parent: ctx.ID()}, "s2")
			ctx.Receive("ready")
			ctx.Crash(s2)
			ctx.Restart(s2, &prefixRecover{})
		},
		Faults: Faults{MaxTornCrashes: 1},
	}
}

// TestTornBudgetCharged: the MaxTornCrashes budget bounds non-benign
// outcomes per execution — and a taken torn outcome spends it, so the
// second crash of the execution presents no choice at all.
func TestTornBudgetCharged(t *testing.T) {
	sched := NewRandomScheduler()
	spent := false
	for seed := int64(0); seed < 40; seed++ {
		sched.Prepare(seed, 300)
		r := newRuntime(sched, runtimeConfig{
			maxSteps: 300, faults: Faults{MaxTornCrashes: 1},
		})
		if rep := r.execute(twoCrashTest()); rep != nil {
			t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
		}
		tornSeen := false
		for _, d := range r.dec.decode() {
			if d.Kind != DecisionPersist {
				continue
			}
			if tornSeen {
				t.Fatalf("seed %d: persist choice presented after the torn budget was spent", seed)
			}
			if d.Int > 0 {
				tornSeen = true
				spent = true
			}
		}
	}
	if !spent {
		t.Fatal("no seed ever took a torn outcome; budget charging is untested")
	}
}

// TestPersistPooledReuseLeaksNothing: a persist-heavy workload explored
// with pooled runtimes must behave exactly like fresh ones — recovered
// state never bleeds from one execution into the next. (The enabledcheck
// build additionally asserts at every reset that no machine retains
// durable or staged state; this test drives that assertion too.)
func TestPersistPooledReuseLeaksNothing(t *testing.T) {
	pooled := Options{Scheduler: "random", Iterations: 1000, Seed: 13, NoReplayLog: true}
	fresh := pooled
	fresh.NoReuse = true
	a := MustExplore(tornCrashTest(true), pooled)
	b := MustExplore(tornCrashTest(true), fresh)
	assertIdenticalResults(t, "persist pooled vs NoReuse", a, b)
	if !a.BugFound {
		t.Fatal("torn bug not found; leak check exercised nothing")
	}
}

// --- the storage contracts behind recycled crash-plane storage ---

var contractKeys = [...]string{"a", "b", "c"}

// contractStore persists one value per contract key through a single
// buffer it scribbles over after every Persist, syncs, and reports
// readiness.
type contractStore struct {
	parent MachineID
	vals   [len(contractKeys)]string
}

func (s *contractStore) Init(ctx *Context) {
	buf := make([]byte, 2)
	for i, k := range contractKeys {
		copy(buf, s.vals[i])
		ctx.Persist(k, buf)
		copy(buf, "!!")
	}
	ctx.Sync()
	ctx.Send(s.parent, Signal("ready"))
}

func (s *contractStore) Handle(*Context, Event) {}

// contractRecover checks what the restarted incarnation reads back: the
// values as they were when persisted, snapshots whose values can be
// written and appended to without reaching a neighbour or the store. It
// hands its last snapshot to the test through keep.
type contractRecover struct {
	vals [len(contractKeys)]string
	keep *map[string][]byte
}

func (s *contractRecover) Init(ctx *Context) {
	for i, k := range contractKeys {
		snap := ctx.Recover()
		ctx.Assert(string(snap[k]) == s.vals[i], "recovered %s = %q, want %q: Persist kept the caller's buffer", k, snap[k], s.vals[i])
		v := snap[k]
		for j := range v {
			v[j] = '?'
		}
		snap[k] = append(v, '?')
		for j, other := range contractKeys {
			if j != i {
				ctx.Assert(string(snap[other]) == s.vals[j], "writing recovered %s reached %s: %q, want %q", k, other, snap[other], s.vals[j])
			}
		}
	}
	snap := ctx.Recover()
	for i, k := range contractKeys {
		ctx.Assert(string(snap[k]) == s.vals[i], "writing a snapshot reached the store: %s = %q, want %q", k, snap[k], s.vals[i])
	}
	*s.keep = snap
}

func (s *contractRecover) Handle(*Context, Event) {}

// TestPersistAndRecoverOwnTheirBytes holds the recycled storage to the
// contracts Persist and Recover state: Persist copies the caller's bytes
// (into the runtime's arena), every Recover snapshot is the caller's own
// (one buffer, each value a capacity-capped window of it), and a snapshot
// kept past its execution survives the pooled runtime rewinding the arena
// and persisting different bytes into it.
func TestPersistAndRecoverOwnTheirBytes(t *testing.T) {
	build := func(n int, keep *map[string][]byte) (Test, [len(contractKeys)]string) {
		var vals [len(contractKeys)]string
		for i, k := range contractKeys {
			vals[i] = fmt.Sprintf("%s%d", k, n%10)
		}
		return Test{
			Name: "persist-contracts",
			Entry: func(ctx *Context) {
				store := ctx.CreateMachine(&contractStore{parent: ctx.ID(), vals: vals}, "store")
				ctx.Receive("ready")
				ctx.Crash(store)
				ctx.Restart(store, &contractRecover{vals: vals, keep: keep})
			},
		}, vals
	}
	o := resolved(Options{Iterations: 1, MaxSteps: 200})
	sched := NewRandomScheduler()
	pool := newExecPool(o)
	defer pool.release()
	var kept []map[string][]byte
	var want [][len(contractKeys)]string
	for n := 0; n < 30; n++ {
		var snap map[string][]byte
		test, vals := build(n, &snap)
		sched.Prepare(int64(n), o.MaxSteps)
		if rep := pool.runtime(sched, o.runtimeConfig(test, false)).execute(test); rep != nil {
			t.Fatalf("execution %d: %v", n, rep.Error())
		}
		if snap == nil {
			t.Fatalf("execution %d: the restarted store recovered nothing", n)
		}
		kept, want = append(kept, snap), append(want, vals)
		for e, s := range kept {
			for i, k := range contractKeys {
				if string(s[k]) != want[e][i] {
					t.Fatalf("after execution %d, the snapshot of execution %d reads %s = %q, want %q", n, e, k, s[k], want[e][i])
				}
			}
		}
	}
}

// --- the durable store: last write wins, in place ---

// persistOp is one step of a scriptStore: a Sync when sync is set, a
// Persist of key=val otherwise.
type persistOp struct {
	key, val string
	sync     bool
}

func put(key, val string) persistOp { return persistOp{key: key, val: val} }

var syncOp = persistOp{sync: true}

// scriptStore runs its ops in order and reports readiness.
type scriptStore struct {
	parent MachineID
	ops    []persistOp
}

func (s *scriptStore) Init(ctx *Context) {
	for _, op := range s.ops {
		if op.sync {
			ctx.Sync()
		} else {
			ctx.Persist(op.key, []byte(op.val))
		}
	}
	ctx.Send(s.parent, Signal("ready"))
}

func (s *scriptStore) Handle(*Context, Event) {}

// recoverTwice reads the store back, checks that it holds one entry per
// key, changes that snapshot — every value overwritten and grown, its first
// key deleted, a key added — and reads the store again; both reads go to
// the test.
type recoverTwice struct{ got *[2]map[string]string }

func (s *recoverTwice) Init(ctx *Context) {
	strs := func(m map[string][]byte) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = string(v)
		}
		return out
	}
	first := ctx.Recover()
	ctx.Assert(len(ctx.m.durable) == len(first), "the store holds %d entries for %d keys", len(ctx.m.durable), len(first))
	s.got[0] = strs(first)
	keys := slices.Sorted(maps.Keys(first))
	for _, k := range keys {
		v := first[k]
		for i := range v {
			v[i] = '?'
		}
		first[k] = append(v, '?')
	}
	delete(first, keys[0])
	first["added"] = []byte("x")
	s.got[1] = strs(ctx.Recover())
}

func (s *recoverTwice) Handle(*Context, Event) {}

// persistAnswer answers every FaultPersist choice with k (and declines
// every other fault choice).
type persistAnswer struct {
	Scheduler
	k int
}

func (p persistAnswer) NextFault(c FaultChoice) int {
	if c.Kind == FaultPersist {
		return p.k
	}
	return 0
}

// TestDurableStoreKeepsTheLastWrite crashes a store after a script of
// writes, lets the crash keep the first torn staged writes, and holds what
// the restarted incarnation recovers to the last value each key was made
// durable with: a key rewritten after a Sync, a torn prefix that rewrites a
// synced key, and 100 distinct keys. A second Recover after the first
// snapshot was changed reads the store unchanged.
func TestDurableStoreKeepsTheLastWrite(t *testing.T) {
	many := make([]persistOp, 0, 101)
	manyWant := map[string]string{}
	for i := range 100 {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)
		many = append(many, put(k, v))
		manyWant[k] = v
	}
	many = append(many, syncOp)
	rewrite := []persistOp{put("a", "1"), put("b", "1"), syncOp, put("a", "2"), put("c", "3"), put("b", "4")}
	for _, c := range []struct {
		name string
		ops  []persistOp
		torn int
		want map[string]string
	}{
		{"rewritten after Sync", []persistOp{put("a", "1"), syncOp, put("a", "2"), syncOp, put("a", "3")}, 0, map[string]string{"a": "2"}},
		{"torn prefix of 0", rewrite, 0, map[string]string{"a": "1", "b": "1"}},
		{"torn prefix of 1 rewrites a", rewrite, 1, map[string]string{"a": "2", "b": "1"}},
		{"torn prefix of 2 adds c", rewrite, 2, map[string]string{"a": "2", "b": "1", "c": "3"}},
		{"torn prefix of 3 rewrites b", rewrite, 3, map[string]string{"a": "2", "b": "4", "c": "3"}},
		{"100 distinct keys", many, 0, manyWant},
	} {
		var got [2]map[string]string
		test := Test{
			Name: "durable-last-write",
			Entry: func(ctx *Context) {
				store := ctx.CreateMachine(&scriptStore{parent: ctx.ID(), ops: c.ops}, "store")
				ctx.Receive("ready")
				ctx.Crash(store)
				ctx.Restart(store, &recoverTwice{got: &got})
			},
			Faults: Faults{MaxTornCrashes: 1},
		}
		o := resolved(Options{MaxSteps: 1000})
		sched := persistAnswer{newScheduler(t, "random", 0), c.torn}
		sched.Prepare(1, o.MaxSteps)
		if rep := newRuntime(sched, o.runtimeConfig(test, false)).execute(test); rep != nil {
			t.Fatalf("%s: %v", c.name, rep.Error())
		}
		if !maps.Equal(got[0], c.want) {
			t.Errorf("%s: recovered %v, want %v", c.name, got[0], c.want)
		}
		if !maps.Equal(got[1], c.want) {
			t.Errorf("%s: after the first snapshot was changed, recovered %v, want %v", c.name, got[1], c.want)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fpDiverseTest is a clean workload whose coverage fingerprint varies
// with the schedule: three senders race to a collector, so the dequeue
// order — part of the fingerprint — differs across interleavings, and
// the corpus of a feedback run accumulates several entries.
func fpDiverseTest() Test {
	return Test{
		Name: "fp-diverse",
		Entry: func(ctx *Context) {
			seen := 0
			collector := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {
					seen++
					ctx.RandomInt(3)
					if seen == 3 {
						ctx.Halt()
					}
				},
			}, "collector")
			for _, n := range []string{"a", "b", "c"} {
				name := n
				ctx.CreateMachine(&FuncMachine{
					OnInit: func(ctx *Context) { ctx.Send(collector, Signal(name)) },
				}, name+"-sender")
			}
		},
	}
}

// fanInTest is a clean workload with n! coverage fingerprints: n senders
// race to a collector, and the order it dequeues them in is the
// fingerprint. At n = 5 a feedback run keeps finding novel ones for
// hundreds of executions.
func fanInTest(n int) Test {
	return Test{
		Name: "fan-in",
		Entry: func(ctx *Context) {
			collector := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {},
			}, "collector")
			for i := range n {
				name := Signal(fmt.Sprint("s", i))
				ctx.CreateMachine(&FuncMachine{
					OnInit: func(ctx *Context) { ctx.Send(collector, name) },
				}, string(name)+"-sender")
			}
		},
	}
}

// stagedBugTest hides a bug behind a six-stage ratchet: each stage
// requires RandomInt(4) == 0 to advance, and each stage dequeues a
// distinctly named event — so the coverage fingerprint identifies how
// deep an execution got, which is exactly the gradient coverage-guided
// mutation climbs. A uniform random scheduler needs on the order of
// 4^6 = 4096 executions; a mutational scheduler that replays the prefix
// of the deepest recorded execution needs far fewer.
func stagedBugTest() Test {
	return Test{
		Name: "staged",
		Entry: func(ctx *Context) {
			stage := 0
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("s0")) },
				OnEvent: func(ctx *Context, ev Event) {
					if ctx.RandomInt(4) != 0 {
						ctx.Halt()
						return
					}
					stage++
					ctx.Assert(stage < 6, "reached the deep stage")
					ctx.Send(ctx.ID(), Signal(fmt.Sprintf("s%d", stage)))
				},
			}, "driver")
		},
	}
}

// TestMutationalDeclaresFeedback pins what the loop reads off each member's
// instances: mutational is feedback-driven and not adaptive, pct and delay
// are adaptive, and no classic strategy is feedback-driven.
func TestMutationalDeclaresFeedback(t *testing.T) {
	o := resolved(withMembers(Options{Iterations: 1, Workers: 1}, "mutational", "random", "pct", "rr", "delay"))
	ex, err := exploreRange(fixtureTest(), o, Shard{To: PlanSize(o)}, false)
	if err != nil {
		t.Fatal(err)
	}
	for m, mb := range ex.members {
		name := o.Portfolio[m]
		if wantFeedback, wantAdaptive := name == "mutational", name == "pct" || name == "delay"; mb.feedback != wantFeedback || mb.adaptive != wantAdaptive {
			t.Errorf("%s: feedback %t adaptive %t, want %t %t", name, mb.feedback, mb.adaptive, wantFeedback, wantAdaptive)
		}
	}
}

// assertSameCorpus compares the reported corpus fingerprints of two runs
// element by element — insertion order included, since the order is part
// of the determinism contract.
func assertSameCorpus(t *testing.T, label string, a, b Result) {
	t.Helper()
	if len(a.Corpus) != len(b.Corpus) {
		t.Fatalf("%s: corpus sizes diverge: %d vs %d", label, len(a.Corpus), len(b.Corpus))
	}
	for i := range a.Corpus {
		if a.Corpus[i] != b.Corpus[i] {
			t.Fatalf("%s: corpus entry %d diverges: %#x vs %#x", label, i, a.Corpus[i], b.Corpus[i])
		}
	}
}

// TestFeedbackCorpusDeterministicAcrossWorkers is the acceptance
// criterion of the generation-barrier loop: a fixed seed and budget must
// yield a bit-identical corpus — same fingerprints, same insertion
// order — and identical canonical statistics at every worker count.
func TestFeedbackCorpusDeterministicAcrossWorkers(t *testing.T) {
	base := Options{Scheduler: "mutational", Iterations: 300, Seed: 13, NoReplayLog: true}
	var ref Result
	for i, w := range []int{1, 2, 3, 4, 8} {
		o := base
		o.Workers = w
		res := MustExplore(fpDiverseTest(), o)
		if res.BugFound {
			t.Fatalf("unexpected bug at %d workers: %v", w, res.Report.Error())
		}
		if res.Corpus == nil {
			t.Fatalf("no corpus reported at %d workers", w)
		}
		if i == 0 {
			ref = res
			if len(ref.Corpus) < 2 {
				t.Fatalf("corpus too small for the comparison to mean anything: %d entries", len(ref.Corpus))
			}
			continue
		}
		label := fmt.Sprintf("workers=%d", w)
		if res.Executions != ref.Executions || res.TotalSteps != ref.TotalSteps {
			t.Fatalf("%s: statistics diverge:\nref: %+v\ngot: %+v", label, ref, res)
		}
		assertSameCorpus(t, label, ref, res)
	}
}

// TestMutationalBugDeterministicAcrossWorkers: when the feedback run
// does find a bug, the winning iteration, trace, statistics, and the
// reported corpus snapshot are worker-count independent — the staged
// ratchet takes well over one generation, so the corpus is in active use
// when the bug lands.
func TestMutationalBugDeterministicAcrossWorkers(t *testing.T) {
	base := Options{Scheduler: "mutational", Iterations: 5000, Seed: 3, NoReplayLog: true}
	var ref Result
	for i, w := range []int{1, 2, 4, 8} {
		o := base
		o.Workers = w
		res := MustExplore(stagedBugTest(), o)
		if !res.BugFound {
			t.Fatalf("bug not found at %d workers", w)
		}
		if i == 0 {
			ref = res
			continue
		}
		label := fmt.Sprintf("workers=%d", w)
		if res.Report.Iteration != ref.Report.Iteration {
			t.Fatalf("%s: winning iteration diverges: %d vs %d", label, ref.Report.Iteration, res.Report.Iteration)
		}
		if res.Executions != ref.Executions || res.TotalSteps != ref.TotalSteps || res.Choices != ref.Choices {
			t.Fatalf("%s: statistics diverge:\nref: %+v\ngot: %+v", label, ref, res)
		}
		ad, bd := ref.Report.Trace.Decisions, res.Report.Trace.Decisions
		if len(ad) != len(bd) {
			t.Fatalf("%s: decision counts diverge: %d vs %d", label, len(ad), len(bd))
		}
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("%s: decision %d diverges: %s vs %s", label, j, ad[j], bd[j])
			}
		}
		assertSameCorpus(t, label, ref, res)
	}
}

// TestFeedbackScheduleIgnoresBudget: generation windows are aligned to the
// plan, not to the budget, so a budget that ends mid-window changes no
// schedule below it. A clean run's corpus candidates at a smaller budget are
// those of a larger one recorded below the smaller plan's end, and a bug is
// found at the same iteration, with the same trace bytes, under any budget
// that reaches it — here the staged bug at iteration 266, with budgets
// ending before, mid-way through and after the window [256, 320) it is in.
func TestFeedbackScheduleIgnoresBudget(t *testing.T) {
	for _, o := range []Options{{Scheduler: "mutational"}, withMembers(Options{}, "random", "mutational")} {
		o.Seed, o.Workers, o.NoReplayLog = 13, 4, true
		name := strings.Join(o.Members(), ",")
		var ref []CorpusCandidate
		for _, iterations := range []int{300, 100, 150, 231} { // the reference first; each of the rest ends mid-window
			o.Iterations = iterations
			res, err := ExploreShard(fanInTest(5), o, Shard{To: PlanSize(o)})
			if err != nil || res.BugFound {
				t.Fatalf("%s, %d iterations: error %v, bug %v", name, iterations, err, res.BugFound)
			}
			if ref == nil {
				ref = res.Candidates
				continue
			}
			var want []CorpusCandidate
			for _, c := range ref {
				if c.Position < PlanSize(o) {
					want = append(want, c)
				}
			}
			if len(want) < 2 || len(want) == len(ref) {
				t.Fatalf("%s, %d iterations: %d of the reference's %d candidates lie below the plan's end; the comparison means nothing",
					name, iterations, len(want), len(ref))
			}
			if !reflect.DeepEqual(res.Candidates, want) {
				t.Fatalf("%s, %d iterations: candidates\n got %v\nwant %v", name, iterations, res.Candidates, want)
			}
		}
	}

	var want []byte
	for _, iterations := range []int{5000, 3000, 300, 267} {
		res := MustExplore(stagedBugTest(), Options{Scheduler: "mutational", Iterations: iterations, Seed: 3, Workers: 4, NoReplayLog: true})
		if !res.BugFound || res.Report.Iteration != 266 {
			t.Fatalf("%d iterations: bug %v, want the staged bug at iteration 266", iterations, res.BugFound)
		}
		got := encodeTrace(t, res.Report.Trace)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%d iterations: the trace differs from the %d-iteration run's", iterations, 5000)
		}
	}
}

// TestMutationalBeatsRandomOnStagedRatchet is the point of the feature:
// on a workload whose coverage fingerprint tracks progress toward the
// bug, coverage-guided mutation reaches it in fewer iterations than
// uniform random search. Both runs share the seed and budget; random
// needs on the order of 4^6 executions here, so the margin is wide, not
// a seed accident.
func TestMutationalBeatsRandomOnStagedRatchet(t *testing.T) {
	budget := 20000
	mut := MustExplore(stagedBugTest(), Options{
		Scheduler: "mutational", Iterations: budget, Seed: 3, NoReplayLog: true})
	rnd := MustExplore(stagedBugTest(), Options{
		Scheduler: "random", Iterations: budget, Seed: 3, NoReplayLog: true})
	if !mut.BugFound {
		t.Fatal("mutational did not find the staged bug")
	}
	if !rnd.BugFound {
		t.Fatal("random did not find the staged bug within the budget")
	}
	if mut.Report.Iteration >= rnd.Report.Iteration {
		t.Fatalf("mutational (iteration %d) did not beat random (iteration %d)",
			mut.Report.Iteration, rnd.Report.Iteration)
	}
}

// TestPortfolioWithFeedbackMemberDeterministic drives the shared-corpus
// portfolio path: racing random against mutational must stay
// bit-identical across worker counts, corpus included — candidates come
// from both members, merged in canonical global order.
func TestPortfolioWithFeedbackMemberDeterministic(t *testing.T) {
	base := withMembers(Options{Iterations: 300, Seed: 13, NoReplayLog: true}, "random", "mutational")
	var ref Result
	for i, w := range []int{1, 2, 4, 8} {
		o := base
		o.Workers = w
		res := MustExplore(fpDiverseTest(), o)
		if res.BugFound {
			t.Fatalf("unexpected bug at %d workers: %v", w, res.Report.Error())
		}
		if len(res.Portfolio) != 2 {
			t.Fatalf("portfolio stats missing at %d workers: %+v", w, res.Portfolio)
		}
		if i == 0 {
			ref = res
			if len(ref.Corpus) < 2 {
				t.Fatalf("corpus too small for the comparison to mean anything: %d entries", len(ref.Corpus))
			}
			continue
		}
		label := fmt.Sprintf("workers=%d", w)
		if res.Executions != ref.Executions || res.TotalSteps != ref.TotalSteps {
			t.Fatalf("%s: statistics diverge:\nref: %+v\ngot: %+v", label, ref, res)
		}
		for m := range ref.Portfolio {
			am, bm := ref.Portfolio[m], res.Portfolio[m]
			if am.Executions != bm.Executions || am.TotalSteps != bm.TotalSteps {
				t.Fatalf("%s: member %d statistics diverge:\nref: %+v\ngot: %+v", label, m, am, bm)
			}
		}
		assertSameCorpus(t, label, ref, res)
	}
}

// TestPortfolioWithFeedbackMemberFindsBug: the feedback portfolio path
// resolves first-bug-wins exactly like the classic path, and a raced
// mutational member still beats random to the staged bug.
func TestPortfolioWithFeedbackMemberFindsBug(t *testing.T) {
	base := withMembers(Options{Iterations: 20000, Seed: 3, NoReplayLog: true}, "random", "mutational")
	a := base
	a.Workers = 1
	b := base
	b.Workers = 8
	ra := MustExplore(stagedBugTest(), a)
	rb := MustExplore(stagedBugTest(), b)
	assertSameWin(t, ra, rb)
	assertSameCorpus(t, "portfolio bug run", ra, rb)
}

// TestMutationalTraceReplays: a trace found through corpus splicing is
// an ordinary versioned trace — it must replay, single-threaded, to the
// identical violation.
func TestMutationalTraceReplays(t *testing.T) {
	res := MustExplore(stagedBugTest(), Options{
		Scheduler: "mutational", Iterations: 5000, Seed: 3, Workers: 4, NoReplayLog: true})
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	rep, err := Replay(stagedBugTest(), res.Report.Trace, Options{MaxSteps: 10000})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep == nil {
		t.Fatal("replay did not reproduce the violation")
	}
	if rep.Kind != res.Report.Kind {
		t.Fatalf("replay reproduced a different bug kind: %v vs %v", rep.Kind, res.Report.Kind)
	}
}

// negativeIntCorpus is a corpus DecodeCorpus accepts whose one entry answers
// the conformance workload's first NextInt with a value below its range.
const negativeIntCorpus = `{"version":1,"cap":4,"entries":[{"fp":1,"it":0,"d":[{"k":"s"},{"k":"b"},{"k":"i","v":-1,"n":1}]}]}`

// FuzzSpliceAnyCorpus holds the lenient splice to the same promise as the
// strict decoder in front of it: whatever bytes DecodeCorpus accepts, a
// mutational instance with that corpus attached goes through the conformance
// workload without a panic and with every answer in range — a recorded
// decision that does not fit the live choice is abandoned, never passed on.
func FuzzSpliceAnyCorpus(f *testing.F) {
	res, err := ExploreShard(fpDiverseTest(), Options{Scheduler: "mutational", Iterations: 300, Seed: 1, Workers: 1}, Shard{To: 300})
	if err != nil || len(res.Candidates) < 2 {
		f.Fatalf("seed run: %d corpus candidates, error %v", len(res.Candidates), err)
	}
	run := NewCorpus(0)
	for _, c := range res.Candidates {
		run.Add(c.Fingerprint, int(c.Position), c.Decisions)
	}
	enc, err := run.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(negativeIntCorpus))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCorpus(data)
		if err != nil {
			return
		}
		s := newScheduler(t, "mutational", 0)
		s.(FeedbackScheduler).AttachCorpus(c)
		for seed := int64(0); seed < 16; seed++ {
			s.Prepare(seed, 1000)
			if _, err := conformanceDrive("mutational", s); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

package core

import (
	"strings"
	"testing"
)

// portfolioMembers is the portfolio raced throughout these tests: the
// paper's two schedulers plus delay bounding, the combination the ISSUE
// and ROADMAP name as the canonical fleet.
var portfolioMembers = []string{"random", "pct", "delay"}

func assertSameWin(t *testing.T, a, b Result) {
	t.Helper()
	if !a.BugFound || !b.BugFound {
		t.Fatalf("bug not found: a=%v b=%v", a.BugFound, b.BugFound)
	}
	if a.Winner != b.Winner {
		t.Fatalf("winning member diverges: %d vs %d", a.Winner, b.Winner)
	}
	if a.Report.Iteration != b.Report.Iteration {
		t.Fatalf("winning iteration diverges: %d vs %d", a.Report.Iteration, b.Report.Iteration)
	}
	if a.Report.Trace.Scheduler != b.Report.Trace.Scheduler {
		t.Fatalf("winning scheduler diverges: %s vs %s", a.Report.Trace.Scheduler, b.Report.Trace.Scheduler)
	}
	if a.Report.Trace.Seed != b.Report.Trace.Seed {
		t.Fatalf("trace seeds diverge: %d vs %d", a.Report.Trace.Seed, b.Report.Trace.Seed)
	}
	if a.Executions != b.Executions || a.TotalSteps != b.TotalSteps || a.Choices != b.Choices {
		t.Fatalf("statistics diverge:\na: %+v\nb: %+v", a, b)
	}
	ad, bd := a.Report.Trace.Decisions, b.Report.Trace.Decisions
	if len(ad) != len(bd) {
		t.Fatalf("decision counts diverge: %d vs %d", len(ad), len(bd))
	}
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("decision %d diverges: %s vs %s", i, ad[i], bd[i])
		}
	}
	for m := range a.Portfolio {
		am, bm := a.Portfolio[m], b.Portfolio[m]
		if am.Scheduler != bm.Scheduler || am.Executions != bm.Executions ||
			am.TotalSteps != bm.TotalSteps || am.Winner != bm.Winner {
			t.Fatalf("member %d statistics diverge:\na: %+v\nb: %+v", m, am, bm)
		}
	}
}

// TestPortfolioDeterministicAcrossWorkers is the acceptance criterion of
// the portfolio engine: fixed seed + same portfolio spec must yield the
// identical winning (member, iteration, trace) and canonical statistics
// at Workers=1 and Workers=8.
func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		base := withMembers(Options{Iterations: 2000, Seed: seed, NoReplayLog: true}, portfolioMembers...)
		w1 := base
		w1.Workers = 1
		w8 := base
		w8.Workers = 8

		a := MustExplore(raceTest(), w1)
		b := MustExplore(raceTest(), w8)
		assertSameWin(t, a, b)
	}
}

// TestAdaptiveSchedulersWorkerCountIndependent pins the ROADMAP fix: with
// the shared program-length estimate, pct and delay discover their bug at
// a worker-count-independent iteration even in plain Run.
func TestAdaptiveSchedulersWorkerCountIndependent(t *testing.T) {
	for _, sched := range []string{"pct", "delay"} {
		t.Run(sched, func(t *testing.T) {
			base := Options{Scheduler: sched, Iterations: 2000, Seed: 42, NoReplayLog: true}
			w1 := base
			w1.Workers = 1
			w8 := base
			w8.Workers = 8

			a := MustExplore(raceTest(), w1)
			b := MustExplore(raceTest(), w8)
			if !a.BugFound || !b.BugFound {
				t.Fatalf("bug not found: w1=%v w8=%v", a.BugFound, b.BugFound)
			}
			if a.Report.Iteration != b.Report.Iteration {
				t.Fatalf("discovering iteration varies with worker count: %d vs %d",
					a.Report.Iteration, b.Report.Iteration)
			}
			if a.Executions != b.Executions || a.TotalSteps != b.TotalSteps || a.Choices != b.Choices {
				t.Fatalf("statistics diverge:\nw1: %+v\nw8: %+v", a, b)
			}
			ad, bd := a.Report.Trace.Decisions, b.Report.Trace.Decisions
			if len(ad) != len(bd) {
				t.Fatalf("decision counts diverge: %d vs %d", len(ad), len(bd))
			}
			for i := range ad {
				if ad[i] != bd[i] {
					t.Fatalf("decision %d diverges: %s vs %s", i, ad[i], bd[i])
				}
			}
		})
	}
}

// TestPortfolioWinnerAttribution: the winning member is reported
// coherently — index, stats flag, and the trace's scheduler name agree.
func TestPortfolioWinnerAttribution(t *testing.T) {
	res := MustExplore(raceTest(), withMembers(
		Options{Iterations: 2000, Seed: 7, Workers: 4, NoReplayLog: true}, portfolioMembers...))
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	if res.Winner < 0 || res.Winner >= len(res.Portfolio) {
		t.Fatalf("winner index %d out of range", res.Winner)
	}
	win := res.Portfolio[res.Winner]
	if !win.Winner {
		t.Fatalf("winning member stats not flagged: %+v", res.Portfolio)
	}
	if win.Scheduler != res.Report.Trace.Scheduler {
		t.Fatalf("winner attribution mismatch: member runs %q, trace records %q",
			win.Scheduler, res.Report.Trace.Scheduler)
	}
	for m, ms := range res.Portfolio {
		if m != res.Winner && ms.Winner {
			t.Fatalf("member %d also flagged as winner", m)
		}
	}
	if win.Executions == 0 {
		t.Fatal("winning member reports zero executions (the buggy one must count)")
	}
	if !strings.Contains(res.String(), win.Scheduler) {
		t.Fatalf("summary does not name the winning scheduler: %s", res.String())
	}
}

// TestPortfolioImmediateBugTieBreaksByMemberOrder: when every member finds
// a bug at iteration 0, the fixed member order decides the race, so the
// first member wins regardless of worker scheduling.
func TestPortfolioImmediateBugTieBreaksByMemberOrder(t *testing.T) {
	alwaysBug := Test{
		Name:  "always-bug",
		Entry: func(ctx *Context) { ctx.Assert(false, "seeded") },
	}
	for run := 0; run < 3; run++ {
		res := MustExplore(alwaysBug, withMembers(
			Options{Iterations: 100, Seed: int64(run), Workers: 8, NoReplayLog: true}, portfolioMembers...))
		if !res.BugFound {
			t.Fatal("bug not found")
		}
		if res.Winner != 0 {
			t.Fatalf("winner = member %d (%s), want member 0: ties at the same iteration break by member order",
				res.Winner, res.Portfolio[res.Winner].Scheduler)
		}
		if res.Report.Iteration != 0 {
			t.Fatalf("winning iteration = %d, want 0", res.Report.Iteration)
		}
	}
}

// TestPortfolioCleanRunCoversAllMembers: without a bug every member runs
// its full budget, and the aggregate statistics add up.
func TestPortfolioCleanRunCoversAllMembers(t *testing.T) {
	res := MustExplore(cleanChoiceTest(), withMembers(
		Options{Iterations: 200, Seed: 3, Workers: 4, NoReplayLog: true}, portfolioMembers...))
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if res.Winner != -1 {
		t.Fatalf("winner = %d, want -1 for a clean run", res.Winner)
	}
	if len(res.Portfolio) != len(portfolioMembers) {
		t.Fatalf("portfolio stats for %d members, want %d", len(res.Portfolio), len(portfolioMembers))
	}
	total := 0
	for m, ms := range res.Portfolio {
		if ms.Executions != 200 {
			t.Fatalf("member %d executions = %d, want 200", m, ms.Executions)
		}
		total += ms.Executions
	}
	if res.Executions != total {
		t.Fatalf("aggregate executions %d != member sum %d", res.Executions, total)
	}
}

// TestPortfolioTraceReplays: the winning trace replays single-threaded to
// the identical violation.
func TestPortfolioTraceReplays(t *testing.T) {
	opts := withMembers(Options{Iterations: 2000, Seed: 11, Workers: 8, NoReplayLog: true}, portfolioMembers...)
	res := MustExplore(raceTest(), opts)
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	rep, err := Replay(raceTest(), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if rep == nil || rep.Message != res.Report.Message {
		t.Fatalf("replay mismatch: %+v vs %+v", rep, res.Report)
	}
}

// TestPortfolioConfirmationReplayLog: without NoReplayLog the winning
// report carries the detailed confirmation-replay log.
func TestPortfolioConfirmationReplayLog(t *testing.T) {
	res := MustExplore(raceTest(), withMembers(
		Options{Iterations: 2000, Seed: 11, Workers: 4}, portfolioMembers...))
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	if len(res.Report.Log) == 0 {
		t.Fatal("confirmation replay attached no log")
	}
}

// TestPortfolioMemberSeedsAreIndependent: members derive disjoint seed
// streams, so duplicate members explore different schedules.
func TestPortfolioMemberSeedsAreIndependent(t *testing.T) {
	seen := map[int64]int{}
	for m := 0; m < 8; m++ {
		s := memberSeed(7, m)
		if prev, dup := seen[s]; dup {
			t.Fatalf("members %d and %d share base seed %d", prev, m, s)
		}
		seen[s] = m
	}
	if memberSeed(1, 0) == memberSeed(2, 0) {
		t.Fatal("member seed ignores the run seed")
	}
}

// TestPortfolioRejectsBadSpecs: an unknown member fails loudly — as a
// typed ConfigError naming the member — before any execution starts.
// (An empty member list is not an error at this layer: Options with no
// Portfolio is simply a single-scheduler run; the public WithPortfolio
// option rejects an empty list at the API boundary.)
func TestPortfolioRejectsBadSpecs(t *testing.T) {
	_, err := Explore(raceTest(), withMembers(Options{Iterations: 1}, "random", "quantum"))
	assertConfigError(t, err, "Options.Portfolio[1]", `unknown scheduler "quantum"`)
}

// TestPortfolioSingleMemberMatchesRun: a one-member portfolio degenerates
// to a plain run of that scheduler under the member's derived seed — the
// same discovering iteration and trace as Run with that seed.
func TestPortfolioSingleMemberMatchesRun(t *testing.T) {
	po := withMembers(Options{Iterations: 2000, Seed: 9, Workers: 4, NoReplayLog: true}, "random")
	a := MustExplore(raceTest(), po)
	direct := po
	direct.Portfolio = nil
	direct.Scheduler = "random"
	direct.Seed = memberSeed(po.Seed, 0)
	b := MustExplore(raceTest(), direct)
	if !a.BugFound || !b.BugFound {
		t.Fatalf("bug not found: portfolio=%v run=%v", a.BugFound, b.BugFound)
	}
	if a.Report.Iteration != b.Report.Iteration || a.Executions != b.Executions ||
		a.Choices != b.Choices || a.TotalSteps != b.TotalSteps {
		t.Fatalf("one-member portfolio diverges from Run:\nportfolio: %+v\nrun: %+v", a, b)
	}
}

package fabric

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

func TestCounterServiceSemantics(t *testing.T) {
	svc := NewCounterService()
	if got := svc.Apply(counterOp{Kind: "inc", Amount: 5}); got.(int64) != 5 {
		t.Fatalf("inc returned %v", got)
	}
	if got := svc.Apply(counterOp{Kind: "get"}); got.(int64) != 5 {
		t.Fatalf("get returned %v", got)
	}
	snap := svc.Snapshot()
	svc.Apply(counterOp{Kind: "inc", Amount: 3})
	other := NewCounterService()
	other.Restore(snap)
	if got := other.Apply(counterOp{Kind: "get"}); got.(int64) != 5 {
		t.Fatalf("restored counter = %v, want 5", got)
	}
	other.Restore(nil)
	if got := other.Apply(counterOp{Kind: "get"}); got.(int64) != 0 {
		t.Fatalf("reset counter = %v, want 0", got)
	}
}

func TestBaselineNoFailureIsClean(t *testing.T) {
	res := core.MustExplore(FailoverScenario(FailoverConfig{NoFailure: true}), core.Options{
		Scheduler:  "random",
		Iterations: 200,
		MaxSteps:   20000,
		Seed:       1,
	})
	if res.BugFound {
		t.Fatalf("baseline diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestFixedFailoverSurvivesExploration(t *testing.T) {
	res := core.MustExplore(FailoverScenario(FailoverConfig{FailPrimary: true}), core.Options{
		Scheduler:  "random",
		Iterations: 300,
		MaxSteps:   20000,
		Seed:       2,
	})
	if res.BugFound {
		t.Fatalf("fixed failover diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestFixedFailoverAnyReplicaSurvives(t *testing.T) {
	res := core.MustExplore(FailoverScenario(FailoverConfig{}), core.Options{
		Scheduler:  "pct",
		Iterations: 300,
		MaxSteps:   20000,
		Seed:       3,
	})
	if res.BugFound {
		t.Fatalf("fixed failover diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestPromotionBugFound(t *testing.T) {
	cfg := FailoverConfig{
		Fabric:      Config{BugUncheckedPromotion: true},
		FailPrimary: true,
	}
	res := core.MustExplore(FailoverScenario(cfg), core.Options{
		Scheduler:  "random",
		Iterations: 5000,
		MaxSteps:   20000,
		Seed:       1,
	})
	if !res.BugFound {
		t.Fatal("promotion bug not found by the random scheduler")
	}
	if res.Report.Kind != core.SafetyBug {
		t.Fatalf("kind = %v, want safety: %s", res.Report.Kind, res.Report.Message)
	}
	if !strings.Contains(res.Report.Message, "only a secondary can be promoted") {
		t.Fatalf("unexpected assertion: %s", res.Report.Message)
	}
}

func TestPromotionBugFoundByPCT(t *testing.T) {
	cfg := FailoverConfig{
		Fabric:      Config{BugUncheckedPromotion: true},
		FailPrimary: true,
	}
	res := core.MustExplore(FailoverScenario(cfg), core.Options{
		Scheduler:  "pct",
		Iterations: 5000,
		MaxSteps:   20000,
		Seed:       1,
		// pct adapts per worker; pin 1 so the budget stays calibrated.
		Workers: 1,
	})
	if !res.BugFound || !strings.Contains(res.Report.Message, "only a secondary") {
		t.Fatalf("pct did not find the promotion bug: %+v", res)
	}
}

func TestPromotionBugReplays(t *testing.T) {
	cfg := FailoverConfig{Fabric: Config{BugUncheckedPromotion: true}, FailPrimary: true}
	opts := core.Options{Scheduler: "random", Iterations: 5000, MaxSteps: 20000, Seed: 1, NoReplayLog: true}
	res := core.MustExplore(FailoverScenario(cfg), opts)
	if !res.BugFound {
		t.Fatal("setup: bug not found")
	}
	rep, err := core.Replay(FailoverScenario(cfg), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if rep == nil || rep.Message != res.Report.Message {
		t.Fatal("replay mismatch")
	}
	joined := strings.Join(rep.Log, "\n")
	if !strings.Contains(joined, "CaughtUp") {
		t.Fatal("replay log lacks the catch-up traffic that explains the bug")
	}
}

func TestPipelineFixedIsClean(t *testing.T) {
	res := core.MustExplore(PipelineScenario(PipelineConfig{}), core.Options{
		Scheduler:  "random",
		Iterations: 300,
		MaxSteps:   5000,
		Seed:       4,
	})
	if res.BugFound {
		t.Fatalf("fixed pipeline diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestPipelineNilStateBugFound(t *testing.T) {
	res := core.MustExplore(PipelineScenario(PipelineConfig{BugNilState: true}), core.Options{
		Scheduler:  "random",
		Iterations: 2000,
		MaxSteps:   5000,
		Seed:       1,
	})
	if !res.BugFound {
		t.Fatal("nil-state crash not found")
	}
	if !strings.Contains(res.Report.Message, "panic") {
		t.Fatalf("expected a panic-classified safety bug, got: %s", res.Report.Message)
	}
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleIdle.String() != "idle-secondary" || RoleActive.String() != "active-secondary" {
		t.Fatal("role strings wrong")
	}
	if Role(99).String() == "" {
		t.Fatal("unknown role should render")
	}
}

// The failover manager tells the primary its active secondaries in
// ascending order, never in map order, so the update it sends is the same
// on every run of a schedule. Only RoleActive replicas are listed.
func TestActivesAreAscending(t *testing.T) {
	fm := newFMMachine(Config{}, NewCounterService)
	var want []core.MachineID
	for id := core.MachineID(60); id >= 1; id-- {
		switch id % 3 {
		case 0:
			fm.roles[id] = RoleActive
			want = append([]core.MachineID{id}, want...)
		case 1:
			fm.roles[id] = RoleIdle
		default:
			fm.roles[id] = RolePrimary
		}
	}
	for i := 0; i < 5; i++ {
		if got := fm.actives(); !reflect.DeepEqual(got, want) {
			t.Fatalf("actives = %v, want %v", got, want)
		}
	}
}

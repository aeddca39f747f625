package core

import (
	"strings"
	"testing"
)

func TestBugKindStrings(t *testing.T) {
	if SafetyBug.String() != "safety" || LivenessBug.String() != "liveness" || DeadlockBug.String() != "deadlock" {
		t.Fatal("bug kind strings wrong")
	}
	if !strings.Contains(BugKind(42).String(), "42") {
		t.Fatal("unknown kind should render its value")
	}
}

func TestBugReportError(t *testing.T) {
	rep := &BugReport{Kind: SafetyBug, Message: "boom", Machine: "m(1)", Step: 7}
	got := rep.Error()
	for _, want := range []string{"safety", "boom", "m(1)", "7"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report %q lacks %q", got, want)
		}
	}
	// Without a machine the "in" clause disappears.
	rep = &BugReport{Kind: LivenessBug, Message: "hot", Step: 3}
	if strings.Contains(rep.Error(), " in ") {
		t.Fatalf("report %q should not name a machine", rep.Error())
	}
}

func TestFormatLog(t *testing.T) {
	rep := &BugReport{}
	if !strings.Contains(rep.FormatLog(), "no execution log") {
		t.Fatal("empty log placeholder missing")
	}
	rep.Log = []string{"a", "b"}
	if rep.FormatLog() != "a\nb\n" {
		t.Fatalf("log format: %q", rep.FormatLog())
	}
}

func TestDecisionStrings(t *testing.T) {
	cases := map[string]Decision{
		"sched(3)":   {Kind: DecisionSchedule, Machine: 3},
		"bool(true)": {Kind: DecisionBool, Bool: true},
		"int(2/5)":   {Kind: DecisionInt, Int: 2, N: 5},
	}
	for want, d := range cases {
		if d.String() != want {
			t.Fatalf("decision renders %q, want %q", d.String(), want)
		}
	}
}

func TestResultString(t *testing.T) {
	res, _ := exploreDFS(boolComboTest(), Options{Iterations: 100})
	if !strings.Contains(res.String(), "bug found") {
		t.Fatalf("result string: %q", res.String())
	}
	clean := MustExplore(pingPongTest(3, false), Options{Iterations: 3, Seed: 1})
	if !strings.Contains(clean.String(), "no bug in 3 execution(s)") {
		t.Fatalf("clean result string: %q", clean.String())
	}
}

func TestMachineIDString(t *testing.T) {
	if MachineID(4).String() != "#4" {
		t.Fatalf("machine id renders %q", MachineID(4).String())
	}
}

func TestSignalEvent(t *testing.T) {
	if Signal("tick").Name() != "tick" {
		t.Fatal("Signal name wrong")
	}
}

func TestMonitorContextLogf(t *testing.T) {
	// Logf must be a no-op without collection and must not panic either way.
	mc := &MonitorContext{r: &Runtime{}, mon: &MonitorSM{SM: NewStateMachine[*MonitorContext]("m", "S", &State[*MonitorContext]{Name: "S"})}}
	mc.Logf("hello %d", 1)
}

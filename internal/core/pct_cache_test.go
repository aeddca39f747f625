package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// The pct scheduler reuses its pick while the runtime's enabled set is
// unchanged. These tests hold it to the full scan it skips, through the
// engine, on every catalog entry: "pct-watched" is pct as the runtime sees it,
// "pct-scan" hides the watch so every pick is a scan, and both record each
// execution's answers.

// answerLog holds, per execution seed, a hash and a count of the answers a
// recorder gave during that execution.
type answerLog struct {
	mu    sync.Mutex
	execs map[int64]*answers
}

type answers struct {
	hash uint64
	n    int
}

func (a *answers) add(v int) {
	a.hash = (a.hash ^ uint64(v)) * 0x100000001b3
	a.n++
}

// start opens the record of the execution seeded with seed; a re-run of a
// position overwrites it.
func (l *answerLog) start(seed int64) *answers {
	a := &answers{hash: 0xcbf29ce484222325}
	l.mu.Lock()
	l.execs[seed] = a
	l.mu.Unlock()
	return a
}

// recorder answers as the pct instance it wraps and logs every answer. It
// hides the instance's watch; watchedRecorder passes it on.
type recorder struct {
	core.FaultScheduler
	core.LengthHinted
	log *answerLog
	cur *answers
}

func (r *recorder) Prepare(seed int64, maxSteps int) bool {
	r.cur = r.log.start(seed)
	return r.FaultScheduler.Prepare(seed, maxSteps)
}

func (r *recorder) NextMachine(enabled []core.MachineID, current core.MachineID) core.MachineID {
	m := r.FaultScheduler.NextMachine(enabled, current)
	r.cur.add(int(m))
	return m
}

func (r *recorder) NextBool() bool {
	b := r.FaultScheduler.NextBool()
	v := -2
	if b {
		v = -3
	}
	r.cur.add(v)
	return b
}

func (r *recorder) NextInt(n int) int {
	v := r.FaultScheduler.NextInt(n)
	r.cur.add(v)
	return v
}

func (r *recorder) NextFault(c core.FaultChoice) int {
	v := r.FaultScheduler.NextFault(c)
	r.cur.add(v)
	return v
}

type watchedRecorder struct {
	*recorder
	core.EnabledWatcher
}

var (
	registerRecorders sync.Once
	recorderLogs      = map[string]*answerLog{"pct-watched": {}, "pct-scan": {}}
)

// recordingPlan registers the two recorders once and empties their logs.
func recordingPlan(t *testing.T) {
	t.Helper()
	registerRecorders.Do(func() {
		for name, log := range recorderLogs {
			err := core.RegisterScheduler(name, core.SchedulerSpec{Adaptive: true, New: func(depth int) core.Scheduler {
				pct := core.NewPCTScheduler(depth)
				r := &recorder{FaultScheduler: pct, LengthHinted: pct.(core.LengthHinted), log: log}
				if name == "pct-watched" {
					return watchedRecorder{r, pct.(core.EnabledWatcher)}
				}
				return r
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, log := range recorderLogs {
		log.execs = map[int64]*answers{}
	}
}

// explore runs o and returns its result with the recorded executions.
func explore(t *testing.T, test core.Test, o core.Options) (core.Result, map[int64]*answers) {
	t.Helper()
	recordingPlan(t)
	res, err := core.Explore(test, o)
	if err != nil {
		t.Fatal(err)
	}
	name := o.Scheduler
	if len(o.Portfolio) > 0 {
		name = o.Portfolio[0]
	}
	return res, recorderLogs[name].execs
}

// sameResult compares what two runs of one plan report, member names aside.
func sameResult(a, b core.Result) error {
	if a.BugFound != b.BugFound || a.Executions != b.Executions || a.TotalSteps != b.TotalSteps ||
		a.Choices != b.Choices || a.Winner != b.Winner || len(a.Portfolio) != len(b.Portfolio) {
		return fmt.Errorf("results differ: %v, %d steps vs %v, %d steps", a, a.TotalSteps, b, b.TotalSteps)
	}
	for m := range a.Portfolio {
		pa, pb := a.Portfolio[m], b.Portfolio[m]
		if pa.Executions != pb.Executions || pa.TotalSteps != pb.TotalSteps || pa.Winner != pb.Winner {
			return fmt.Errorf("member %d differs: %+v vs %+v", m, pa, pb)
		}
	}
	// A panic's message carries its stack, so the report is compared by what
	// it points at.
	if ra, rb := a.Report, b.Report; a.BugFound && (ra.Kind != rb.Kind || ra.Machine != rb.Machine ||
		ra.Step != rb.Step || !slices.Equal(ra.Trace.Decisions, rb.Trace.Decisions)) {
		return fmt.Errorf("bug reports differ: %v vs %v", ra, rb)
	}
	return nil
}

// covers reports the first execution of want that got is missing or
// answered differently in.
func covers(got, want map[int64]*answers) error {
	for seed, w := range want {
		g, ok := got[seed]
		switch {
		case !ok:
			return fmt.Errorf("execution seeded %d did not run", seed)
		case *g != *w:
			return fmt.Errorf("execution seeded %d: %d answers (hash %x) vs %d (hash %x)", seed, g.n, g.hash, w.n, w.hash)
		}
	}
	return nil
}

// TestPCTCachedPickMatchesScan explores every catalog entry at a small budget
// with pct watched and with pct scanning, and compares every execution's
// answers: as the only scheduler on one worker, then as the first member of
// a pct,random portfolio on two workers, where each worker's runtime
// alternates between a watched and an unwatched scheduler. Two workers may
// cut executions above the winning one short, so there the watched run must
// reproduce every execution of a one-worker scanning run, which runs none
// above it.
func TestPCTCachedPickMatchesScan(t *testing.T) {
	for _, e := range catalog.All() {
		t.Run(e.Name, func(t *testing.T) {
			o := e.Options
			o.Iterations, o.Seed, o.NoReplayLog = 20, 3, true
			o.Workers, o.Portfolio = 1, nil
			o.Scheduler = "pct-scan"
			scanRes, scan := explore(t, e.Build(), o)
			o.Scheduler = "pct-watched"
			watchRes, watch := explore(t, e.Build(), o)
			if err := sameResult(watchRes, scanRes); err != nil {
				t.Fatalf("pct alone: %v", err)
			}
			if len(watch) != len(scan) {
				t.Fatalf("pct alone: %d executions recorded watched, %d scanning", len(watch), len(scan))
			}
			if err := covers(watch, scan); err != nil {
				t.Fatalf("pct alone: %v", err)
			}

			o.Scheduler = ""
			o.Portfolio = []string{"pct-scan", "random"}
			scanRes, scan = explore(t, e.Build(), o)
			o.Portfolio = []string{"pct-watched", "random"}
			o.Workers = 2
			watchRes, watch = explore(t, e.Build(), o)
			if err := sameResult(watchRes, scanRes); err != nil {
				t.Fatalf("pct,random portfolio: %v", err)
			}
			if err := covers(watch, scan); err != nil {
				t.Fatalf("pct,random portfolio: %v", err)
			}
		})
	}

	// An instance a runtime watched, then prepared and driven directly, must
	// scan again: its Prepare drops the watch.
	s, ref := core.NewPCTScheduler(3), core.NewPCTScheduler(3)
	for _, p := range []core.FaultScheduler{s, ref} {
		p.(core.LengthHinted).SetLengthHint(40)
	}
	e, err := catalog.Get("replsys-safety")
	if err != nil {
		t.Fatal(err)
	}
	s.Prepare(1, 1000)
	core.ExecuteOnce(s, e.Build(), 1000)
	s.Prepare(2, 1000)
	ref.Prepare(2, 1000)
	sets := [][]core.MachineID{{0, 1, 2}, {1, 3}, {0, 2, 4, 5}, {5}, {2, 3, 4}, {0, 5}}
	for step := 0; step < 64; step++ {
		enabled := sets[step%len(sets)]
		if got, want := s.NextMachine(enabled, core.NoMachine), ref.NextMachine(enabled, core.NoMachine); got != want {
			t.Fatalf("step %d: NextMachine(%v) = %d after a watched execution, the scan picks %d", step, enabled, got, want)
		}
	}
}

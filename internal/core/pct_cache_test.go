package core_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// The pct scheduler reuses its pick while the runtime's enabled set is
// unchanged, and the runtime ends an execution that outlives eight length
// estimates in a fair tail. These tests hold both to what they skip, through
// the engine, on every catalog entry, with recording schedulers: each wraps
// a fresh pct or delay instance and records each execution's answers until
// the tail, whose answers the runtime gives. "pct-watched" is pct as the
// runtime sees it, "pct-scan" hides the watch so every pick is a scan, and
// "delay-recorded" is delay as it is.

// answerLog holds, per execution seed, a hash and a count of the answers a
// recorder gave during that execution.
type answerLog struct {
	mu    sync.Mutex
	execs map[int64]*answers
}

type answers struct {
	hash uint64
	n    int
	// steps counts the scheduling and fault answers, the choices the
	// runtime counts toward the tail, and picked is steps at the last
	// scheduling answer; prefix is the hash of the first cut answers, if
	// there were that many.
	steps, picked int
	cut           int
	prefix        uint64
}

func (a *answers) add(v int) {
	a.hash = (a.hash ^ uint64(v)) * 0x100000001b3
	a.n++
	if a.n == a.cut {
		a.prefix = a.hash
	}
}

// step adds a scheduling or fault answer.
func (a *answers) step(v int) {
	a.add(v)
	a.steps++
}

// fairTailFactor is how many length estimates an execution runs before its
// fair tail. It is stated here rather than read from core, so a tail that
// starts sooner fails TestFairTailKeepsNaturalExecutions.
const fairTailFactor = 8

// tailCut is the step count past which an execution under a length hint of
// hint is in its fair tail; every step answers once, so its first tailCut
// answers precede the tail. An instance with no hint has no tail.
func tailCut(hint int) int {
	if hint == 0 {
		return math.MaxInt
	}
	return fairTailFactor * hint
}

// start opens the record of the execution seeded with seed, whose prefix is
// cut answers long; a re-run of a position overwrites it.
func (l *answerLog) start(seed int64, cut int) *answers {
	a := &answers{hash: 0xcbf29ce484222325, cut: cut}
	l.mu.Lock()
	l.execs[seed] = a
	l.mu.Unlock()
	return a
}

// recorder answers as the instance it wraps and logs every answer. It hides
// the instance's watch; watchedRecorder passes it on.
type recorder struct {
	core.FaultScheduler
	core.LengthHinted
	log  *answerLog
	cur  *answers
	hint int
}

func (r *recorder) SetLengthHint(steps int) {
	r.hint = steps
	r.LengthHinted.SetLengthHint(steps)
}

func (r *recorder) Prepare(seed int64, maxSteps int) bool {
	r.cur = r.log.start(seed, tailCut(r.hint))
	return r.FaultScheduler.Prepare(seed, maxSteps)
}

func (r *recorder) NextMachine(enabled []core.MachineID, current core.MachineID) core.MachineID {
	m := r.FaultScheduler.NextMachine(enabled, current)
	r.cur.step(int(m))
	r.cur.picked = r.cur.steps
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
	r.cur.step(v)
	return v
}

type watchedRecorder struct {
	*recorder
	core.EnabledWatcher
}

// recording is how a recorder is built: the instance it wraps and whether
// the runtime may watch it.
type recording struct {
	base    func(depth int) core.FaultScheduler
	watched bool
}

var (
	registerRecorders sync.Once
	recordings        = map[string]recording{
		"pct-watched":    {base: core.NewPCTScheduler, watched: true},
		"pct-scan":       {base: core.NewPCTScheduler},
		"delay-recorded": {base: core.NewDelayScheduler},
	}
	recorderLogs = map[string]*answerLog{}
)

// recordingPlan registers the recorders once, Adaptive so the engine
// calibrates each like the instance it wraps, and empties their logs.
func recordingPlan(t *testing.T) {
	t.Helper()
	registerRecorders.Do(func() {
		for name, how := range recordings {
			log := &answerLog{}
			recorderLogs[name] = log
			err := core.RegisterScheduler(name, core.SchedulerSpec{Adaptive: true, New: func(depth int) core.Scheduler {
				s := how.base(depth)
				r := &recorder{FaultScheduler: s, LengthHinted: s.(core.LengthHinted), log: log}
				if how.watched {
					return watchedRecorder{r, s.(core.EnabledWatcher)}
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

// TestFairTailKeepsNaturalExecutions explores every catalog entry with pct
// and delay, with the runtime's fair tail past eight length estimates and
// without it, calibrated alike, and compares every execution both ran: one
// that ends within eight length estimates without the tail must answer
// exactly as it does with it, and a longer one must give the same first
// eight estimates' worth of answers and then no pick: the runtime answers
// the rest. Some execution of the clean mtable entry under pct must run past
// them, or the comparison holds nothing.
func TestFairTailKeepsNaturalExecutions(t *testing.T) {
	for _, e := range catalog.All() {
		t.Run(e.Name, func(t *testing.T) {
			crossed := 0
			for _, sched := range []string{"pct-watched", "delay-recorded"} {
				o := e.Options
				o.Iterations, o.Seed, o.NoReplayLog = 60, 1, true
				o.Workers, o.Portfolio = 1, nil
				o.Scheduler = sched
				recordingPlan(t)
				if err := core.ExploreWithoutFairTail(e.Build(), o); err != nil {
					t.Fatal(err)
				}
				ref := recorderLogs[sched].execs
				_, got := explore(t, e.Build(), o)
				for seed, r := range ref {
					g, ok := got[seed]
					switch {
					case !ok:
						// A bug ended the tailed run first.
					case r.steps <= r.cut:
						if *g != *r {
							t.Errorf("%s: execution seeded %d ended after %d steps, within the %d before its tail, yet answered %d (hash %x) with the tail and %d (hash %x) without",
								sched, seed, r.steps, r.cut, g.n, g.hash, r.n, r.hash)
						}
					case g.cut != r.cut || g.prefix != r.prefix:
						t.Errorf("%s: execution seeded %d ran %d steps: its first %d answers differ with the tail", sched, seed, r.steps, r.cut)
					case g.picked > g.cut || g.steps < g.cut:
						// The fault choices of the step that reaches the cut
						// still reach the recorder; the next pick is the tail's.
						t.Errorf("%s: execution seeded %d ran %d steps without the tail, yet with it the recorder gave %d answers, the last pick at %d, across the %d before the tail",
							sched, seed, r.steps, g.steps, g.picked, g.cut)
					case sched == "pct-watched":
						crossed++
					}
				}
			}
			if e.Name == "mtable" && crossed == 0 {
				t.Error("no execution under pct outlived eight length estimates and ended in a fair tail")
			}
		})
	}
}

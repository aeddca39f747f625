package core_test

import (
	"math"
	"sync"
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// The runtime ends an execution that outlives eight length estimates in a
// fair tail, and pct and delay answer from the execution's seed and the
// pinned length estimate alone. TestFairTailKeepsNaturalExecutions and
// TestReusedInstanceAnswersAsFresh hold both, through the engine, on every
// catalog entry, with recording schedulers: "pct-recorded" and
// "delay-recorded" each wrap one pct or delay instance, which the engine
// reuses across executions, "pct-fresh" and "delay-fresh" build a new
// instance for every execution, and each records each execution's answers
// until the tail, whose answers the runtime gives.

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

// recorder answers as the instance it wraps and logs every answer. With
// renew set, every Prepare first replaces the instance by a new one told the
// same length hint.
type recorder struct {
	core.Scheduler
	core.LengthHinted
	log   *answerLog
	cur   *answers
	hint  int
	renew func() core.Scheduler
}

func (r *recorder) SetLengthHint(steps int) {
	r.hint = steps
	r.LengthHinted.SetLengthHint(steps)
}

func (r *recorder) Prepare(seed int64, maxSteps int) {
	r.cur = r.log.start(seed, tailCut(r.hint))
	if r.renew != nil {
		s := r.renew()
		r.Scheduler, r.LengthHinted = s, s.(core.LengthHinted)
		r.LengthHinted.SetLengthHint(r.hint)
	}
	r.Scheduler.Prepare(seed, maxSteps)
}

func (r *recorder) NextMachine(enabled []core.MachineID) core.MachineID {
	m := r.Scheduler.NextMachine(enabled)
	r.cur.step(int(m))
	r.cur.picked = r.cur.steps
	return m
}

func (r *recorder) NextBool() bool {
	b := r.Scheduler.NextBool()
	v := -2
	if b {
		v = -3
	}
	r.cur.add(v)
	return b
}

func (r *recorder) NextInt(n int) int {
	v := r.Scheduler.NextInt(n)
	r.cur.add(v)
	return v
}

func (r *recorder) NextFault(c core.FaultChoice) int {
	v := r.Scheduler.NextFault(c)
	r.cur.step(v)
	return v
}

type recording struct {
	base  func(depth int) core.Scheduler
	fresh bool
}

var (
	registerRecorders sync.Once
	// recordings maps each recorder to the instance it wraps and whether it
	// builds a new one for every execution.
	recordings = map[string]recording{
		"pct-recorded":   {base: core.NewPCTScheduler},
		"delay-recorded": {base: core.NewDelayScheduler},
		"pct-fresh":      {base: core.NewPCTScheduler, fresh: true},
		"delay-fresh":    {base: core.NewDelayScheduler, fresh: true},
	}
	recorderLogs = map[string]*answerLog{}
)

// recordingPlan registers the recorders once, at the depth the registered
// pct and delay run at, and empties their logs. A recorder embeds the
// LengthHinted of the instance it wraps, so the engine calibrates it like
// that instance.
func recordingPlan(t *testing.T) {
	t.Helper()
	registerRecorders.Do(func() {
		for name, rec := range recordings {
			log := &answerLog{}
			recorderLogs[name] = log
			err := core.RegisterScheduler(name, func() core.Scheduler {
				s := rec.base(core.ProbeDepth)
				r := &recorder{Scheduler: s, LengthHinted: s.(core.LengthHinted), log: log}
				if rec.fresh {
					r.renew = func() core.Scheduler { return rec.base(core.ProbeDepth) }
				}
				return r
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, log := range recorderLogs {
		log.execs = map[int64]*answers{}
	}
}

// explore runs o, whose scheduler is a recorder, and returns the recorded
// executions.
func explore(t *testing.T, test core.Test, o core.Options) map[int64]*answers {
	t.Helper()
	recordingPlan(t)
	if _, err := core.Explore(test, o); err != nil {
		t.Fatal(err)
	}
	return recorderLogs[o.Scheduler].execs
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
			for _, sched := range []string{"pct-recorded", "delay-recorded"} {
				o := e.Options
				o.Iterations, o.Seed, o.NoReplayLog = 60, 1, true
				o.Workers, o.Portfolio = 1, nil
				o.Scheduler = sched
				recordingPlan(t)
				core.ExploreWithoutFairTail(t, e.Build(), o)
				ref := recorderLogs[sched].execs
				got := explore(t, e.Build(), o)
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
					case sched == "pct-recorded":
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

// TestReusedInstanceAnswersAsFresh explores every catalog entry with pct and
// delay twice, calibrated alike: once with the instance the engine reuses
// across executions and once with a new instance for every execution. Every
// execution must answer alike in both runs, so an instance carries nothing
// from one execution into the next.
func TestReusedInstanceAnswersAsFresh(t *testing.T) {
	for _, e := range catalog.All() {
		t.Run(e.Name, func(t *testing.T) {
			for _, sched := range []string{"pct", "delay"} {
				o := e.Options
				o.Iterations, o.Seed, o.NoReplayLog = 60, 1, true
				o.Workers, o.Portfolio = 1, nil
				o.Scheduler = sched + "-fresh"
				want := explore(t, e.Build(), o)
				o.Scheduler = sched + "-recorded"
				got := explore(t, e.Build(), o)
				if len(got) != len(want) {
					t.Errorf("%s: the reused instance ran %d executions, new instances %d", sched, len(got), len(want))
				}
				for seed, w := range want {
					if g, ok := got[seed]; !ok || *g != *w {
						t.Errorf("%s: execution seeded %d answered differently on the reused instance than on a new one", sched, seed)
					}
				}
			}
		})
	}
}

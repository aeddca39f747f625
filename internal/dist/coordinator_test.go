package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// fleetModel is what the coordinator must be saying after any sequence of
// transitions, kept position by position: which positions a report has
// resolved, which an unexpired lease covers, the lowest bug reported, and
// the statistics of every report that resolved something new.
type fleetModel struct {
	total      int64
	ttl        time.Duration
	buggy      []bool // by position: an execution there violates
	resolved   []bool
	live       []lease // granted, not reported, not seen expired by a lease transition
	limit      int64   // lowest reported bug, total while there is none
	executions int64
	steps      int64
}

// stepsAt is the length of the execution at position p, a pure function of
// the position like everything else about it.
func stepsAt(p int64) int64 { return 3 + p%7 }

func (m *fleetModel) frontier() int64 {
	var p int64
	for p < m.total && m.resolved[p] {
		p++
	}
	return p
}

// done is the verdict rule: a bug wins once every position up to it has
// resolved, a clean plan ends when all of it has.
func (m *fleetModel) done() bool {
	if m.limit < m.total {
		return m.frontier() > m.limit
	}
	return m.frontier() == m.total
}

// honest builds the report an agent holding [from, to) sends after running
// it up to cut: positions run in order, the first buggy one ends the shard
// and is reported, and the statistics are those of the positions run.
func (m *fleetModel) honest(agent string, l lease, cut int64) ReportRequest {
	req := ReportRequest{Agent: agent, Lease: l.id, From: l.span.from, To: l.span.to, ResolvedTo: cut}
	for p := l.span.from; p < req.ResolvedTo; p++ {
		req.Executions++
		req.TotalSteps += stepsAt(p)
		if m.buggy[p] {
			req.ResolvedTo = p + 1
			req.Bug = &WireBug{Pos: p, Member: int(p % 2), Iteration: int(p / 2), Message: "scripted", Trace: []byte(`{}`)}
		}
	}
	return req
}

// TestCoordinatorMatchesModel drives the coordinator's transitions — no
// listener, no sleeping: the clock is an argument — through seeded scripts
// of leases, full, partial, duplicate and late reports, expiry and bugs at
// scripted positions, and after every step holds its status to a
// position-by-position model. Three properties are the point: the declared
// winner is the lowest buggy position and Done closes exactly when every
// position below it is resolved; Executions is the sum over the reports
// that resolved something new, and on a clean script ends at the plan size;
// no lease is longer than LeaseSize, reaches the limit, or overlaps what is
// resolved or leased.
func TestCoordinatorMatchesModel(t *testing.T) {
	const total, size = 1 << 10, 16
	walked := make(map[string]int) // kinds of step taken, over all scripts
	defer func() {
		for _, kind := range []string{"re-issued lease", "full report", "partial report", "duplicate report", "late report", "bug report"} {
			if !t.Failed() && walked[kind] < 20 {
				t.Errorf("only %d step(s) were a %s; the walk is not exercising the coordinator", walked[kind], kind)
			}
		}
	}()
	for seed := int64(1); seed <= 12; seed++ {
		clean := seed%3 == 0
		t.Run(fmt.Sprintf("seed%d-clean=%v", seed, clean), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := &fleetModel{total: total, ttl: time.Second, limit: total,
				buggy: make([]bool, total), resolved: make([]bool, total)}
			lowest := int64(total)
			if !clean {
				for i := 0; i < 3; i++ {
					p := total/4 + rng.Int63n(total/2)
					m.buggy[p] = true
					lowest = min(lowest, p)
				}
			}
			co, err := New(Config{
				Scenario:  "model",
				Options:   core.Options{Portfolio: []string{"pct", "random"}, Iterations: total / 2},
				LeaseSize: size,
				LeaseTTL:  m.ttl,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			now := time.Unix(1_000_000, 0)
			var granted []lease // every lease ever granted: late reports draw from it
			sent := make(map[int64]ReportRequest)
			step := 0

			check := func(what string) {
				t.Helper()
				st, _ := co.status(now, struct{}{})
				var resolved int64
				for _, r := range m.resolved {
					if r {
						resolved++
					}
				}
				if st.Resolved != resolved || st.Frontier != m.frontier() {
					t.Fatalf("step %d, %s: resolved %d with frontier %d, model %d with frontier %d",
						step, what, st.Resolved, st.Frontier, resolved, m.frontier())
				}
				if st.Stop != m.limit || st.BugFound != (m.limit < total) || st.BugFound && st.BugPos != m.limit {
					t.Fatalf("step %d, %s: stop %d, bug %v at %d; the lowest bug reported is at %d of %d",
						step, what, st.Stop, st.BugFound, st.BugPos, m.limit, total)
				}
				if st.Executions != m.executions || st.TotalSteps != m.steps {
					t.Fatalf("step %d, %s: %d executions of %d steps, the reports that resolved something new sum to %d of %d",
						step, what, st.Executions, st.TotalSteps, m.executions, m.steps)
				}
				if st.Leases != len(m.live) {
					t.Fatalf("step %d, %s: %d leases outstanding, model %d", step, what, st.Leases, len(m.live))
				}
				if st.Done != m.done() {
					t.Fatalf("step %d, %s: done %v with the frontier at %d and the lowest bug reported at %d of %d",
						step, what, st.Done, m.frontier(), m.limit, total)
				}
				select {
				case <-co.Done():
					if !st.Done {
						t.Fatalf("step %d, %s: Done() closed, status says running", step, what)
					}
				default:
					if st.Done {
						t.Fatalf("step %d, %s: status says done, Done() is open", step, what)
					}
				}
			}

			askLease := func() {
				wasDone := m.done()
				lr, err := co.lease(now, LeaseRequest{Agent: "a"})
				if err != nil {
					t.Fatalf("step %d: lease: %v", step, err)
				}
				if lr.Done != wasDone {
					t.Fatalf("step %d: lease answered done %v, model %v", step, lr.Done, wasDone)
				}
				if wasDone {
					return
				}
				m.live = slices.DeleteFunc(m.live, func(l lease) bool { return now.After(l.expires) })
				want := lowestPendingRun(m.limit, size, func(p int64) bool {
					return m.resolved[p] || slices.ContainsFunc(m.live, func(l lease) bool {
						return l.span.from <= p && p < l.span.to
					})
				})
				if lr.None != (want.from >= m.limit) {
					t.Fatalf("step %d: lease answered none %v; the lowest pending position is %d, the limit %d", step, lr.None, want.from, m.limit)
				}
				if lr.None {
					return
				}
				if lr.To-lr.From > size || lr.To > m.limit || lr.Stop != m.limit {
					t.Fatalf("step %d: lease [%d, %d) with stop %d outgrows the lease size %d or the limit %d", step, lr.From, lr.To, lr.Stop, size, m.limit)
				}
				if got := (span{lr.From, lr.To}); got != want {
					t.Fatalf("step %d: lease %+v, the lowest pending run is %+v", step, got, want)
				}
				if slices.ContainsFunc(granted, func(l lease) bool { return l.span.from == want.from }) {
					walked["re-issued lease"]++
				}
				l := lease{id: lr.Lease, span: want, expires: now.Add(m.ttl)}
				m.live = append(m.live, l)
				granted = append(granted, l)
			}

			sendReport := func(req ReportRequest) {
				ack, err := co.report(now, req)
				if err != nil {
					t.Fatalf("step %d: report %+v: %v", step, req, err)
				}
				sent[req.Lease] = req
				m.live = slices.DeleteFunc(m.live, func(l lease) bool { return l.id == req.Lease })
				fresh := false
				for p := req.From; p < req.ResolvedTo; p++ {
					fresh = fresh || !m.resolved[p]
					m.resolved[p] = true
				}
				if fresh {
					m.executions += int64(req.Executions)
					m.steps += req.TotalSteps
				}
				if req.Bug != nil {
					m.limit = min(m.limit, req.Bug.Pos)
				}
				if ack.Stop != m.limit || ack.Done != m.done() {
					t.Fatalf("step %d: report acknowledged with stop %d, done %v; model %d, %v", step, ack.Stop, ack.Done, m.limit, m.done())
				}
			}

			for ; step < 3000 && !m.done(); step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					askLease()
					check("lease")
				case op < 8 && len(granted) > 0:
					// Of a live, an expired or an already reported lease: the
					// last is a duplicate and says what it said before.
					l := granted[rng.Intn(len(granted))]
					req, dup := sent[l.id]
					switch {
					case dup:
						walked["duplicate report"]++
					case !clean && rng.Intn(3) == 0:
						walked["partial report"]++
						req = m.honest("a", l, l.span.from+rng.Int63n(l.span.to-l.span.from+1))
					default:
						walked["full report"]++
						req = m.honest("a", l, l.span.to)
					}
					if !dup && !slices.ContainsFunc(m.live, func(o lease) bool { return o.id == l.id }) {
						walked["late report"]++
					}
					if req.Bug != nil {
						walked["bug report"]++
					}
					sendReport(req)
					check("report")
				case op == 8:
					now = now.Add(time.Duration(rng.Intn(700)) * time.Millisecond)
					check("clock")
				}
			}
			// Whatever the walk left: expire it, lease it, report it in full.
			for ; !m.done(); step++ {
				now = now.Add(2 * m.ttl)
				askLease()
				check("lease")
				if l := granted[len(granted)-1]; sent[l.id].Agent == "" {
					sendReport(m.honest("a", l, l.span.to))
					check("report")
				}
			}

			res := co.Result()
			if res.Mismatches != 0 {
				t.Fatalf("determinism violations on a deterministic script: %s", res.FirstMismatch)
			}
			if clean {
				var steps int64
				for p := int64(0); p < total; p++ {
					steps += stepsAt(p)
				}
				if res.BugFound || res.Executions != total || res.TotalSteps != steps {
					t.Fatalf("clean script ended with bug %v after %d executions of %d steps, want none after %d of %d",
						res.BugFound, res.Executions, res.TotalSteps, int64(total), steps)
				}
			} else if !res.BugFound || res.BugPos != lowest || res.Member != int(lowest%2) || res.Iteration != int(lowest/2) {
				t.Fatalf("winner: bug %v at %d (member %d, iteration %d), the lowest buggy position is %d",
					res.BugFound, res.BugPos, res.Member, res.Iteration, lowest)
			}
		})
	}
}

// FuzzReportRequest: the report decoder and validate decide the verdict
// from bytes off the network. Whatever arrives, the endpoint answers 200 or
// 400 without panicking, an accepted body is exactly one JSON value, and
// what an accepted report leaves behind is still a state of the plan, with
// no more executions than resolved positions.
func FuzzReportRequest(f *testing.F) {
	test := rareOrderTest(3)
	opts := core.Options{Scheduler: "random", Iterations: 600, Seed: 7, MaxSteps: 500, NoReplayLog: true}
	ref := core.MustExplore(test, opts)
	if !ref.BugFound {
		f.Fatal("reference run found no bug; pick a different seed")
	}
	trace, err := ref.Report.Trace.Encode()
	if err != nil {
		f.Fatal(err)
	}
	bugAt := int64(ref.Report.Iteration)
	// post answers body as a fresh coordinator's report endpoint does.
	post := func(tb testing.TB, body []byte) (*Coordinator, *httptest.ResponseRecorder) {
		co, err := New(Config{Scenario: "rare-order", Options: opts})
		if err != nil {
			tb.Fatalf("New: %v", err)
		}
		rec := httptest.NewRecorder()
		co.Handler().ServeHTTP(rec, httptest.NewRequest(reportEndpoint.method, reportEndpoint.path, bytes.NewReader(body)))
		return co, rec
	}
	seed := func(want int, req ReportRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		if _, rec := post(f, body); rec.Code != want {
			f.Fatalf("seed %s: status %d %s, want %d", body, rec.Code, rec.Body, want)
		}
		f.Add(body)
	}
	seed(200, ReportRequest{Agent: "a", Lease: 1, From: 0, To: 256, ResolvedTo: 256, Executions: 256, TotalSteps: 1024})
	seed(200, ReportRequest{Agent: "a", Lease: 1, From: 0, To: 256, ResolvedTo: bugAt + 1, Executions: int(bugAt) + 1,
		Bug: &WireBug{Pos: bugAt, Iteration: int(bugAt), Kind: int(ref.Report.Kind), Message: ref.Report.Message, Step: ref.Report.Step, Trace: trace}})
	seed(400, ReportRequest{From: -1, To: 10, ResolvedTo: 10})
	seed(400, ReportRequest{From: 10, To: 20, ResolvedTo: 5})
	seed(400, ReportRequest{From: 0, To: 1 << 40, ResolvedTo: 1 << 40})
	seed(400, ReportRequest{Bug: &WireBug{Pos: -3, Iteration: -3, Trace: []byte(`{}`)}})
	seed(400, ReportRequest{Bug: &WireBug{Pos: 101, Member: 1, Iteration: 50, Trace: []byte(`{}`)}})
	seed(400, ReportRequest{Bug: &WireBug{Pos: 101, Iteration: 101, Trace: []byte(`{"version":99}`)}})
	seed(400, ReportRequest{From: 0, To: 256, ResolvedTo: 256, Executions: -1000, TotalSteps: -7})
	seed(400, ReportRequest{From: 5, To: 6, ResolvedTo: 6, Executions: 1 << 40})
	seed(400, ReportRequest{Agent: "a", Lease: 1, From: 0, To: bugAt, ResolvedTo: bugAt, Executions: int(bugAt),
		Bug: &WireBug{Pos: bugAt, Iteration: int(bugAt), Kind: int(ref.Report.Kind), Message: ref.Report.Message, Step: ref.Report.Step, Trace: trace}})
	f.Add([]byte(`{"candidates":[{"fp":1,"pos":-1,"d":[{"k":"i","v":-1,"n":3}]}]}`))
	f.Add([]byte(`{"from":0,`))
	f.Add([]byte(`{}0`))

	f.Fuzz(func(t *testing.T, body []byte) {
		co, rec := post(t, body)
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req ReportRequest // decoded as the endpoint decodes it: one JSON value, nothing after it
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", body, err)
		}
		if b := req.Bug; b != nil && (b.Pos < req.From || b.Pos >= req.To) && b.Pos >= int64(len(co.plan.Members())) {
			t.Fatalf("accepted %q: a bug outside its span [%d, %d) and past the calibration positions", body, req.From, req.To)
		}
		st, _ := co.status(time.Now(), struct{}{})
		if !(0 <= st.Stop && st.Stop <= st.Total && 0 <= st.Frontier && st.Frontier <= st.Resolved && st.Resolved <= st.Total &&
			0 <= st.Executions && st.Executions <= st.Resolved) {
			t.Fatalf("accepted %q, and the coordinator says %+v", body, st)
		}
	})
}

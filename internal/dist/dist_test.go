package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// rareOrderTest has a bug only when all n senders' signals arrive in exact
// reverse order — probability ~1/n! per execution under random scheduling,
// so the discovering iteration is deep enough that a distributed run spans
// many leases before the winner appears.
func rareOrderTest(n int) core.Test {
	return core.Test{
		Name: "rare-order",
		Entry: func(ctx *core.Context) {
			var got []string
			collector := ctx.CreateMachine(&core.FuncMachine{
				OnEvent: func(ctx *core.Context, ev core.Event) {
					got = append(got, ev.Name())
					if len(got) < n {
						return
					}
					rev := true
					for i := range got {
						if got[i] != fmt.Sprintf("s%d", n-1-i) {
							rev = false
							break
						}
					}
					ctx.Assert(!rev, "senders arrived in exact reverse order")
					ctx.Halt()
				},
			}, "collector")
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("s%d", i)
				ctx.CreateMachine(&core.FuncMachine{
					OnInit: func(ctx *core.Context) { ctx.Send(collector, core.Signal(name)) },
				}, name+"-sender")
			}
		},
	}
}

// choiceTest is bug-free but branches on nondeterministic choices.
func choiceTest() core.Test {
	return core.Test{
		Name: "choices",
		Entry: func(ctx *core.Context) {
			ctx.RandomBool()
			ctx.RandomInt(4)
		},
	}
}

func startCoordinator(t *testing.T, cfg Config, wrap func(http.Handler) http.Handler) (*Coordinator, *httptest.Server) {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := co.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return co, srv
}

// dropReportsFrom simulates an agent death mid-lease deterministically: the
// named agent's reports are rejected at the wire, so its leased work is
// done but never lands and the lease must expire and be re-issued. The 400
// makes the agent give up immediately instead of retrying.
func dropReportsFrom(victim string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/report" {
				data, _ := io.ReadAll(r.Body)
				var req ReportRequest
				json.Unmarshal(data, &req)
				if req.Agent == victim {
					http.Error(w, "connection torn down", http.StatusBadRequest)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(data))
			}
			next.ServeHTTP(w, r)
		})
	}
}

func runAgents(t *testing.T, url string, test core.Test, names []string, victims ...string) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for _, name := range names {
		a, err := NewAgent(AgentConfig{
			Coordinator: url,
			Name:        name,
			Workers:     2,
			Poll:        15 * time.Millisecond,
			BuildTest:   func(string) (core.Test, error) { return test, nil },
		})
		if err != nil {
			t.Fatalf("NewAgent(%s): %v", name, err)
		}
		victim := false
		for _, v := range victims {
			victim = victim || name == v
		}
		ctx := context.Background()
		if victim {
			// Best-effort extra chaos on top of the report blackhole: the
			// context dies mid-run, exercising the silent-death path when
			// the timing lands mid-lease.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 150*time.Millisecond)
			t.Cleanup(cancel)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.Run(ctx)
			if err != nil && !victim && ctx.Err() == nil {
				t.Errorf("agent %s: %v", a.cfg.Name, err)
			}
		}()
	}
	return &wg
}

func waitDone(t *testing.T, co *Coordinator, wg *sync.WaitGroup) Result {
	t.Helper()
	select {
	case <-co.Done():
	case <-time.After(90 * time.Second):
		t.Fatal("coordinator did not finish in time")
	}
	wg.Wait()
	return co.Result()
}

// TestChaosDeterministicAttribution is the distributed determinism
// contract: the same seed and shard plan run with 1, 2, and 4 agents —
// one of which is killed mid-run so its leases expire and are re-issued —
// must attribute the identical winner (member, iteration, trace bytes) as
// a single-process Explore of the same plan. It matters most under the race
// detector: the agents explore with real worker pools.
func TestChaosDeterministicAttribution(t *testing.T) {
	test := rareOrderTest(4)
	opts := core.Options{Scheduler: "random", Iterations: 3000, Seed: 11, MaxSteps: 500, NoReplayLog: true}

	ref := core.MustExplore(test, opts)
	if !ref.BugFound {
		t.Fatal("reference run found no bug; pick a different seed")
	}
	wantTrace, err := ref.Report.Trace.Encode()
	if err != nil {
		t.Fatalf("encoding reference trace: %v", err)
	}
	t.Logf("reference: bug at iteration %d", ref.Report.Iteration)

	for _, tc := range []struct {
		agents []string
		kill   string
	}{
		{agents: []string{"solo"}},
		{agents: []string{"a1", "a2"}},
		{agents: []string{"a1", "a2", "a3", "a4"}, kill: "a3"},
	} {
		name := fmt.Sprintf("%dagents", len(tc.agents))
		if tc.kill != "" {
			name += "-1killed"
		}
		t.Run(name, func(t *testing.T) {
			var wrap func(http.Handler) http.Handler
			if tc.kill != "" {
				wrap = dropReportsFrom(tc.kill)
			}
			co, srv := startCoordinator(t, Config{
				Scenario:  "rare-order",
				Options:   opts,
				LeaseSize: 64,
				LeaseTTL:  300 * time.Millisecond,
			}, wrap)
			wg := runAgents(t, srv.URL, test, tc.agents, tc.kill)
			res := waitDone(t, co, wg)

			if !res.BugFound {
				t.Fatal("fleet found no bug")
			}
			if res.Member != 0 {
				t.Fatalf("winning member = %d, want 0", res.Member)
			}
			if res.Iteration != ref.Report.Iteration {
				t.Fatalf("winning iteration = %d, want %d", res.Iteration, ref.Report.Iteration)
			}
			if !bytes.Equal(res.TraceBytes, wantTrace) {
				t.Fatalf("winning trace bytes diverge from single-process run:\n got %s\nwant %s",
					res.TraceBytes, wantTrace)
			}
			if res.Mismatches != 0 {
				t.Fatalf("determinism violations reported: %d (%s)", res.Mismatches, res.FirstMismatch)
			}
			if res.Trace == nil {
				t.Fatal("winning trace did not decode")
			}
			// The winning trace replays to the same violation.
			rep, err := core.Replay(test, res.Trace, opts)
			if err != nil {
				t.Fatalf("replaying winning trace: %v", err)
			}
			if rep == nil {
				t.Fatal("winning trace replayed clean")
			}
			if rep.Message != ref.Report.Message {
				t.Fatalf("replayed message %q, want %q", rep.Message, ref.Report.Message)
			}
		})
	}
}

// TestPortfolioDistributedMatchesExplore shards a portfolio plan across
// two agents and checks the attribution triple against Explore.
func TestPortfolioDistributedMatchesExplore(t *testing.T) {
	test := rareOrderTest(3)
	opts := core.Options{Portfolio: []string{"pct", "random"}, Iterations: 500, Seed: 7, MaxSteps: 500, NoReplayLog: true}

	ref := core.MustExplore(test, opts)
	if !ref.BugFound {
		t.Fatal("reference run found no bug; pick a different seed")
	}
	wantTrace, err := ref.Report.Trace.Encode()
	if err != nil {
		t.Fatalf("encoding reference trace: %v", err)
	}

	co, srv := startCoordinator(t, Config{
		Scenario:  "rare-order",
		Options:   opts,
		LeaseSize: 32,
		LeaseTTL:  time.Second,
	}, nil)
	wg := runAgents(t, srv.URL, test, []string{"a1", "a2"})
	res := waitDone(t, co, wg)

	if !res.BugFound {
		t.Fatal("fleet found no bug")
	}
	if res.Member != ref.Winner {
		t.Fatalf("winning member = %d, want %d", res.Member, ref.Winner)
	}
	if res.Iteration != ref.Report.Iteration {
		t.Fatalf("winning iteration = %d, want %d", res.Iteration, ref.Report.Iteration)
	}
	if !bytes.Equal(res.TraceBytes, wantTrace) {
		t.Fatalf("winning trace bytes diverge from single-process run:\n got %s\nwant %s", res.TraceBytes, wantTrace)
	}
}

// TestCleanRunCompletes: a plan with no bug resolves every position and
// the fleet's statistics are Explore's, whatever the scheduler and however
// many agents joined. An adaptive member (pct, delay) is the case that
// matters: every agent whose first lease does not hold the member's
// position 0 re-runs it for the length hint, and that execution belongs to
// the shard that owns the position, not to every shard that needed the hint.
func TestCleanRunCompletes(t *testing.T) {
	test := choiceTest()
	for _, plan := range []core.Options{
		{Scheduler: "random"},
		{Scheduler: "pct"},
		{Scheduler: "delay"},
		{Portfolio: []string{"pct", "random"}},
	} {
		opts := plan
		opts.Iterations, opts.Seed, opts.MaxSteps, opts.NoReplayLog = 400, 5, 100, true
		ref := core.MustExplore(test, opts)
		if ref.BugFound {
			t.Fatal("reference run unexpectedly found a bug")
		}
		for _, agents := range [][]string{{"a1", "a2"}, {"a1", "a2", "a3"}} {
			t.Run(fmt.Sprintf("%s/%dagents", strings.Join(opts.Members(), ","), len(agents)), func(t *testing.T) {
				co, srv := startCoordinator(t, Config{
					Scenario:  "choices",
					Options:   opts,
					LeaseSize: 32,
					LeaseTTL:  time.Second,
				}, nil)
				res := waitDone(t, co, runAgents(t, srv.URL, test, agents))
				if res.BugFound {
					t.Fatal("clean plan reported a bug")
				}
				if res.Executions != int64(ref.Executions) || res.TotalSteps != ref.TotalSteps {
					t.Fatalf("fleet ran %d executions of %d steps in all, Explore %d of %d",
						res.Executions, res.TotalSteps, ref.Executions, ref.TotalSteps)
				}
			})
		}
	}
}

// TestLeaseExpiryOverHTTP: a granted lease that is never reported expires
// and is re-issued to the next asker; a late report for the expired lease
// is still accepted. The exchanges go through the endpoints' server half;
// the time they happen at is the test's, so expiry takes no waiting.
func TestLeaseExpiryOverHTTP(t *testing.T) {
	co, err := New(Config{
		Scenario: "choices",
		Options:  core.Options{Scheduler: "random", Iterations: 100, NoReplayLog: true},
		LeaseTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	now := time.Now()
	clock := func() time.Time { return now }
	h := http.NewServeMux()
	leaseEndpoint.serve(h, clock, co.lease)
	reportEndpoint.serve(h, clock, co.report)

	var w wire
	lease := func(agent string) (lr LeaseResponse) {
		t.Helper()
		if code, body := w.post(t, h, leaseEndpoint.path, LeaseRequest{Agent: agent}, &lr); code != http.StatusOK {
			t.Fatalf("lease: status %d: %s", code, body)
		}
		return lr
	}

	l1 := lease("slow")
	if l1.None || l1.Done || l1.From != 0 {
		t.Fatalf("first lease = %+v, want a grant from 0", l1)
	}
	now = now.Add(50 * time.Millisecond)
	if l := lease("early"); !l.None {
		t.Fatalf("the plan's one lease was re-issued at its TTL, not past it: %+v", l)
	}
	now = now.Add(time.Millisecond)
	l2 := lease("fast")
	if l2.None || l2.Done {
		t.Fatalf("expired lease was not re-issued: %+v", l2)
	}
	if l2.From != l1.From || l2.To != l1.To {
		t.Fatalf("re-issued lease = [%d, %d), want [%d, %d)", l2.From, l2.To, l1.From, l1.To)
	}

	// The slow agent's late report is still accepted (results are
	// deterministic, duplicates identical).
	var ack ReportResponse
	if code, body := w.post(t, h, reportEndpoint.path, ReportRequest{
		Agent: "slow", Lease: l1.Lease, From: l1.From, To: l1.To, ResolvedTo: l1.To,
	}, &ack); code != http.StatusOK {
		t.Fatalf("late report: status %d: %s", code, body)
	}
}

// TestProtocolVersionMismatch: a join with the wrong protocol version — a
// later one, protocol 1, whose plans could carry a liveness threshold this
// build would ignore, protocol 2, whose plans could carry a pct/delay depth
// it would ignore, or protocol 3, which would read this build's "faults":{}
// as the test's budget — is rejected with a loud 400, and the agent gives
// up rather than retrying.
func TestProtocolVersionMismatch(t *testing.T) {
	_, srv := startCoordinator(t, Config{
		Scenario: "choices",
		Options:  core.Options{Scheduler: "random", Iterations: 10, NoReplayLog: true},
	}, nil)
	for _, req := range []JoinRequest{{Protocol: 99, Agent: "future"}, {Protocol: 1, Agent: "v1"}, {Protocol: 2, Agent: "v2"}, {Protocol: 3, Agent: "v3"}} {
		t.Run(req.Agent, func(t *testing.T) {
			body, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/v1/join", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %s, want 400", resp.Status)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if want := fmt.Sprintf("protocol version %d not supported", req.Protocol); !strings.Contains(buf.String(), want) {
				t.Fatalf("body = %q, want %q", buf.String(), want)
			}
		})
	}
}

// TestWholePlanSchedulersRejected: a fleet explores nothing but sub-ranges,
// so a plan with a member that cannot explore one — mutational splices the
// corpus of the positions before — is refused up front, by the rule
// ExploreShard applies.
func TestWholePlanSchedulersRejected(t *testing.T) {
	for _, o := range []core.Options{
		{Scheduler: "mutational"},
		{Portfolio: []string{"random", "mutational"}},
	} {
		_, err := New(Config{Scenario: "choices", Options: o})
		if _, ok := err.(*core.ConfigError); !ok || !strings.Contains(err.Error(), "cannot explore a sub-range") {
			t.Errorf("New(%v) error = %v, want a *core.ConfigError refusing the sub-ranges", o.Members(), err)
		}
	}
}

// TestNegativeSettingsAreRejected: a negative agent parallelism or poll
// cadence fails at NewAgent, before Run can take a lease it would strand
// until the lease expires, and a negative lease size or TTL fails at New
// instead of turning into the default, each as a *core.ConfigError naming
// the field; so do a plan too large to number and a missing required agent
// field. Zero still means the default.
func TestNegativeSettingsAreRejected(t *testing.T) {
	configError := func(t *testing.T, err error, field, reason string) {
		t.Helper()
		var ce *core.ConfigError
		if !errors.As(err, &ce) || ce.Field != field || !strings.Contains(ce.Reason, reason) {
			t.Errorf("error = %v, want a *core.ConfigError on %s: %s", err, field, reason)
		}
	}
	build := func(string) (core.Test, error) { return choiceTest(), nil }
	for _, c := range []struct {
		cfg           AgentConfig
		field, reason string
	}{
		{AgentConfig{Workers: -1}, "AgentConfig.Workers", "must be non-negative, got -1"},
		{AgentConfig{Poll: -time.Second}, "AgentConfig.Poll", "must be non-negative, got -1s"},
	} {
		t.Run(c.field, func(t *testing.T) {
			c.cfg.Coordinator, c.cfg.Name, c.cfg.BuildTest = "http://127.0.0.1:1", "a", build
			_, err := NewAgent(c.cfg)
			configError(t, err, c.field, c.reason)
		})
	}
	for field, cfg := range map[string]AgentConfig{
		"AgentConfig.Coordinator": {Name: "a", BuildTest: build},
		"AgentConfig.Name":        {Coordinator: "http://127.0.0.1:1", BuildTest: build},
		"AgentConfig.BuildTest":   {Coordinator: "http://127.0.0.1:1", Name: "a"},
	} {
		t.Run(field, func(t *testing.T) {
			_, err := NewAgent(cfg)
			configError(t, err, field, "is required")
		})
	}
	for _, c := range []struct {
		cfg           Config
		field, reason string
	}{
		{Config{LeaseSize: -5}, "Config.LeaseSize", "must be non-negative, got -5"},
		{Config{LeaseTTL: -time.Second}, "Config.LeaseTTL", "must be non-negative, got -1s"},
		{Config{Options: core.Options{Iterations: math.MaxInt64}}, "Options.Iterations", "must be at most 9223372036854775806"},
	} {
		t.Run(c.field, func(t *testing.T) {
			c.cfg.Scenario = "choices"
			_, err := New(c.cfg)
			configError(t, err, c.field, c.reason)
		})
	}
	t.Run("zero means the default", func(t *testing.T) {
		a, err := NewAgent(AgentConfig{Coordinator: "http://127.0.0.1:1", Name: "a", BuildTest: build})
		if err != nil || a.cfg.Poll != DefaultPoll {
			t.Fatalf("zero Poll: agent %+v, error %v; want the %v default", a, err, DefaultPoll)
		}
		co, err := New(Config{Scenario: "choices"})
		if err != nil || co.cfg.LeaseSize != DefaultLeaseSize || co.cfg.LeaseTTL != DefaultLeaseTTL {
			t.Fatalf("zero lease settings: error %v; want the %d-position, %v defaults", err, DefaultLeaseSize, DefaultLeaseTTL)
		}
	})
}

// TestHealthzAndMetrics: the operational endpoints answer in their
// documented formats.
func TestHealthzAndMetrics(t *testing.T) {
	test := choiceTest()
	opts := core.Options{Scheduler: "random", Iterations: 50, Seed: 1, MaxSteps: 100, NoReplayLog: true}
	co, srv := startCoordinator(t, Config{
		Scenario: "choices",
		Options:  opts,
	}, nil)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(buf.String()) != "ok" {
		t.Fatalf("healthz = %s %q, want 200 ok", resp.Status, buf.String())
	}

	wg := runAgents(t, srv.URL, test, []string{"a1"})
	res := waitDone(t, co, wg)
	if res.BugFound {
		t.Fatal("clean plan reported a bug")
	}

	resp, err = http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	resp.Body.Close()
	if !st.Done || st.Resolved != st.Total || st.Total != 50 {
		t.Fatalf("status = %+v, want done with 50/50 resolved", st)
	}
	if st.Executions == 0 {
		t.Fatal("status reports zero executions after a full run")
	}

	// Scrape /metrics and parse the exposition line by line: every sample
	// follows its own HELP and TYPE, no name repeats, and each value is the
	// /v1/status field it is a reading of — the run is over, so the two
	// snapshots differ only in what the clock moves.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	want := map[string]float64{
		"gostorm_leases_outstanding": float64(st.Leases),
		"gostorm_agents_live":        float64(st.AgentsLive),
		"gostorm_iterations_total":   float64(st.Executions),
		"gostorm_positions_resolved": float64(st.Resolved),
		"gostorm_bug_found":          0,
	}
	sampleName := regexp.MustCompile(`^[a-z_]+$`)
	got := make(map[string]float64)
	var help, typ string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 4 && f[0] == "#" && f[1] == "HELP":
			help = f[2]
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && (f[3] == "gauge" || f[3] == "counter"):
			typ = f[2]
		case len(f) == 2 && sampleName.MatchString(f[0]):
			v, err := strconv.ParseFloat(f[1], 64)
			if _, dup := got[f[0]]; err != nil || dup || help != f[0] || typ != f[0] {
				t.Fatalf("sample %q: parse error %v, duplicate %v, preceded by HELP %q and TYPE %q", line, err, dup, help, typ)
			}
			got[f[0]] = v
		default:
			t.Fatalf("unparseable exposition line %q in:\n%s", line, buf.String())
		}
	}
	if rate, ok := got["gostorm_iterations_per_second"]; !ok || rate <= 0 || rate > st.PerSecond {
		t.Errorf("gostorm_iterations_per_second = %v (present %v), want within (0, %v]: the same executions over a later clock", rate, ok, st.PerSecond)
	}
	delete(got, "gostorm_iterations_per_second")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics disagree with /v1/status:\n got %v\nwant %v", got, want)
	}
}

// wire is a reusable in-memory http.ResponseWriter and request source: the
// allocation budget below is the coordinator's, so the harness around it
// keeps one header map, one body buffer and one request per path for the
// whole test.
type wire struct {
	header http.Header
	code   int
	body   bytes.Buffer
	reqs   map[string]*http.Request
}

func (w *wire) Header() http.Header         { return w.header }
func (w *wire) WriteHeader(code int)        { w.code = code }
func (w *wire) Write(p []byte) (int, error) { return w.body.Write(p) }

// post sends one JSON request straight into a handler and decodes a 200
// answer into resp; it returns the status code and, for anything else, the
// body.
func (w *wire) post(t *testing.T, h http.Handler, path string, req, resp any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if w.header == nil {
		w.header, w.reqs = make(http.Header), make(map[string]*http.Request)
	}
	r := w.reqs[path]
	if r == nil {
		if r, err = http.NewRequest(http.MethodPost, path, nil); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		w.reqs[path] = r
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	w.code = http.StatusOK
	w.body.Reset()
	h.ServeHTTP(w, r)
	if w.code != http.StatusOK {
		return w.code, w.body.String()
	}
	if err := json.Unmarshal(w.body.Bytes(), resp); err != nil {
		t.Fatalf("%s: decoding %q: %v", path, w.body.Bytes(), err)
	}
	return w.code, ""
}

// TestHugePlanCostsWhatItResolves is the fleet's twin of core's
// TestHugeBudgetMemoryIsProportionalToWork: a coordinator for "run until I
// say stop", written as an enormous iteration count, must cost time and
// memory in proportion to the leases it has handed out. The lease table
// used to hold a span per lease slot of the whole plan — 4 194 304 of them
// here, 322 MiB to build — and copy the list under the coordinator's mutex
// on every report.
func TestHugePlanCostsWhatItResolves(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	co, err := New(Config{Scenario: "choices", Options: core.Options{Iterations: 1 << 30}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := co.Handler()
	var w wire
	const rounds = 2000
	for i := int64(0); i < rounds; i++ {
		var lr LeaseResponse
		w.post(t, h, "/v1/lease", LeaseRequest{Agent: "a"}, &lr)
		if lr.From != i*256 || lr.To != lr.From+256 {
			t.Fatalf("lease %d = [%d, %d), want the aligned span from %d", i, lr.From, lr.To, i*256)
		}
		var ack ReportResponse
		if code, body := w.post(t, h, "/v1/report", ReportRequest{
			Agent: "a", Lease: lr.Lease, From: lr.From, To: lr.To, ResolvedTo: lr.To, Executions: 256,
		}, &ack); code != http.StatusOK {
			t.Fatalf("report %d: status %d: %s", i, code, body)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if res := co.Result(); res.Executions != rounds*256 {
		t.Fatalf("coordinator counted %d executions, want %d", res.Executions, rounds*256)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d lease/report round trips on a %d-position plan: %v, %d KiB allocated", rounds, co.Plan().Total, wall, alloc>>10)
	if wall > time.Second {
		t.Errorf("%d round trips took %v", rounds, wall)
	}
	if alloc > 8<<20 {
		t.Errorf("allocated %d MiB for %d round trips", alloc>>20, rounds)
	}
}

// TestReportsOffThePlanAreRejected: /v1/report is fed from the network and
// an accepted report decides the verdict, so one the plan cannot have
// produced is a 400 that changes nothing. The handler used to trust the
// wire: a single forged {"from":0,"to":1<<40,"resolved_to":1<<40} ended a
// run "clean" with no execution, and {"bug":{"pos":-3}} ended it with a
// winning bug at position -3.
func TestReportsOffThePlanAreRejected(t *testing.T) {
	co, err := New(Config{Scenario: "choices", Options: core.Options{Portfolio: []string{"pct", "random"}, Iterations: 2500}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := co.Handler()
	const total = 5000
	state := func() StatusResponse {
		st, _ := co.status(time.Now(), struct{}{})
		st.ElapsedSecs, st.PerSecond = 0, 0
		return st
	}
	var w wire
	var lr LeaseResponse
	w.post(t, h, "/v1/lease", LeaseRequest{Agent: "honest"}, &lr)
	if lr.From != 0 || lr.To != 256 {
		t.Fatalf("first lease = [%d, %d), want [0, 256)", lr.From, lr.To)
	}
	trace := []byte(`{}`)
	bug := func(pos int64, member, iteration int, trace []byte) *WireBug {
		return &WireBug{Pos: pos, Member: member, Iteration: iteration, Message: "forged", Trace: trace}
	}
	for _, tc := range []struct {
		name string
		req  ReportRequest
		want int
	}{
		{"negative from", ReportRequest{From: -1, To: 10, ResolvedTo: 10}, 400},
		{"to below from", ReportRequest{From: 10, To: 5, ResolvedTo: 7}, 400},
		{"resolved below from", ReportRequest{From: 10, To: 20, ResolvedTo: 5}, 400},
		{"resolved beyond to", ReportRequest{From: 0, To: 10, ResolvedTo: 11}, 400},
		{"to beyond the plan", ReportRequest{From: 0, To: total + 1, ResolvedTo: total}, 400},
		{"the whole plan and more", ReportRequest{From: 0, To: 1 << 40, ResolvedTo: 1 << 40}, 400},
		{"bug below the plan", ReportRequest{Bug: bug(-3, 1, -1, trace)}, 400},
		{"bug beyond the plan", ReportRequest{Bug: bug(total, 0, total/2, trace)}, 400},
		{"bug on the wrong member", ReportRequest{Bug: bug(101, 0, 50, trace)}, 400},
		{"bug on the wrong iteration", ReportRequest{Bug: bug(101, 1, 7, trace)}, 400},
		{"bug without a trace", ReportRequest{Bug: bug(101, 1, 50, nil)}, 400},
		{"bug with an undecodable trace", ReportRequest{Bug: bug(101, 1, 50, []byte(`{"version":99}`))}, 400},
		{"negative statistics", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Executions: -1000, TotalSteps: -7}, 400},
		{"negative steps", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Executions: 10, TotalSteps: -7}, 400},
		{"more executions than positions", ReportRequest{From: 5, To: 6, ResolvedTo: 6, Executions: 1 << 40}, 400},
		{"steps without an execution", ReportRequest{From: 256, To: 512, ResolvedTo: 300, TotalSteps: 1}, 400},
		{"an execution past twice the bound", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Executions: 2, TotalSteps: 4*10000 + 1}, 400},
		{"bug off the span", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Bug: bug(4001, 1, 2000, trace)}, 400},
		{"bug of no kind", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Bug: &WireBug{Pos: 257, Member: 1, Iteration: 128, Kind: 3, Trace: trace}}, 400},
		// What honest agents send must keep passing: nothing resolved, a
		// bug from a calibration execution below From, exactly the lease,
		// and the same report again.
		{"nothing resolved", ReportRequest{From: 256, To: 512, ResolvedTo: 256}, 200},
		{"bug below from", ReportRequest{From: 256, To: 512, ResolvedTo: 300, Bug: bug(1, 1, 0, trace)}, 200},
		{"exactly the lease", ReportRequest{Lease: lr.Lease, From: lr.From, To: lr.To, ResolvedTo: lr.To, Executions: 256}, 200},
		{"the same again", ReportRequest{Lease: lr.Lease, From: lr.From, To: lr.To, ResolvedTo: lr.To, Executions: 256}, 200},
	} {
		before := state()
		tc.req.Agent = "a-" + tc.name
		var ack ReportResponse
		code, body := w.post(t, h, "/v1/report", tc.req, &ack)
		if code != tc.want {
			t.Errorf("%s: status %d %s, want %d", tc.name, code, body, tc.want)
		}
		if after := state(); tc.want != 200 && after != before {
			t.Errorf("%s: a rejected report changed the coordinator:\n before %+v\n after  %+v", tc.name, before, after)
		}
	}
	res := co.Result()
	if !res.BugFound || res.BugPos != 1 || res.Executions != 256 {
		t.Fatalf("result = bug %v at %d after %d executions, want the bug at 1 after 256", res.BugFound, res.BugPos, res.Executions)
	}
}

// machineLocal lists the core.Options fields that say how one machine runs
// a plan, not what the plan is; they stay off the wire and each agent sets
// its own (localOptions).
var machineLocal = map[string]bool{
	"Workers": true, "NoReplayLog": true, "NoReuse": true,
}

// fill sets v — a field of core.Options or of a struct inside it — to a
// value that is not its zero.
func fill(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x-" + name)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(7 + len(name)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, name, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, fmt.Sprint(name, i), v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		t.Fatalf("core.Options.%s has kind %s: teach this test to fill it, then decide whether it travels", name, v.Kind())
	}
}

// TestPlanOnTheWireIsOptions: the plan an agent runs is the coordinator's
// core.Options, field for field. Every exported field either carries a wire
// name and survives JoinResponse -> JSON -> localOptions, or is listed as
// machine-local and tagged off the wire — so a field added to core.Options
// without that decision fails here instead of silently diverging a fleet.
// The goldens are join bodies recorded before PlanConfig embedded
// core.Options, less corpus_size, no_deadlock_detection, the liveness
// threshold and pct_depth. Dropping the first two needed no
// ProtocolVersion bump: every plan gostormd can publish carries 64 and
// false, which is what the other end resolves when the key is absent or
// ignored. Dropping the threshold did (protocol 2), and so did dropping
// pct_depth (protocol 3): gostormd could publish any value, and an agent
// that ignores the key would explore a different plan. Protocol 4 dropped
// no_faults and made faults a pointer, omitted when unset: a protocol-3
// agent would read the zero budget "faults":{} — now "no faults" — as "the
// test's budget".
func TestPlanOnTheWireIsOptions(t *testing.T) {
	var sent core.Options
	typ := reflect.TypeOf(sent)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case machineLocal[f.Name] && name != "-":
			t.Errorf("core.Options.%s is machine-local but tagged json:%q, want \"-\"", f.Name, f.Tag.Get("json"))
		case !machineLocal[f.Name] && (name == "" || name == "-"):
			t.Errorf("core.Options.%s has no wire name (json:%q): tag it, or list it in machineLocal and tag it \"-\"", f.Name, f.Tag.Get("json"))
		case !machineLocal[f.Name]:
			fill(t, f.Name, reflect.ValueOf(&sent).Elem().Field(i))
		}
	}
	if t.Failed() {
		return
	}
	sent.Workers, sent.NoReuse = 9, true
	data, err := json.Marshal(JoinResponse{Plan: PlanConfig{Scenario: "s", Options: sent, Total: 1}})
	if err != nil {
		t.Fatalf("encoding the join response: %v", err)
	}
	var jr JoinResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	want := sent
	want.Workers, want.NoReplayLog, want.NoReuse = 3, true, false
	if got := localOptions(jr.Plan, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("options after the wire:\n got %+v\nwant %+v\nwire %s", got, want, data)
	}

	if ProtocolVersion != 4 {
		t.Fatalf("ProtocolVersion = %d, but the goldens are protocol 4's join bodies", ProtocolVersion)
	}
	for name, o := range map[string]core.Options{
		"full": {
			Portfolio: []string{"pct", "random", "delay"}, Seed: -42, Iterations: 1234, MaxSteps: 567,
			NoLivenessBoundCheck: true,
			Faults:               &core.Faults{MaxCrashes: 1, MaxDrops: 2, MaxDuplicates: 3, MaxTornCrashes: 4},
			Workers:              5, NoReplayLog: true, NoReuse: true,
		},
		"defaults": {},
	} {
		co, err := New(Config{Scenario: "golden-" + name, Options: o})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		var w wire
		var got, want any
		w.post(t, co.Handler(), "/v1/join", JoinRequest{Protocol: ProtocolVersion, Agent: "golden"}, &got)
		golden, err := os.ReadFile("testdata/join_v4_" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(golden, &want); err != nil {
			t.Fatalf("%s: decoding the golden: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: join body differs from the one recorded under protocol 4:\n got %s want %s", name, w.body.Bytes(), golden)
		}
	}
}

// TestAgentRunReturnsTheBareCancellation: callers tell "I cancelled it"
// from a failure by comparing Run's error with context.Canceled, so it must
// be that value, not a wrapper — before the join, and while backing off
// because every lease is out.
func TestAgentRunReturnsTheBareCancellation(t *testing.T) {
	co, srv := startCoordinator(t, Config{
		Scenario:  "choices",
		Options:   core.Options{Iterations: 10},
		LeaseSize: 10,
	}, nil)
	a, err := NewAgent(AgentConfig{
		Coordinator: srv.URL,
		Name:        "a",
		BuildTest:   func(string) (core.Test, error) { return choiceTest(), nil },
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Run(ctx); err != context.Canceled {
		t.Fatalf("Run under a cancelled context = %v, want context.Canceled itself", err)
	}

	var w wire
	var hog LeaseResponse
	w.post(t, co.Handler(), "/v1/lease", LeaseRequest{Agent: "hog"}, &hog)
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	if err := a.Run(ctx); err != context.Canceled {
		t.Fatalf("Run cancelled between leases = %v, want context.Canceled itself", err)
	}
}

package core

import (
	"bytes"
	"strings"
	"testing"
)

// encodeTrace is a test helper: the winner-attribution contract is stated
// over encoded trace bytes, so that is what the tests compare.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	data, err := tr.Encode()
	if err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return data
}

// TestShardFullRangeMatchesExplore: a single shard covering the whole plan
// must reproduce Explore bit for bit — winner position, trace bytes, and
// the canonical statistics — for every scheduler family (pure, adaptive,
// feedback) and for portfolios, including one with a member that runs
// whole.
func TestShardFullRangeMatchesExplore(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"random", Options{Scheduler: "random", Iterations: 2000, Seed: 7}},
		{"pct", Options{Scheduler: "pct", Iterations: 1000, Seed: 42}},
		{"mutational", Options{Scheduler: "mutational", Iterations: 300, Seed: 13}},
		{"portfolio", Options{Portfolio: []string{"random", "pct"}, Iterations: 1000, Seed: 42}},
		{"portfolio-feedback", Options{Portfolio: []string{"random", "mutational"}, Iterations: 300, Seed: 13}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.opts
			o.NoReplayLog = true
			o.Workers = 4
			ref := MustExplore(raceTest(), o)
			if !ref.BugFound {
				t.Fatal("reference run found no bug")
			}
			for _, workers := range []int{1, 4} {
				so := o
				so.Workers = workers
				res, err := ExploreShard(raceTest(), so, Shard{From: 0, To: PlanSize(so)})
				if err != nil {
					t.Fatalf("ExploreShard(workers=%d): %v", workers, err)
				}
				if !res.BugFound {
					t.Fatalf("workers=%d: no bug", workers)
				}
				wantMember := 0
				if ref.Portfolio != nil {
					wantMember = ref.Winner
				}
				if res.Member != wantMember || res.Report.Iteration != ref.Report.Iteration {
					t.Fatalf("workers=%d: winner (member %d, iteration %d), want (member %d, iteration %d)",
						workers, res.Member, res.Report.Iteration, wantMember, ref.Report.Iteration)
				}
				if !bytes.Equal(encodeTrace(t, res.Report.Trace), encodeTrace(t, ref.Report.Trace)) {
					t.Fatalf("workers=%d: trace bytes diverge from Explore", workers)
				}
				if res.Executions != ref.Executions || res.TotalSteps != ref.TotalSteps {
					t.Fatalf("workers=%d: stats (%d execs, %d steps), want (%d, %d)",
						workers, res.Executions, res.TotalSteps, ref.Executions, ref.TotalSteps)
				}
			}
		})
	}
}

// TestShardFullRangeCorpusMatchesExplore: the candidates a full-range
// feedback shard merges are exactly Result.Corpus — same fingerprints, same
// canonical order — so Corpus.Add of the candidates in order rebuilds the
// single-process corpus.
func TestShardFullRangeCorpusMatchesExplore(t *testing.T) {
	o := Options{Scheduler: "mutational", Iterations: 300, Seed: 13, Workers: 4, NoReplayLog: true}
	ref := MustExplore(cleanChoiceTest(), o)
	res, err := ExploreShard(cleanChoiceTest(), o, Shard{From: 0, To: PlanSize(o)})
	if err != nil {
		t.Fatal(err)
	}
	if res.BugFound || ref.BugFound {
		t.Fatal("clean workload reported a bug")
	}
	if len(res.Candidates) != len(ref.Corpus) {
		t.Fatalf("candidates = %d entries, Result.Corpus = %d", len(res.Candidates), len(ref.Corpus))
	}
	for i, cand := range res.Candidates {
		if cand.Fingerprint != ref.Corpus[i] {
			t.Fatalf("candidate %d fingerprint %#x, want %#x", i, cand.Fingerprint, ref.Corpus[i])
		}
	}
}

// TestShardPartitionUnionMatchesExplore is the distributed determinism
// contract at the engine level: cut the plan into shards any which way,
// run every shard independently (any worker count, no shared state), and
// the lowest winning position across shards — member, iteration, trace
// bytes — is the Explore winner.
func TestShardPartitionUnionMatchesExplore(t *testing.T) {
	plans := []struct {
		name string
		opts Options
	}{
		{"random", Options{Scheduler: "random", Iterations: 2000, Seed: 7}},
		{"portfolio-adaptive", Options{Portfolio: []string{"pct", "random"}, Iterations: 1000, Seed: 42}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			o := p.opts
			o.NoReplayLog = true
			o.Workers = 2
			ref := MustExplore(raceTest(), o)
			if !ref.BugFound {
				t.Fatal("reference run found no bug")
			}
			total := PlanSize(o)
			for _, shards := range []int{1, 2, 3, 5} {
				var (
					bestPos            = total
					bestMember, bestIt = -1, -1
					bestTrace          []byte
				)
				for s := 0; s < shards; s++ {
					from := int64(s) * total / int64(shards)
					to := int64(s+1) * total / int64(shards)
					so := o
					so.Workers = 1 + s%3
					res, err := ExploreShard(raceTest(), so, Shard{From: from, To: to})
					if err != nil {
						t.Fatalf("shard %d/%d: %v", s, shards, err)
					}
					if res.BugFound && res.BugPos < bestPos {
						bestPos = res.BugPos
						bestMember = res.Member
						bestIt = res.Report.Iteration
						bestTrace = encodeTrace(t, res.Report.Trace)
					}
				}
				wantMember := 0
				if ref.Portfolio != nil {
					wantMember = ref.Winner
				}
				if bestMember != wantMember || bestIt != ref.Report.Iteration {
					t.Fatalf("%d shards: winner (member %d, iteration %d), want (member %d, iteration %d)",
						shards, bestMember, bestIt, wantMember, ref.Report.Iteration)
				}
				if !bytes.Equal(bestTrace, encodeTrace(t, ref.Report.Trace)) {
					t.Fatalf("%d shards: winning trace bytes diverge from Explore", shards)
				}
			}
		})
	}
}

// TestShardStopBoundPrunes: an external stop bound below the shard's bug
// position suppresses the bug and caps the resolved prefix — the
// coordinator's cancel-on-first-bug lever.
func TestShardStopBoundPrunes(t *testing.T) {
	o := Options{Scheduler: "random", Iterations: 2000, Seed: 7, Workers: 2, NoReplayLog: true}
	full, err := ExploreShard(raceTest(), o, Shard{From: 0, To: PlanSize(o)})
	if err != nil || !full.BugFound {
		t.Fatalf("full shard: err=%v bug=%v", err, full.BugFound)
	}
	stop := full.BugPos // prune the winning position itself
	res, err := ExploreShard(raceTest(), o, Shard{
		From: 0, To: PlanSize(o),
		Stop: func() int64 { return stop },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BugFound {
		t.Fatalf("bug at position %d reported despite stop bound %d", res.BugPos, stop)
	}
	if res.ResolvedTo != stop {
		t.Fatalf("ResolvedTo = %d, want %d (everything below the bound completes)", res.ResolvedTo, stop)
	}
}

// TestShardRejectsBadConfig: a plan naming dfs (the enumeration is a test
// oracle, no registered scheduler), a proper sub-range of a plan with a
// feedback member, and malformed ranges, fail up front with typed
// ConfigErrors.
func TestShardRejectsBadConfig(t *testing.T) {
	o := Options{Scheduler: "random", Iterations: 100, Seed: 1}
	cases := []struct {
		name string
		o    Options
		sh   Shard
		want string
	}{
		{"dfs", Options{Scheduler: "dfs", Iterations: 100}, Shard{From: 0, To: 10}, `unknown scheduler "dfs"`},
		{"feedback", Options{Scheduler: "mutational", Iterations: 100}, Shard{From: 0, To: 10}, "cannot explore a sub-range"},
		{"feedback member", withMembers(Options{Iterations: 100}, "random", "mutational"), Shard{From: 10, To: 200}, `Options.Portfolio[1]: scheduler "mutational"`},
		{"empty range", o, Shard{From: 5, To: 5}, "non-empty sub-range"},
		{"negative from", o, Shard{From: -1, To: 10}, "non-empty sub-range"},
		{"beyond plan", o, Shard{From: 0, To: 101}, "non-empty sub-range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ExploreShard(raceTest(), c.o, c.sh)
			if err == nil {
				t.Fatal("no error")
			}
			if _, ok := err.(*ConfigError); !ok {
				t.Fatalf("error type %T, want *ConfigError", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q lacks %q", err, c.want)
			}
		})
	}
}

// TestCheckSubRange: the rule ExploreShard and a coordinator share refuses
// a plan exactly when one of its members is feedback-driven, and
// ExploreShard applies it to proper sub-ranges only: the whole plan runs
// under any member.
func TestCheckSubRange(t *testing.T) {
	for _, c := range []struct {
		members []string
		whole   bool // the plan cannot be explored a sub-range at a time
	}{
		{[]string{"random"}, false},
		{[]string{"pct"}, false},
		{[]string{"delay"}, false},
		{[]string{"mutational"}, true},
		{[]string{"random", "pct", "delay"}, false},
		{[]string{"pct", "mutational"}, true},
		{[]string{"random", "mutational"}, true},
	} {
		t.Run(strings.Join(c.members, ","), func(t *testing.T) {
			o := withMembers(Options{Iterations: 20, Seed: 1, NoReplayLog: true}, c.members...)
			total := PlanSize(o)
			if _, err := ExploreShard(cleanChoiceTest(), o, Shard{To: total}); err != nil {
				t.Fatalf("whole plan: %v", err)
			}
			rule := CheckSubRange(o)
			_, err := ExploreShard(cleanChoiceTest(), o, Shard{From: 1, To: total})
			if !c.whole {
				if rule != nil || err != nil {
					t.Fatalf("CheckSubRange = %v, sub-range error = %v; want both nil", rule, err)
				}
				return
			}
			if _, ok := rule.(*ConfigError); !ok || !strings.Contains(rule.Error(), "cannot explore a sub-range") {
				t.Fatalf("CheckSubRange = %v, want a *ConfigError refusing the sub-ranges", rule)
			}
			if err == nil || err.Error() != rule.Error() {
				t.Fatalf("sub-range error = %v, want CheckSubRange's %v", err, rule)
			}
		})
	}
}

// TestCorpusCodecRoundTrip: Encode/DecodeCorpus preserve capacity, order,
// fingerprints and decision sequences exactly.
func TestCorpusCodecRoundTrip(t *testing.T) {
	c := NewCorpus(8)
	c.Add(0xdead, 3, []Decision{{Kind: DecisionSchedule, Machine: 2}, {Kind: DecisionBool, Bool: true}})
	c.Add(0xbeef, 7, []Decision{{Kind: DecisionInt, Int: 2, N: 4}})
	c.Add(0xf00d, 9, []Decision{{Kind: DecisionCrash, Machine: 1, Int: 0, N: 3}})
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.cap != c.cap || got.Len() != c.Len() {
		t.Fatalf("cap/len = %d/%d, want %d/%d", got.cap, got.Len(), c.cap, c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		wfp, wdec := c.Entry(i)
		gfp, gdec := got.Entry(i)
		if wfp != gfp || len(wdec) != len(gdec) {
			t.Fatalf("entry %d diverges", i)
		}
		for j := range wdec {
			if wdec[j] != gdec[j] {
				t.Fatalf("entry %d decision %d: %v vs %v", i, j, gdec[j], wdec[j])
			}
		}
		if got.entries[i].Position != c.entries[i].Position {
			t.Fatalf("entry %d position %d, want %d", i, got.entries[i].Position, c.entries[i].Position)
		}
	}
	// A decoded corpus keeps deduplicating.
	if got.Add(0xbeef, 1, []Decision{{Kind: DecisionBool}}) {
		t.Fatal("decoded corpus accepted a duplicate fingerprint")
	}
}

// TestCorpusCodecStrict: unknown versions and malformed payloads are
// errors, never silent truncation.
func TestCorpusCodecStrict(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"future version", `{"version": 99, "cap": 4, "entries": []}`, "unknown corpus version"},
		{"version zero", `{"version": 0, "cap": 4, "entries": []}`, "unknown corpus version"},
		{"empty decisions", `{"version": 1, "cap": 4, "entries": [{"fp": 1, "it": 0, "d": []}]}`, "no decisions"},
		{"duplicate fingerprint", `{"version": 1, "cap": 4, "entries": [
			{"fp": 1, "it": 0, "d": [{"k": "b"}]}, {"fp": 1, "it": 1, "d": [{"k": "b"}]}]}`, "duplicate fingerprint"},
		{"over capacity", `{"version": 1, "cap": 1, "entries": [
			{"fp": 1, "it": 0, "d": [{"k": "b"}]}, {"fp": 2, "it": 1, "d": [{"k": "b"}]}]}`, "exceed declared capacity"},
		{"unknown decision kind", `{"version": 1, "cap": 4, "entries": [{"fp": 1, "it": 0, "d": [{"k": "z"}]}]}`, "bad decision kind"},
		{"garbage", `{"version": `, "decoding corpus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeCorpus([]byte(c.data))
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q lacks %q", err, c.want)
			}
		})
	}
}

// TestPlanSize pins the position arithmetic shards and coordinators share.
func TestPlanSize(t *testing.T) {
	if got := PlanSize(Options{Scheduler: "random", Iterations: 100}); got != 100 {
		t.Fatalf("single-scheduler plan = %d, want 100", got)
	}
	if got := PlanSize(Options{Portfolio: []string{"random", "pct", "rr"}, Iterations: 100}); got != 300 {
		t.Fatalf("portfolio plan = %d, want 300", got)
	}
	if got := PlanSize(resolved(Options{})); got != 10000 {
		t.Fatalf("defaulted plan = %d, want 10000", got)
	}
}

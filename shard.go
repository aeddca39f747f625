package gostorm

import (
	"github.com/gostorm/gostorm/internal/core"
)

// This file is the public sharding surface of distributed exploration:
// the engine hook (ExploreShard) that runs a sub-range of a run's global
// schedule plan, plus the versioned codec of a feedback run's corpus. The
// gostormd coordinator and gostorm-agent fleet are built on exactly this
// surface; `systest -shard i/n` exposes it for by-hand sharding.

// Sharding types, re-exported from the engine as aliases (see gostorm.go
// for why aliases).
type (
	// Shard selects the sub-range [From, To) of the global schedule plan
	// an ExploreShard call owns, plus the cross-shard Stop bound. See
	// core.Shard for field documentation.
	Shard = core.Shard
	// ShardResult summarizes an ExploreShard call: the resolved prefix,
	// the winning bug (if any) with its global position, canonical
	// statistics, and the corpus candidates a feedback member recorded.
	ShardResult = core.ShardResult
	// CorpusCandidate is one corpus entry a shard merged, keyed by the
	// global position that recorded it.
	CorpusCandidate = core.CorpusCandidate
)

// CorpusVersion is the corpus serialization format version written by
// Corpus.Encode. Like traces, corpora are versioned so a reader fails
// loudly on a format it does not share.
const CorpusVersion = core.CorpusVersion

// PlanSize returns the number of global positions in the schedule plan a
// run of Explore under these options would cover — len(WithPortfolio's
// members) (or 1) times WithIterations, after defaulting. Shards
// partition [0, PlanSize); global position g belongs to portfolio member
// g % members at member-local iteration g / members.
func PlanSize(opts ...Option) (int64, error) {
	c, err := resolve(opts)
	if err != nil {
		return 0, err
	}
	o, err := c.opts.Resolve(Test{})
	if err != nil {
		return 0, err
	}
	return core.PlanSize(o), nil
}

// ExploreShard explores the global positions [sh.From, sh.To) of the
// schedule plan Explore(t, opts...) would run. The options carry the full
// plan (seed, budget, scheduler or portfolio); the shard selects the
// owned slice of it.
//
// Determinism contract: every position's outcome is a pure function of
// the position, so for any partition of [0, PlanSize) into shards — run
// in any order, in any mix of processes and worker counts — the lowest
// ShardResult.BugPos across the partition identifies a winner whose
// member, iteration, and encoded trace bytes are bit-identical to the
// bug Explore reports.
//
// A shard that holds positions of an adaptive member (pct, delay) but not
// its iteration 0 re-runs that execution first, for the member's length
// estimate; the execution counts in the statistics of the shard that owns
// it, so the sums over a partition are Explore's. A feedback scheduler
// (mutational) splices the corpus the plan's earlier positions built, so a
// plan with one runs whole: a proper sub-range of it is rejected with a
// *ConfigError.
func ExploreShard(t Test, sh Shard, opts ...Option) (ShardResult, error) {
	c, err := resolve(opts)
	if err != nil {
		return ShardResult{}, err
	}
	return core.ExploreShard(t, c.opts, sh)
}

// DecodeCorpus parses a corpus previously produced by Corpus.Encode.
// Decoding is strict, like DecodeTrace: an unknown version, a malformed
// decision, an empty decision sequence, or a duplicate fingerprint are
// all errors — a corpus that cannot be fully understood cannot be
// faithfully mutated.
func DecodeCorpus(data []byte) (*Corpus, error) { return core.DecodeCorpus(data) }

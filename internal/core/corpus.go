package core

import (
	"encoding/json"
	"fmt"
)

// This file is the exploration corpus: the bounded set of "interesting"
// trace prefixes that coverage-guided (feedback) schedulers mutate. An
// execution is interesting when its coverage fingerprint (Runtime.cov —
// the incremental hash of event deliveries and monitor-state transitions)
// has not been seen before: it witnessed a behaviorally new schedule, so
// its decision sequence is worth replaying and perturbing.
//
// Determinism contract. The corpus is shared mutable state between
// exploration workers, which would normally break the engine's
// bit-identical-at-any-worker-count guarantee. The feedback exploration
// paths therefore evolve it in fixed-size generations (feedbackRoundSize
// iterations, a constant independent of the worker count): within a
// generation the corpus is frozen — schedulers only read it — and
// candidates recorded by the generation's executions are merged at the
// barrier in canonical iteration order. The corpus state any iteration
// observes is thus a pure function of (seed, iteration), never of how the
// engine's workers happened to interleave.

// defaultCorpusSize is the capacity of an exploration corpus: the first 64
// novel coverage fingerprints, in canonical iteration order, have their
// decision sequences recorded for mutation.
const defaultCorpusSize = 64

// feedbackRoundSize is the number of iterations per corpus generation.
// It is a fixed constant — NOT derived from the worker count — because
// the corpus snapshot an iteration runs against is part of the
// determinism contract: iteration i always observes the corpus as of
// generation i/feedbackRoundSize, whatever the parallelism.
const feedbackRoundSize = 64

// CorpusCandidate is one corpus entry: a recorded execution's coverage
// fingerprint, the global plan position that produced it (iteration i of
// member m sits at i*nm + m, so in a portfolio the position is not the
// iteration), and its full decision sequence in the versioned trace format
// (the same []Decision a Trace carries), ready for prefix splicing. A shard
// reports its corpus as these (ShardResult.Candidates), in insertion order;
// Corpus.Add of them in order rebuilds it. Its JSON form uses the trace's
// decision encoding.
type CorpusCandidate struct {
	Fingerprint uint64 `json:"fp"`
	// Position is the global position of the execution that recorded the
	// entry.
	Position int64 `json:"pos"`
	// Decisions is the execution's decision sequence.
	Decisions []Decision `json:"d"`
}

// Corpus is the bounded, deterministically evolved set of interesting
// trace prefixes a feedback scheduler (see FeedbackScheduler) mutates. The engine owns the corpus and merges new entries only at
// generation barriers; schedulers receive it via
// FeedbackScheduler.AttachCorpus and must treat it as read-only.
type Corpus struct {
	cap     int
	entries []CorpusCandidate
	seen    map[uint64]bool
}

// NewCorpus returns an empty corpus with the given capacity (<= 0 means
// the default) — the engine's, and the one a caller rebuilds a shard's
// corpus from its candidates in.
func NewCorpus(cap int) *Corpus {
	if cap <= 0 {
		cap = defaultCorpusSize
	}
	return &Corpus{cap: cap, seen: make(map[uint64]bool, cap)}
}

// Len returns the number of recorded entries.
func (c *Corpus) Len() int { return len(c.entries) }

// Entry returns entry i's coverage fingerprint and decision sequence.
// The slice is owned by the corpus: callers (schedulers) must not mutate
// it — replay a prefix of it and diverge from there.
func (c *Corpus) Entry(i int) (fingerprint uint64, decisions []Decision) {
	e := c.entries[i]
	return e.Fingerprint, e.Decisions
}

// Fingerprints returns the recorded fingerprints in insertion order —
// the canonical summary the determinism tests compare across worker
// counts (Result.Corpus).
func (c *Corpus) Fingerprints() []uint64 {
	fps := make([]uint64, len(c.entries))
	for i, e := range c.entries {
		fps[i] = e.Fingerprint
	}
	return fps
}

// has reports whether a fingerprint is already recorded.
func (c *Corpus) has(fp uint64) bool { return c.seen[fp] }

// full reports that the corpus is at capacity. A full corpus accepts no
// further entries: the first cap novel behaviors (in canonical iteration
// order) win, which keeps eviction trivially deterministic.
func (c *Corpus) full() bool { return len(c.entries) >= c.cap }

// Add records an entry, refusing duplicates, empty decision sequences and
// capacity overflow, and reports whether it was admitted. Within the engine
// only generation barriers call it.
func (c *Corpus) Add(fp uint64, position int, decisions []Decision) bool {
	if c.full() || c.seen[fp] || len(decisions) == 0 {
		return false
	}
	c.seen[fp] = true
	c.entries = append(c.entries, CorpusCandidate{Fingerprint: fp, Position: int64(position), Decisions: decisions})
	return true
}

// CorpusVersion is the corpus serialization format version written by
// Encode. Like traces, corpora are versioned so a reader fails loudly on a
// format it does not share.
const CorpusVersion = 1

// corpusJSON is the wire form of a corpus; entries reuse the versioned
// Decision encoding traces use.
type corpusJSON struct {
	Version int               `json:"version"`
	Cap     int               `json:"cap"`
	Entries []corpusEntryJSON `json:"entries"`
}

// corpusEntryJSON keeps the "it" key the format was first written with;
// it holds the entry's global plan position.
type corpusEntryJSON struct {
	Fingerprint uint64     `json:"fp"`
	Position    int64      `json:"it"`
	Decisions   []Decision `json:"d"`
}

// Encode serializes the corpus — capacity, entries in canonical insertion
// order, each with its fingerprint, the global plan position that recorded
// it, and full decision sequence.
func (c *Corpus) Encode() ([]byte, error) {
	out := corpusJSON{Version: CorpusVersion, Cap: c.cap, Entries: make([]corpusEntryJSON, len(c.entries))}
	for i, e := range c.entries {
		out.Entries[i] = corpusEntryJSON{Fingerprint: e.Fingerprint, Position: e.Position, Decisions: e.Decisions}
	}
	return json.Marshal(&out)
}

// DecodeCorpus parses a corpus previously produced by Encode. Decoding is
// strict, like DecodeTrace: an unknown version, a malformed or unknown
// decision kind, an empty decision sequence, or a duplicate fingerprint
// are all errors — a corpus that cannot be fully understood cannot be
// faithfully mutated.
func DecodeCorpus(data []byte) (*Corpus, error) {
	var in corpusJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: decoding corpus: %w", err)
	}
	if in.Version < 1 || in.Version > CorpusVersion {
		return nil, fmt.Errorf("core: decoding corpus: unknown corpus version %d (this build understands 1..%d)",
			in.Version, CorpusVersion)
	}
	cap := in.Cap
	if cap <= 0 {
		cap = defaultCorpusSize
	}
	if len(in.Entries) > cap {
		return nil, fmt.Errorf("core: decoding corpus: %d entries exceed declared capacity %d", len(in.Entries), cap)
	}
	c := NewCorpus(cap)
	for i, e := range in.Entries {
		if len(e.Decisions) == 0 {
			return nil, fmt.Errorf("core: decoding corpus: entry %d has no decisions", i)
		}
		if c.seen[e.Fingerprint] {
			return nil, fmt.Errorf("core: decoding corpus: duplicate fingerprint %#x at entry %d", e.Fingerprint, i)
		}
		c.Add(e.Fingerprint, int(e.Position), e.Decisions)
	}
	return c, nil
}

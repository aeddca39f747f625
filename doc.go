// Package gostorm is a Go reproduction of "Uncovering Bugs in Distributed
// Storage Systems during Testing (not in Production!)" (Deligiannis et
// al., FAST 2016): a P#-style systematic testing runtime for distributed
// systems modeled as communicating state machines, together with the
// paper's three case-study systems — the Azure Storage vNext extent
// manager, Live Table Migration (MigratingTable), and an Azure Service
// Fabric replica-management model — their test harnesses, seeded bugs,
// and the benchmark harnesses that regenerate the paper's tables.
//
// # Quickstart
//
// Model your system as Machines exchanging Events through a Context,
// declare correctness as monitors or inline assertions, and hand the
// Test to Explore:
//
//	test := gostorm.Test{
//		Name: "lost-update",
//		Entry: func(ctx *gostorm.Context) {
//			store := ctx.CreateMachine(&register{}, "register")
//			ctx.CreateMachine(&incrementer{store: store}, "inc0")
//			ctx.CreateMachine(&incrementer{store: store}, "inc1")
//		},
//	}
//	res, err := gostorm.Explore(test,
//		gostorm.WithSeed(1),
//		gostorm.WithIterations(10000),
//	)
//
// Explore is the single entry point: it repeatedly executes the harness,
// each time under a different schedule, until a safety or liveness
// violation is found or the budget is spent — fully automatic, no
// false positives, every bug witnessed by a Trace that Replay reproduces
// decision for decision. Functional options configure the run:
// WithScheduler picks a strategy ("random", "pct", "rr", "delay",
// "mutational"), WithPortfolio races several at once, WithFaults sets the
// fault-injection budget, WithWorkers the parallelism, and so on; a bad
// value comes back as a typed *ConfigError, never a panic.
//
// The bundled case studies are reachable through the same surface:
// Scenarios lists them, ScenarioByName builds one, and a scenario's
// recommended options layer under caller overrides
// (append(sc.Options(), gostorm.WithSeed(7))). The examples/ programs
// import only this package — they are the proof that the API boundary
// is real.
//
// # Configuration
//
// What a run can be told is listed once: the engine's options struct,
// which Config names publicly. Each With* option sets one of its fields;
// one engine function — the first act of Explore, ExploreShard and Replay,
// and all there is to Resolve and PlanSize — checks the bounds, the fault
// budgets and every scheduler name against the registry, and fills in the
// defaults (random scheduler, 10,000 executions of up to 10,000 steps,
// one worker per CPU; a hot execution may run to twice the bound, see
// Liveness). A run states its fault budget once, or not at all: unset,
// it is the test's declared one. Resolve returns the result without
// running anything, so a banner or a dashboard shows what Explore will do
// by construction. The
// same struct, through its JSON tags, is the plan a distributed
// coordinator publishes to its agents.
//
// # The exploration loop
//
// The engine is one idea — run the harness again under the next schedule
// until a violation or the budget — and it is written once. A run's
// schedule plan is PlanSize(opts) global positions: with nm members (one
// for WithScheduler, len(members) for WithPortfolio), member m's
// iteration i sits at position i*nm + m, so a portfolio interleaves its
// members round-robin. The schedule explored at a position is a pure
// function of (seed, m, i). Explore drains the range [0, PlanSize) and
// ExploreShard any sub-range of it, through the same loop:
//
//   - Claiming. One pool of WithWorkers goroutines claims positions from
//     one counter; every worker serves every member, with its own
//     scheduler instance per member and its own execution pool.
//   - First bug wins. The pruning bound is the lowest buggy position seen
//     so far. Workers refuse to start, and abort in flight, positions at
//     or beyond it and always finish lower ones, so the reported bug is
//     the first in plan order — lowest iteration, ties broken by member
//     order — at any worker count.
//   - Calibration. Adaptive schedulers — pct, delay, and any whose
//     instances implement LengthHinted — place their probes (two per
//     execution for pct and delay, the paper's configuration) within an
//     estimate of the program length. Their iteration 0 runs
//     first, alone, and its observed step count is pinned on every
//     instance of the member; an instance carries nothing from one
//     execution to the next, so its decisions are pure functions of the
//     iteration seed and the pinned estimate. The pinned estimate also
//     starts the runtime's fair tail (see Liveness).
//   - Windows. With a feedback member (mutational) the range is drained
//     in fixed-size generation windows with the corpus frozen inside a
//     window and merged, in position order, at the barrier between two;
//     without one the whole range is a single window.
//   - Whole plans. A feedback member ties each position to the corpus
//     every earlier position built, so a plan with one runs whole:
//     ExploreShard refuses a proper sub-range of it, and the distributed
//     coordinator refuses the plan.
//   - Statistics. Executions, TotalSteps and the per-member Portfolio
//     statistics are folded in position order as positions resolve, over
//     the contiguous resolved prefix up to the winning position: exactly
//     what a one-worker run performs before it stops.
//     A position resolved ahead of the prefix waits until the gap below it
//     closes, so bookkeeping grows with that out-of-order span, not with
//     the executions done: nothing on one worker, a few positions per
//     worker in flight on several, at most a window with a feedback
//     member.
//
// # Liveness
//
// An execution that ends with a monitor hot is a liveness bug, and so, by
// the paper's heuristic, is one still hot after the step bound: it is
// treated as infinite. That holds only under a fair schedule, which pct
// and delay are not. So the runtime, whatever the scheduler, ends an
// execution in a uniform tail (P#'s unfair prefix, fair suffix) once it
// outlives eight pinned length estimates, fault choices counted as steps,
// or reaches the bound with a monitor hot. Tail choices are recorded like
// any other and drawn from the member's own seeded stream, else from one
// seeded by the execution (so a scheduler with no stream, like the test
// suite's exhaustive dfs oracle, takes the tail for a leaf). Past the
// bound the execution ends clean the first step no monitor is hot and
// reports if one still is at twice the bound, which none runs past.
//
// # Determinism contract
//
// A run is reproducible down to the bit, at any worker count, from its
// seed and option set. The loop above is why: which goroutine runs a
// position is irrelevant to what it explores, the winning (member,
// iteration, trace) is decided by plan order, and the statistics count
// only positions a one-worker run would have reached. The loop reads the
// wall clock only to report elapsed time and takes no callback, so the
// outcome is a function of the plan, the range and a shard's Stop bound
// alone; a caller that must cut a run short lowers Stop. Pooling (see
// below) is semantically invisible, and every reported trace replays
// exactly, single-threaded.
//
// A seed's decision stream is math/rand's. Every built-in scheduler draws
// from the generator NewRand returns, whose output after Seed(s) equals
// rand.New(rand.NewSource(s))'s bit for bit — a differential test and a
// fuzz target hold it to the standard library. Only the seeding differs:
// the generator's 607-word state is produced as it is first read instead
// of being filled up front, so reseeding — once per execution — is O(1).
// Because the stream is the same, a seed means what it means under the
// stdlib source, and traces of versions 0–2, which store decisions and no
// generator state, replay under it.
//
// # Scheduler extension surface
//
// Exploration strategies are an open registry, not a hardcoded switch:
// RegisterScheduler adds a user-defined Scheduler under a name, which
// makes it valid for WithScheduler, eligible as a portfolio member with
// its own deterministic seeding, covered by the conformance matrix
// (VerifyScheduler runs the same checks the repository's tests apply to
// the built-ins), and — when its instances implement LengthHinted —
// calibrated by the engine exactly like pct and delay, with nothing to
// declare: registering takes only a name and a constructor.
// One interface resolves every kind of choice: a Scheduler answers a
// fault choice point through NextFault as it answers the others. There is
// no uniform fallback; a scheduler with no strategy for faults draws their
// outcomes uniformly itself. A scheduler that draws from a seeded
// generator should build it once with NewRand and call Seed in Prepare,
// which runs before every execution.
//
// The contract of a choice is the same for every kind. The runtime asks
// — NextMachine over the enabled set, NextBool, NextInt below n,
// NextFault over a FaultChoice's N outcomes — and checks the answer
// against what it offered before acting on it. An answer outside the
// range (or a machine that is not enabled) ends the execution with one
// safety violation that names the scheduler ("core: <name> scheduler:
// <what> outcome <v> out of [0, <n>)") and is attributed to the machine
// that presented the choice, never to the system under test; nothing is
// recorded after it. An answer in range is recorded as a Decision, and
// the Decision holds what the answer meant rather than its index: the
// crash victim, the DeliveryOutcome, the number of staged writes that
// survive. One mapping turns a live choice and an answer into the
// Decision and back, and both consumers of recorded decisions go through
// it: Replay treats a Decision that does not fit the live choice (another
// kind, another machine, a value outside the range now on offer) as a
// divergence; the mutational scheduler's splice abandons its prefix there
// and draws from its generator instead.
//
// # Coverage-guided exploration
//
// WithScheduler("mutational") selects the feedback strategy: classic
// mutational fuzzing transplanted to schedules. Every execution computes
// a cheap coverage fingerprint — an order-sensitive FNV-style hash mixed
// incrementally on the hot path at each event dequeue (machine, event
// name), each monitor notification, and each monitor hot/cold state
// transition; step numbers are deliberately excluded, so the fingerprint
// abstracts "which behavior happened" away from "exactly when". An
// execution whose fingerprint was never seen before witnessed a
// behaviorally new schedule, and its decision sequence (the same
// versioned format traces carry) enters a bounded corpus — the first 64
// novel behaviors, in canonical iteration order, win. The
// mutational scheduler replays a random prefix of a random corpus entry
// and re-randomizes everything after the cut (splicing is lenient: any
// mismatch with the live execution abandons the prefix), so an
// interleaving that drove the system into a rare state is reused as the
// starting point for finding the bug behind that state.
//
// Determinism is preserved. The corpus evolves in fixed-size generations
// (a constant number of iterations, independent of worker count, aligned
// to the plan rather than the budget): frozen within a generation, merged
// at the barrier in canonical iteration order. An execution's schedule is
// a function of (seed, iteration, corpus snapshot), and the snapshot one
// of the positions before it, so results — including Result.Corpus, the
// fingerprints of the final corpus — are bit-identical at every worker
// count, and a smaller budget explores the same schedules at the
// positions it reaches. The price is that such a plan runs whole (see
// the loop above). Reported traces replay exactly, as for every
// scheduler. In a portfolio, one feedback member gives the whole run
// generation windows and all members share one corpus: a random member
// that stumbles into a novel behavior seeds the prefixes the mutational
// member splices. A custom scheduler opts in by implementing
// FeedbackScheduler; the conformance matrix then also checks it with a
// synthetic corpus attached.
//
// # Fault plane
//
// Every classic fault of a distributed storage system is a first-class,
// scheduler-controlled choice point of the runtime rather than a
// harness-local RandomBool idiom:
//
//   - Timers: Context.StartTimer creates a nondeterministically firing
//     timer (the P# timer model); at every opportunity the scheduler
//     decides whether it fires, recorded as a DecisionTimer.
//     Context.StopTimer silences it. A timer is a machine to the
//     scheduler and the trace — it has a MachineID and is always enabled
//     — but it costs a scheduling step, not a stack: its step runs
//     inline on whichever stack reached the scheduling point that picked
//     it, so timer-driven harnesses pay no coroutine switch for it.
//   - Crash/restart: Context.CrashPoint offers the scheduler a crash of
//     one of the candidate machines (DecisionCrash); Context.Crash and
//     Context.Restart are the deterministic commands — an abrupt halt
//     that discards the inbox, and an in-place re-creation with fresh
//     state under the same MachineID. The shared FaultInjector machine
//     packages the common "crash one node at a scheduler-chosen moment"
//     scenario.
//   - Message faults: Context.SendUnreliable lets the scheduler drop or
//     duplicate a delivery (DecisionDeliver) on the modeled network.
//   - Durable storage: Context.Persist stages a durable write and
//     Context.Sync commits the staged writes crash-proof — see the
//     crash-consistency plane below.
//
// Budgets and determinism: faults are budgeted per execution by Faults
// {MaxCrashes, MaxDrops, MaxDuplicates, MaxTornCrashes} — a Test
// declares the budget its scenario is built for and WithFaults replaces it
// wholesale; the zero budget (WithNoFaults) turns the fault plane off
// (SendUnreliable becomes Send, CrashPoint declines, injectors halt). Every fault choice point builds a FaultChoice and
// passes it through one door of the runtime, which asks the scheduler,
// checks the answer and records a typed Decision (the contract under
// "Scheduler extension surface"), so buggy executions replay bit-exactly.
// A FaultChoice's Candidates, Outcomes and Keys are the runtime's scratch
// storage, reused by the next choice point: like NextMachine's enabled
// set, they are read-only and must not be retained past NextFault.
// Neither they nor the crash-consistency plane's staged writes allocate on
// a pooled runtime, and a Signal is a string, so a constant one — an
// injector's "offer", a timer's tick — boxes into an Event for free: a
// clean crash-plane execution makes garbage only where the harness does.
// Traces are versioned (TraceVersion) and each decision kind knows the
// version that introduced it: version-0 traces, which carry no fault
// decisions, still decode and replay, while an unknown version, an
// unknown kind or a kind newer than the trace declares is a strict decode
// error (the decoder is fuzzed, and so is the splice behind the corpus
// decoder). The trace also records the budget it ran under, so Replay
// needs no budget from the caller; a replay that ends clean with recorded
// decisions left over — a lowered step bound, another test's trace — is a
// divergence, not a clean run. The adaptive schedulers count fault points
// as steps, so a probe (pct's change point, delay's delay point) that
// lands on one is spent forcing a non-benign outcome; everywhere else,
// and under the other randomized schedulers, a fault outcome is uniform.
//
// # Crash-consistency plane
//
// Machine state has a volatile half — the machine struct, lost on Crash
// — and a durable half managed by the runtime. Context.Persist(key,
// value) stages a durable write; Context.Sync commits every staged write
// — the fsync barrier. Both are scheduling points, so a crash can land
// between a write and its barrier. Context.Recover hands the restarted
// incarnation (Context.Restart) the durable map its predecessor left
// behind; volatile state starts fresh, like a process restart.
//
// When a machine crashes holding staged, un-synced writes, the scheduler
// chooses the crash state of the disk: outcome k keeps the first k
// staged writes in Persist order — a bounded, prefix-based enumeration
// of crash states rather than the exponential subset space. The choice
// is a FaultPersist fault (Scheduler.NextFault), recorded as
// DecisionPersist so torn crash states replay bit-exactly; a trace that
// carries one is version 2. Outcome 0 (all staged writes lost) is always
// free; outcomes keeping a torn suffix are budgeted by
// Faults.MaxTornCrashes. Synced writes always survive, voluntary halts
// keep durable state but discard staged writes, and a workload that
// never calls Persist pays nothing and records no persist decisions,
// whatever the torn budget.
//
// The recovery-oracle pattern: a monitor tracks write intents and
// commits (notified around Persist and after Sync) and checks every
// recovery against them — everything committed must be recovered, and
// nothing may be recovered that was never written. internal/wal is the
// flagship (a write-ahead log whose seeded recovery bug trusts a torn,
// un-synced tail); the replsys DurableNodes and mtable CrashMigrator
// configurations route those harnesses through the same plane.
//
// # Distributed exploration
//
// A run's schedule plan — PlanSize(opts) global positions, position g
// belonging to portfolio member g % members at iteration g / members —
// is a pure function of the options, and every position's outcome is a
// pure function of the position. ExploreShard exploits that: it explores
// just the sub-range [From, To) of the plan, and for any partition of
// the plan into shards, run in any order across any mix of processes,
// the lowest ShardResult.BugPos identifies a winner whose member,
// iteration, and encoded trace bytes are bit-identical to what a
// single-process Explore reports. `systest -shard i/n` exposes the hook
// for by-hand sharding.
//
// cmd/gostormd and cmd/gostorm-agent build a full control plane on that
// surface. The coordinator owns the plan and serves a versioned
// HTTP+JSON protocol — POST /v1/join (protocol/scenario handshake),
// POST /v1/lease (pull-model work stealing: bounded position spans
// granted lowest-first), POST /v1/report (resolved prefix, statistics,
// bug), GET /v1/status, plus /healthz and Prometheus-style
// /metrics — and never executes the scenario itself. Agents are thin
// and stateless: join, pull a lease, run it through ExploreShard, report,
// repeat. The coordinator stores the resolved positions (one coalesced
// interval set), the live leases and the limit a reported bug lowers;
// what is pending is derived from those when an agent asks — the lowest
// positions below the limit neither resolved nor leased, cut at the next
// multiple of the lease size — so its cost follows the work resolved,
// never the size of the plan. The plan it publishes at join is the
// engine's options struct, whose JSON tags mark each field as travelling
// or machine-local; gostormd builds it from systest's own plan flags
// through Resolve, so `systest` with the same flags explores the same
// plan in one process. A report the plan cannot have produced is
// rejected before it changes anything. A report resolves the prefix the
// agent actually finished and the rest of its lease is pending again; a
// lease not reported within its TTL is re-issued, so agents may be killed
// at any moment. When a bug is
// reported the coordinator pushes a stop bound through lease grants and
// status polls so the fleet abandons positions above it, but the bug only
// wins once every position below it has been resolved — first-bug-wins
// is "lowest global position", not "first report to arrive". The coordinator
// cross-checks duplicate reports for the same position byte-for-byte
// and counts any divergence as a determinism violation.
//
// internal/dist keeps those jobs in three files. coordinator.go is the
// state machine: join, lease, report and status are methods that take the
// time and a request and return a response or an error, so everything the
// coordinator decides — admission, expiry, grants, what a report may claim,
// which report's statistics count, when the winner is final — runs from a
// test or a harness with a fabricated clock and no socket. protocol.go is
// the wire: the message types and one declaration per exchange of its
// method, path and framing, of which the coordinator mounts the serving
// half and the agent calls the other; /metrics renders the same snapshot
// /v1/status returns. agent.go is the agent's loop: leases, the retry
// policy, the poller that follows the stop bound. A shard's statistics
// cover its own range — a calibration execution re-run below From for its
// length hint belongs to the shard that owns the position — so the sums
// over first reports are Explore's Executions and TotalSteps at any fleet
// size.
//
// The resulting contract mirrors the worker-count contract, with no
// exception: for a fixed seed and plan, the winning (member, iteration,
// trace bytes) — and, on clean runs, the canonical execution statistics —
// are bit-identical whatever the fleet size, lease size, agent arrival
// order, or agent churn. A plan with a feedback member is refused, by the
// rule ExploreShard applies to a sub-range, because its positions cannot be
// explored a lease at a time.
//
// # Performance and pooling
//
// Repeated execution is the engine's fast path: bug probability is a
// function of schedules explored per unit time, so per-execution setup
// is schedules not explored. Four mechanisms carry the throughput; what
// each is worth is measured by the repository benchmark (BENCHMARK.json,
// bench/README.md), whose core.ns_per_step and core.step_floor_ns are the
// scheduling step and the switch floor under it.
//
// A stack exists while a handler is live. A machine's body is cut at its
// scheduling points, and the cuts are of two kinds. Inside a handler the
// machine holds user frames, so the handler runs on a coroutine pulled
// with iter.Pull, bound to the machine from the scheduling step that
// starts its Init or dequeues an event until the handler returns, halts
// or is unwound. Between handlers — never started, or waiting at the top
// of its event loop — it holds no frame and owns no stack. The goroutine
// exploring the execution is the hub. Whoever reaches a scheduling point
// runs the next scheduling-loop iteration on its own stack: a machine
// mid-handler that is picked again just carries on, and otherwise yields
// to the stack that resumed it. A stack whose handler just returned, or
// whose machine just died, is free: it runs the next iteration itself and,
// when the pick is also between handlers, runs its handler inline at no
// switch at all. A pick suspended mid-handler it resumes itself if the hub
// resumed it — it is then the trampoline, and the pick yields back to it —
// and otherwise it goes idle to the free list and yields up, so at most
// one trampoline is active and nesting stops at hub → trampoline →
// machine. The hub resumes the pick's coroutine, or arms an idle one with
// it, after a handler hands off mid-handler. Each resume is a next() round
// trip — two runtime coroutine switches and no pass through the Go
// scheduler (BenchmarkHandoffPrimitives in internal/core compares it with
// a channel wake + park; BenchmarkSenderLoop counts them per step), and a
// handoff costs at most one. Only a machine
// mid-handler has frames to unwind when it is crashed or the execution
// ends (its defers run); the others are scrubbed in place. Two kinds of
// machine are stepped inline, on whichever stack picked them, and never
// get a coroutine for it. The fault-plane timer's handlers are engine
// code cut into phases, so it never holds a frame. A handler that ends
// in Context.SendLast takes its last scheduling point after it has
// returned: the machine is parked, enabled and holding no stack, and the
// step that picks it moves it to the top of its event loop, at no
// coroutine resume and with every decision a Send there would make
// (BenchmarkTailSendLoop is BenchmarkSenderLoop with every send a
// SendLast: no resume at all). Coroutine
// switches are synchronous calls, so exactly one stack of a runtime runs
// at any instant and the worker free list, crash reaping and shutdown
// need no ordering argument. One side effect: handoffs do not yield to
// the Go scheduler, so exploration workers that outnumber Ps interleave
// by preemption rather than at every step; results are
// position-deterministic either way. Decisions are recorded into a
// packed word arena and materialized as trace structs once per
// execution, only for executions somebody will look at.
//
// Incremental enabled set. The schedulable set the scheduler picks from
// is maintained event-driven — patched when an enqueue, dequeue,
// receive, halt, crash or restart actually changes a machine's
// schedulability — instead of being recomputed by scanning every
// machine at every step, so step bookkeeping is O(changes) and machines
// blocked in Receive cost nothing per step (BenchmarkEnabledSet in
// internal/core pins this: ns/step does not grow with the blocked-machine
// count). The `enabledcheck` build tag compiles in a per-step cross-check
// against a from-scratch rebuild that panics on any divergence.
//
// O(1) reseed. Every scheduler's Prepare reseeds its generator, and
// math/rand's Seed fills 607 state words through 1,841 sequential steps
// of a Lehmer chain — longer than a short execution. The schedulers'
// generator (NewRand) keeps the stream and makes the seeding lazy: the
// chain jumps ahead, so any word is three independent modular
// multiplications, and the generator first touches its words in a fixed
// order, so Seed stores the seed and the first 334 draws each produce the
// one or two words they are about to read (BenchmarkSchedulerPrepare in
// internal/core times Prepare + 32 decisions per scheduler).
//
// Pooling. Each exploration worker recycles its execution state through
// a runtime pool instead of rebuilding it per iteration — runtimes reset
// in place (machines scrub themselves at death, so a reset is O(1) in
// the machine count), machine structs and inboxes are recycled,
// coroutines idle on a free list between handlers, the decision arena
// is pre-sized to the step bound, and log arguments are only materialized
// when a log is collected (Context.Logging lets harnesses guard their own
// expensive descriptions the same way).
//
// The reuse contract: pooling is semantically invisible. For a fixed
// seed the results, encoded traces, winner attribution and statistics
// are bit-identical with pooling on and off, at every worker count —
// enforced by the pooling determinism tests. WithNoReuse disables reuse
// as a debugging escape hatch. The replay log is bounded at 100,000 lines
// an execution.
//
// # API stability
//
// The exported surface of this package, down to the fields of the structs
// it aliases from the engine, is locked by a golden file (api.txt) checked
// in CI. README.md has the package tour and the CLIs,
// CHANGES.md the measured history, ROADMAP.md the open items.
package gostorm

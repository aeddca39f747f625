package core

import "iter"

// This file is the pooled execution engine: the machinery that makes
// *repeated* execution — the unit systematic testing is made of — the fast
// path. A fresh Runtime per execution spends its time on setup: a coroutine
// per machine, a new decisions slice, inbox slices, monitor tables. The
// pool recycles all of it per exploration worker, so a steady-state
// execution performs near-zero heap allocations outside the user's own
// machine code:
//
//   - the Runtime itself is reset in place (Runtime.reset) instead of
//     reallocated: the decision arena, enabled buffer, pending-crash list,
//     fault-choice scratch, persist arena, log and monitor tables keep
//     their storage, fault counters and flags rewind;
//   - machine structs and their inbox buffers are recycled through
//     Runtime.machineCache;
//   - coroutines are recycled through machineWorker: a stack is needed only
//     while a handler is live (see Runtime), so a worker whose handler
//     returned hosts whatever is picked next, resumes a pick suspended
//     mid-handler itself when the hub resumed it, and otherwise goes idle
//     on the free list instead of exiting; the next arming re-uses it —
//     within the same execution or the next one.
//
// Pools never cross exploration workers: the exploration paths build one
// execPool per worker goroutine, exactly like scheduler instances, so the
// race detector can keep proving no execution state is shared. Results are
// bit-identical with pooling on and off (Options.NoReuse is the escape
// hatch: no coroutine survives the execution); the pooling determinism
// tests enforce it trace-byte for trace-byte.
//
// The free list (Runtime.freeWorkers) is plain unsynchronized storage,
// like everything else on the Runtime. That needs no ordering argument:
// workers are coroutines resumed by synchronous next() calls — from the hub
// (Runtime.runLoop), from a free worker the hub resumed (the trampoline,
// Runtime.host) or from a reaper — so exactly one stack of a runtime runs
// at any instant and every access is in program order.

// execPool recycles one exploration worker's execution state. The zero
// value is not useful — use newExecPool; a nil pool means "no reuse" and
// hands out a fresh Runtime per execution.
type execPool struct {
	rt *Runtime
}

// newExecPool returns a pool for one exploration worker, or nil when the
// options disable reuse (a nil pool is valid and simply never recycles).
func newExecPool(o Options) *execPool {
	if o.NoReuse {
		return nil
	}
	return &execPool{}
}

// runtime returns a Runtime ready to execute under sched/cfg: the pool's
// recycled one when available, a fresh one otherwise.
func (p *execPool) runtime(sched Scheduler, cfg runtimeConfig) *Runtime {
	if p == nil {
		return newRuntime(sched, cfg)
	}
	if p.rt == nil {
		p.rt = newRuntime(sched, cfg)
		p.rt.reuse = true
		return p.rt
	}
	p.rt.reset(sched, cfg)
	return p.rt
}

// release stops every pooled machine coroutine. After release the pool's
// runtime owns no goroutines; the worker must not use the pool again. Safe
// on a nil or unused pool.
func (p *execPool) release() {
	if p == nil || p.rt == nil {
		return
	}
	p.rt.stopWorkers()
	p.rt = nil
}

// machineWorker is a coroutine that hosts handlers, one at a time: a
// sequence pulled with iter.Pull whose next() resumes the body and whose
// yield suspends it, both plain runtime coroutine switches. m is the machine
// whose handler the stack holds (m.w points back), nil between handlers.
// The hub arms an idle worker by setting m and calling next(); a handler
// yields from its scheduling points (Runtime.yieldPoint) to whichever stack
// resumed it; a worker with nothing left to host (Runtime.host) yields idle,
// on the free list, until re-armed or stopped. top records that the hub made
// the latest resume (switchTo sets it, a trampoline clears it on the worker
// it resumes): only such a worker may trampoline once its stack is free.
type machineWorker struct {
	r     *Runtime
	m     *machine
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	top   bool
}

func (w *machineWorker) body(yield func(struct{}) bool) {
	w.yield = yield
	for {
		for w.r.host(w) {
		}
		if !yield(struct{}{}) {
			return
		}
	}
}

// getWorker returns an idle worker, creating a coroutine only when the free
// list is empty: more handlers are suspended at once than ever before on
// this runtime.
func (r *Runtime) getWorker() *machineWorker {
	if n := len(r.freeWorkers); n > 0 {
		w := r.freeWorkers[n-1]
		r.freeWorkers = r.freeWorkers[:n-1]
		return w
	}
	w := &machineWorker{r: r}
	w.next, w.stop = iter.Pull(w.body)
	return w
}

// putWorker returns a worker to the free list. Called on the worker's own
// stack when it has nothing left to host; it is idle once that stack yields,
// which is the very next thing it does.
func (r *Runtime) putWorker(w *machineWorker) {
	r.freeWorkers = append(r.freeWorkers, w)
}

// stopWorkers ends every idle coroutine. Only called from the hub after
// shutdown, when every worker is idle: a trampoline leaves its loop before
// the hub regains control, so none is left inside one.
func (r *Runtime) stopWorkers() {
	for _, w := range r.freeWorkers {
		w.stop()
	}
	r.freeWorkers = nil
}

// reset readies the runtime for an execution under sched/cfg: a zero
// Runtime's first (newRuntime), or a pooled one's next, recycling every
// piece of per-execution storage. On a used runtime it must only run after
// execute returned: at that point shutdown has reaped every machine and
// every worker is idle on the free list, so no stack of the previous
// execution can observe the rewind.
func (r *Runtime) reset(sched Scheduler, cfg runtimeConfig) {
	r.sched = sched
	// No per-machine rewind: every machine is already clean — a machine
	// dying mid-handler is scrubbed as it unwinds (unwound), reapCrashes
	// and shutdown do the same for those with no stack, so by the time
	// execute has returned, each struct holds only status (Halted),
	// epos (-1), and recyclable storage (inbox buffer, name).
	// createMachine re-arms the rest when the struct is handed out again.
	if enabledCrossCheckBuild {
		for _, m := range r.machines {
			if m.status != statusHalted || m.queue.size() != 0 ||
				m.recvPred != nil || m.crashed || m.parked || m.halting || m.impl != nil || m.w != nil ||
				m.defr != nil || m.tm.tick != nil || m.epos != -1 || m.persistState() {
				panic("core: reset found a machine not scrubbed at death: " + m.label())
			}
		}
	}
	r.machineCache = append(r.machineCache, r.machines...)
	r.machines = r.machines[:0]
	// Monitor entries are recycled as-is: addMonitor overwrites mon, name
	// and the whole MonitorContext before the entry is reachable again.
	r.monCache = append(r.monCache, r.monitors...)
	r.monitors = r.monitors[:0]
	r.enabled = r.enabled[:0]

	r.runtimeConfig = cfg
	r.current = NoMachine
	r.killed = false
	r.steps = 0
	r.tailAt, r.limit = 0, cfg.maxSteps
	if cfg.lengthHint >= minEstimate {
		r.tailAt = fairTailFactor * cfg.lengthHint
		r.limit = min(r.limit, r.tailAt)
	}
	r.dec.reset()
	r.cov = covBasis
	r.bug = nil
	r.crashes, r.drops, r.dups, r.tornCrashes = 0, 0, 0, 0
	r.pendingCrash = r.pendingCrash[:0]
	r.persistArena = r.persistArena[:0]
	r.divergence = nil
	r.logBuf, r.logEnds = r.logBuf[:0], r.logEnds[:0]
	r.aborted = false
}

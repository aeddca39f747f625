package fabric

import (
	"maps"
	"sort"

	"github.com/gostorm/gostorm/internal/core"
)

// replicaMachine hosts one Service replica. The replica layer implements:
//
//   - primary request processing with write-quorum gating: a client
//     operation is applied and acknowledged only once primary + enough
//     secondaries hold it;
//   - replication to active secondaries (and to idle secondaries that are
//     catching up, which buffer until their snapshot arrives);
//   - at-most-once semantics per client (retries after failover return
//     the stored result instead of re-applying); and
//   - state copy for fresh secondaries.
type replicaMachine struct {
	fm  core.MachineID
	svc Service

	role    Role
	epoch   int64
	applied int64
	dedup   map[core.MachineID]dedupEntry
	quorum  int
	// stashRep buffers live replication received while idle (catching
	// up); it is applied once the state copy arrives.
	stashRep []replicate

	// Primary-only state.
	actives []core.MachineID
	copying []core.MachineID
	// copySent records, per catching-up secondary, the applied sequence
	// number included in the snapshot it was sent: once promoted, that
	// secondary holds every operation up to it.
	copySent map[core.MachineID]int64
	pending  []*pendingOp
	stash    []clientReq
	nextSeq  int64
}

// pendingOp tracks one in-flight client operation on the primary.
type pendingOp struct {
	seq    int64
	req    clientReq
	result any
	acks   map[core.MachineID]bool
	acked  bool
}

func newReplicaMachine(fm core.MachineID, svc Service, quorum int) *replicaMachine {
	return &replicaMachine{fm: fm, svc: svc, quorum: quorum, dedup: make(map[core.MachineID]dedupEntry)}
}

func (r *replicaMachine) Init(*core.Context) {}

func (r *replicaMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case becomePrimary:
		if e.Epoch < r.epoch {
			return
		}
		r.epoch = e.Epoch
		r.role = RolePrimary
		// Both promotions demote every other replica: none is active yet.
		r.actives = nil
		r.copying = nil
		r.copySent = make(map[core.MachineID]int64)
		r.pending = nil
		r.stashRep = nil
		r.nextSeq = r.applied
		// Serve any client requests that raced the role installation.
		r.drainStash(ctx)
	case becomeIdle:
		if e.Epoch < r.epoch {
			return
		}
		r.epoch = e.Epoch
		r.role = RoleIdle
		r.svc.Restore(nil)
		r.applied = 0
		r.dedup = make(map[core.MachineID]dedupEntry)
		r.actives, r.copying, r.pending, r.stash = nil, nil, nil, nil
		r.copySent = nil
		r.stashRep = nil
	case sendCopy:
		r.handleSendCopy(ctx, e)
	case copyState:
		r.handleCopyState(ctx, e)
	case updateActives:
		if e.Epoch != r.epoch || r.role != RolePrimary {
			return
		}
		r.actives = append([]core.MachineID(nil), e.Actives...)
		// A promoted secondary holds everything up to the snapshot it was
		// copied from (later operations it acknowledged individually).
		for _, id := range r.actives {
			if cs, ok := r.copySent[id]; ok {
				for _, op := range r.pending {
					if op.seq <= cs {
						op.acks[id] = true
					}
				}
			}
		}
		r.reapPending(ctx)
		r.drainStash(ctx)
	case clientReq:
		r.handleClientReq(ctx, e)
	case replicate:
		r.handleReplicate(ctx, e)
	case replicateAck:
		r.handleReplicateAck(ctx, e)
	}
}

// handleSendCopy (primary) snapshots the state and ships it to the idle
// secondary; from now on the secondary also receives live replication,
// which it buffers until the snapshot arrives.
func (r *replicaMachine) handleSendCopy(ctx *core.Context, e sendCopy) {
	if e.Epoch != r.epoch || r.role != RolePrimary {
		return
	}
	// A copy, so the message does not alias live state; the order a map is
	// built in cannot show.
	ctx.SendLast(e.To, copyState{
		Epoch:    r.epoch,
		Snapshot: r.svc.Snapshot(),
		Applied:  r.applied,
		Dedup:    maps.Clone(r.dedup),
	})
	r.copying = append(r.copying, e.To)
	if r.copySent == nil {
		r.copySent = make(map[core.MachineID]int64)
	}
	r.copySent[e.To] = r.applied
}

// handleCopyState (idle secondary) restores the snapshot, applies any
// buffered replicated operations beyond it, and reports caught up.
func (r *replicaMachine) handleCopyState(ctx *core.Context, e copyState) {
	if e.Epoch != r.epoch || r.role != RoleIdle {
		// A stale copy (older epoch, or this replica has since been
		// elected primary) must be ignored; restoring it would clobber
		// live state.
		return
	}
	r.svc.Restore(e.Snapshot)
	r.applied = e.Applied
	// Made, not cloned, so it is non-nil for the writes to come; the order
	// a map is built in cannot show.
	r.dedup = make(map[core.MachineID]dedupEntry, len(e.Dedup))
	maps.Copy(r.dedup, e.Dedup)
	// Apply buffered live replication beyond the snapshot.
	sort.Slice(r.stashRep, func(i, j int) bool { return r.stashRep[i].Seq < r.stashRep[j].Seq })
	for _, rep := range r.stashRep {
		if rep.Epoch != r.epoch {
			continue // stale buffered replication from an earlier role
		}
		if rep.Seq > r.applied {
			r.applyReplicated(rep)
		}
		ctx.Send(r.primaryOf(rep), replicateAck{From: ctx.ID(), Epoch: rep.Epoch, Seq: rep.Seq})
	}
	r.stashRep = nil
	// The replica is caught up: it starts applying live replication as an
	// active secondary immediately, and notifies the failover manager,
	// whose promote step updates the placement view (and carries the
	// model's promotion assertion).
	r.role = RoleActive
	ctx.SendLast(r.fm, caughtUp{From: ctx.ID(), Epoch: r.epoch})
}

// handleClientReq (primary) deduplicates, assigns a sequence number, and
// replicates; the request is acknowledged once the quorum holds it.
func (r *replicaMachine) handleClientReq(ctx *core.Context, e clientReq) {
	if r.role != RolePrimary {
		// Either a stale client view, or the client's request raced this
		// replica's pending BecomePrimary. Stash it: if the promotion
		// arrives the request is served; if not, the client re-sends to
		// the real primary on the next view change and this copy ages out
		// harmlessly (deduplication absorbs any double delivery).
		r.stash = append(r.stash, e)
		return
	}
	if d, ok := r.dedup[e.Client]; ok && e.CSeq <= d.Seq {
		if e.CSeq == d.Seq {
			ctx.Send(e.Client, clientResp{CSeq: e.CSeq, Result: d.Result})
		}
		return
	}
	// Quorum gating: defer processing until enough replicas can hold the
	// operation.
	if 1+len(r.actives)+len(r.copying) < r.quorumNeed() {
		r.stash = append(r.stash, e)
		return
	}
	r.processClientReq(ctx, e)
}

// quorumNeed is the configured write quorum (default 2).
func (r *replicaMachine) quorumNeed() int {
	if r.quorum > 0 {
		return r.quorum
	}
	return 2
}

func (r *replicaMachine) processClientReq(ctx *core.Context, e clientReq) {
	r.nextSeq++
	result := r.svc.Apply(e.Op)
	r.applied = r.nextSeq
	r.dedup[e.Client] = dedupEntry{Seq: e.CSeq, Result: result}
	op := &pendingOp{seq: r.nextSeq, req: e, result: result, acks: make(map[core.MachineID]bool)}
	r.pending = append(r.pending, op)
	for _, id := range r.targets() {
		ctx.Send(id, replicate{Epoch: r.epoch, Seq: op.seq, Client: e.Client, CSeq: e.CSeq, Op: e.Op, Result: result, Primary: ctx.ID()})
	}
	r.reapPending(ctx)
}

// targets returns every replica the primary replicates to (actives plus
// catching-up secondaries), deduplicated, in deterministic order.
func (r *replicaMachine) targets() []core.MachineID {
	seen := map[core.MachineID]bool{}
	var out []core.MachineID
	for _, id := range append(append([]core.MachineID(nil), r.actives...), r.copying...) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// handleReplicate (secondary) applies or buffers a replicated operation.
func (r *replicaMachine) handleReplicate(ctx *core.Context, e replicate) {
	if e.Epoch != r.epoch {
		return
	}
	switch r.role {
	case RoleActive:
		if e.Seq > r.applied {
			r.applyReplicated(e)
		}
		ctx.SendLast(r.primaryOf(e), replicateAck{From: ctx.ID(), Epoch: e.Epoch, Seq: e.Seq})
	case RoleIdle:
		// Buffer until the state copy arrives.
		r.stashRep = append(r.stashRep, e)
	default:
		// A primary ignores stale replication.
	}
}

// applyReplicated applies one replicated operation and its dedup record.
func (r *replicaMachine) applyReplicated(e replicate) {
	r.svc.Apply(e.Op)
	r.applied = e.Seq
	r.dedup[e.Client] = dedupEntry{Seq: e.CSeq, Result: e.Result}
}

// handleReplicateAck (primary) collects acknowledgements and answers the
// client at quorum.
func (r *replicaMachine) handleReplicateAck(ctx *core.Context, e replicateAck) {
	if e.Epoch != r.epoch || r.role != RolePrimary {
		return
	}
	for _, op := range r.pending {
		if op.seq == e.Seq {
			op.acks[e.From] = true
		}
	}
	r.reapPending(ctx)
}

// reapPending acknowledges every pending operation that reached quorum.
func (r *replicaMachine) reapPending(ctx *core.Context) {
	for _, op := range r.pending {
		if op.acked {
			continue
		}
		holders := 1 + len(op.acks) // the primary itself plus ack senders
		if holders >= r.quorumNeed() {
			op.acked = true
			ctx.Send(op.req.Client, clientResp{CSeq: op.req.CSeq, Result: op.result})
		}
	}
}

// drainStash retries quorum-deferred requests.
func (r *replicaMachine) drainStash(ctx *core.Context) {
	stash := r.stash
	r.stash = nil
	for _, e := range stash {
		r.handleClientReq(ctx, e)
	}
}

// primaryOf returns the ack destination for a replicated op. Replication
// always originates at the current primary; the replica does not track its
// identity separately, so acks go back to the sender recorded in the
// event.
func (r *replicaMachine) primaryOf(e replicate) core.MachineID { return e.Primary }

// Package fabric models the replica-management layer of Azure Service
// Fabric as described in §5 of the paper: a failover manager keeps a
// target number of replicas of a user service alive; one replica is the
// primary serving client requests and forwarding state mutations to the
// active secondaries; on primary failure a secondary is elected, and fresh
// secondaries catch up by receiving a state copy before being promoted to
// active.
//
// As in the paper, the model itself is the artifact: it captures all of
// the platform's asynchrony in runtime-controlled machines so user
// services built on it (counter.go, pipeline.go) can be tested
// systematically — and the model carries its own specification assertion,
// "only a secondary can be promoted to an active secondary", which the
// seeded §5 bug (Config.BugUncheckedPromotion) violates when the primary
// fails while a new secondary's state copy is in flight.
package fabric

import (
	"fmt"
	"maps"
	"slices"

	"github.com/gostorm/gostorm/internal/core"
)

// Role is a replica's current role.
type Role int

const (
	// RoleIdle: a fresh secondary awaiting its state copy.
	RoleIdle Role = iota
	// RoleActive: a secondary that has caught up and receives replicated
	// operations.
	RoleActive
	// RolePrimary: the replica serving client requests.
	RolePrimary
)

func (r Role) String() string {
	switch r {
	case RoleIdle:
		return "idle-secondary"
	case RoleActive:
		return "active-secondary"
	case RolePrimary:
		return "primary"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Service is the deterministic state machine a fabric replica hosts. The
// replica layer owns replication, deduplication and failover; the service
// only applies operations and snapshots its state.
type Service interface {
	// Apply executes one operation (write or read) and returns its result.
	Apply(op any) (result any)
	// Snapshot returns a deep copy of the service state.
	Snapshot() any
	// Restore replaces the state with a snapshot previously produced by
	// Snapshot (possibly on another replica).
	Restore(snapshot any)
}

// Config parameterizes the fabric model.
type Config struct {
	// Replicas is the replica-set size (default 3).
	Replicas int
	// WriteQuorum is the number of replicas (including the primary) that
	// must hold an operation before the client is acknowledged
	// (default 2).
	WriteQuorum int
	// BugUncheckedPromotion re-introduces the §5 bug: the failover
	// manager promotes a replica to active secondary without checking
	// that it still is an idle secondary (a stale catch-up notification
	// from a replica that has since been elected primary then trips the
	// model's promotion assertion).
	BugUncheckedPromotion bool
}

func (c Config) replicas() int {
	if c.Replicas > 0 {
		return c.Replicas
	}
	return 3
}

func (c Config) quorum() int {
	if c.WriteQuorum > 0 {
		return c.WriteQuorum
	}
	return 2
}

// --- model events ---

// becomePrimary instructs a replica to take the primary role.
type becomePrimary struct {
	Epoch   int64
	Actives []core.MachineID
}

func (becomePrimary) Name() string { return "BecomePrimary" }

// becomeIdle resets a replica to an idle secondary awaiting a copy.
type becomeIdle struct{ Epoch int64 }

func (becomeIdle) Name() string { return "BecomeIdle" }

// sendCopy instructs the primary to send a state copy to an idle
// secondary.
type sendCopy struct {
	Epoch int64
	To    core.MachineID
}

func (sendCopy) Name() string { return "SendCopy" }

// copyState delivers the primary's state snapshot to an idle secondary.
type copyState struct {
	Epoch    int64
	Snapshot any
	Applied  int64
	Dedup    map[core.MachineID]dedupEntry
}

func (copyState) Name() string { return "CopyState" }

// caughtUp tells the failover manager a secondary finished catching up.
type caughtUp struct {
	From  core.MachineID
	Epoch int64
}

func (caughtUp) Name() string { return "CaughtUp" }

// updateActives tells the primary its current active-secondary set.
type updateActives struct {
	Epoch   int64
	Actives []core.MachineID
}

func (updateActives) Name() string { return "UpdateActives" }

// viewChange announces the current primary to clients.
type viewChange struct {
	Epoch   int64
	Primary core.MachineID
}

func (viewChange) Name() string { return "ViewChange" }

// replicate forwards one client operation from the primary to a secondary.
type replicate struct {
	Epoch  int64
	Seq    int64
	Client core.MachineID
	CSeq   int64
	Op     any
	// Result is the primary-computed outcome, replicated so that a
	// secondary elected primary can answer deduplicated retries.
	Result  any
	Primary core.MachineID
}

func (replicate) Name() string { return "Replicate" }

// replicateAck acknowledges an applied replicated operation.
type replicateAck struct {
	From  core.MachineID
	Epoch int64
	Seq   int64
}

func (replicateAck) Name() string { return "ReplicateAck" }

// clientReq is a client operation (CSeq deduplicates retries).
type clientReq struct {
	Client core.MachineID
	CSeq   int64
	Op     any
}

func (clientReq) Name() string { return "ClientReq" }

// clientResp answers a clientReq.
type clientResp struct {
	CSeq   int64
	Result any
}

func (clientResp) Name() string { return "ClientResp" }

// replicaFailed notifies the failover manager of a replica failure. The
// failure itself is a fault-plane crash (core.FaultInjector in
// scenario.go), which halts the replica abruptly with its queue dropped —
// there is no cooperative "failure event" a dying replica gets to handle.
type replicaFailed struct{ ID core.MachineID }

func (replicaFailed) Name() string { return "ReplicaFailed" }

// registerClient subscribes a client machine to view changes.
type registerClient struct{ Client core.MachineID }

func (registerClient) Name() string { return "RegisterClient" }

// dedupEntry is the at-most-once bookkeeping per client.
type dedupEntry struct {
	Seq    int64
	Result any
}

// --- failover manager ---

// FMName is the well-known machine name of the failover manager.
const FMName = "FailoverManager"

// fmMachine is the failover manager: it owns replica placement, role
// transitions, elections and client view announcements.
type fmMachine struct {
	cfg     Config
	factory func() Service

	epoch    int64
	replicas []core.MachineID
	roles    map[core.MachineID]Role
	primary  core.MachineID
	clients  []core.MachineID
}

func newFMMachine(cfg Config, factory func() Service) *fmMachine {
	return &fmMachine{cfg: cfg, factory: factory, roles: make(map[core.MachineID]Role)}
}

func (fm *fmMachine) Init(ctx *core.Context) {
	fm.epoch = 1
	for i := 0; i < fm.cfg.replicas(); i++ {
		fm.launchReplica(ctx)
	}
	fm.primary = fm.replicas[0]
	fm.roles[fm.primary] = RolePrimary
	ctx.Send(fm.primary, becomePrimary{Epoch: fm.epoch})
	for _, id := range fm.replicas[1:] {
		ctx.Send(id, becomeIdle{Epoch: fm.epoch})
		ctx.Send(fm.primary, sendCopy{Epoch: fm.epoch, To: id})
	}
}

func (fm *fmMachine) launchReplica(ctx *core.Context) core.MachineID {
	r := newReplicaMachine(ctx.ID(), fm.factory(), fm.cfg.quorum())
	id := ctx.CreateMachine(r, fmt.Sprintf("Replica%d", len(fm.replicas)))
	fm.replicas = append(fm.replicas, id)
	fm.roles[id] = RoleIdle
	return id
}

func (fm *fmMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case registerClient:
		fm.clients = append(fm.clients, e.Client)
		ctx.SendLast(e.Client, viewChange{Epoch: fm.epoch, Primary: fm.primary})
	case caughtUp:
		fm.promote(ctx, e)
	case replicaFailed:
		fm.handleFailure(ctx, e.ID)
	}
}

// promote marks a secondary active after its catch-up. The model's
// specification: only an idle secondary may be promoted.
func (fm *fmMachine) promote(ctx *core.Context, e caughtUp) {
	if !fm.cfg.BugUncheckedPromotion {
		// The fix: a stale catch-up notification — from an older epoch,
		// or from a replica that has since been elected primary — is
		// discarded, not promoted.
		if e.Epoch != fm.epoch || fm.roles[e.From] != RoleIdle {
			ctx.Logf("ignoring stale catch-up from %d (epoch %d, role %v)", e.From, e.Epoch, fm.roles[e.From])
			return
		}
	}
	// BUG (§5): without the check above, a replica elected primary while
	// its catch-up notification was in flight gets "promoted".
	ctx.Assert(fm.roles[e.From] == RoleIdle,
		"only a secondary can be promoted to an active secondary (replica %d is %v)",
		e.From, fm.roles[e.From])
	fm.roles[e.From] = RoleActive
	ctx.SendLast(fm.primary, updateActives{Epoch: fm.epoch, Actives: fm.actives()})
}

// actives returns the current active secondaries in deterministic order.
func (fm *fmMachine) actives() []core.MachineID {
	var out []core.MachineID
	for _, id := range slices.Sorted(maps.Keys(fm.roles)) {
		if fm.roles[id] == RoleActive {
			out = append(out, id)
		}
	}
	return out
}

// handleFailure removes the dead replica, elects a new primary if needed,
// resets the survivors, and launches a replacement.
func (fm *fmMachine) handleFailure(ctx *core.Context, dead core.MachineID) {
	if _, ok := fm.roles[dead]; !ok {
		return // unknown or already handled
	}
	wasPrimary := fm.roles[dead] == RolePrimary
	delete(fm.roles, dead)
	fm.replicas = removeID(fm.replicas, dead)

	if !wasPrimary {
		// The primary just lost a secondary; refresh its active set and
		// start a replacement.
		replacement := fm.launchReplica(ctx)
		ctx.Send(fm.primary, updateActives{Epoch: fm.epoch, Actives: fm.actives()})
		ctx.Send(replacement, becomeIdle{Epoch: fm.epoch})
		ctx.SendLast(fm.primary, sendCopy{Epoch: fm.epoch, To: replacement})
		return
	}

	// Elect a new primary: prefer an active secondary (it holds every
	// acknowledged operation); fall back to an idle one.
	fm.epoch++
	var elected core.MachineID = core.NoMachine
	for _, id := range fm.replicas {
		if fm.roles[id] == RoleActive {
			elected = id
			break
		}
	}
	if elected == core.NoMachine {
		for _, id := range fm.replicas {
			elected = id
			break
		}
	}
	if elected == core.NoMachine {
		ctx.Assert(false, "replica set exhausted: no candidate for election")
	}
	fm.primary = elected
	fm.roles[elected] = RolePrimary
	ctx.Send(elected, becomePrimary{Epoch: fm.epoch})
	// Demote every other survivor to idle and re-copy from the new
	// primary: a simple, sound re-synchronization.
	for _, id := range fm.replicas {
		if id == elected {
			continue
		}
		fm.roles[id] = RoleIdle
		ctx.Send(id, becomeIdle{Epoch: fm.epoch})
		ctx.Send(fm.primary, sendCopy{Epoch: fm.epoch, To: id})
	}
	// Keep the replica set at full strength.
	replacement := fm.launchReplica(ctx)
	ctx.Send(replacement, becomeIdle{Epoch: fm.epoch})
	ctx.Send(fm.primary, sendCopy{Epoch: fm.epoch, To: replacement})
	for _, c := range fm.clients {
		ctx.Send(c, viewChange{Epoch: fm.epoch, Primary: fm.primary})
	}
}

func removeID(ids []core.MachineID, dead core.MachineID) []core.MachineID {
	out := ids[:0]
	for _, id := range ids {
		if id != dead {
			out = append(out, id)
		}
	}
	return out
}

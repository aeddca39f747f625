package vnext

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// Snapshot accessors: they copy under the lock.

// ReplicaCount returns the manager's view of extent's replica count.
func (m *ExtentManager) ReplicaCount(extent ExtentID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.center.Count(extent)
}

// ReplicaLocations returns the manager's view of extent's replica holders.
func (m *ExtentManager) ReplicaLocations(extent ExtentID) []NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.center.Locations(extent)
}

// RegisteredNodes returns the ENs currently in the node map.
func (m *ExtentManager) RegisteredNodes() []NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodeMap.Nodes()
}

// captureNet records outbound manager messages.
type captureNet struct {
	mu   sync.Mutex
	sent []struct {
		Dst NodeID
		Msg Message
	}
}

func (c *captureNet) SendMessage(dst NodeID, msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, struct {
		Dst NodeID
		Msg Message
	}{dst, msg})
}

func (c *captureNet) repairs() []RepairRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []RepairRequest
	for _, s := range c.sent {
		if r, ok := s.Msg.(RepairRequest); ok {
			out = append(out, r)
		}
	}
	return out
}

func (c *captureNet) repairTargets() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []NodeID
	for _, s := range c.sent {
		if _, ok := s.Msg.(RepairRequest); ok {
			out = append(out, s.Dst)
		}
	}
	return out
}

func newTestManager(fix bool) (*ExtentManager, *captureNet) {
	net := &captureNet{}
	mgr := NewExtentManager(Config{ReplicaTarget: 3, HeartbeatExpiry: 2, IgnoreSyncFromUnknownNodes: fix}, net)
	return mgr, net
}

func heartbeatAll(mgr *ExtentManager, nodes ...NodeID) {
	for _, n := range nodes {
		mgr.ProcessMessage(Heartbeat{Node: n})
	}
}

func TestManagerRegistersNodesViaHeartbeat(t *testing.T) {
	mgr, _ := newTestManager(true)
	heartbeatAll(mgr, 3, 1, 2)
	if got := mgr.RegisteredNodes(); !reflect.DeepEqual(got, []NodeID{1, 2, 3}) {
		t.Fatalf("nodes = %v", got)
	}
}

func TestManagerLearnsReplicasFromSync(t *testing.T) {
	mgr, _ := newTestManager(true)
	heartbeatAll(mgr, 1, 2)
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	mgr.ProcessMessage(SyncReport{Node: 2, Extents: []ExtentID{7, 8}})
	if got := mgr.ReplicaLocations(7); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("locations(7) = %v", got)
	}
	if mgr.ReplicaCount(8) != 1 {
		t.Fatalf("count(8) = %d", mgr.ReplicaCount(8))
	}
}

func TestManagerExpiresSilentNodes(t *testing.T) {
	mgr, _ := newTestManager(true)
	heartbeatAll(mgr, 1, 2)
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	// Node 2 keeps heartbeating; node 1 goes silent. Expiry window is 2
	// ticks, so after 3 ticks node 1 must be expired and its records gone.
	for i := 0; i < 3; i++ {
		mgr.ProcessExpirationTick()
		mgr.ProcessMessage(Heartbeat{Node: 2})
	}
	if got := mgr.RegisteredNodes(); !reflect.DeepEqual(got, []NodeID{2}) {
		t.Fatalf("nodes = %v, want [2]", got)
	}
	if mgr.ReplicaCount(7) != 0 {
		t.Fatalf("expired node's extent records must be deleted, count = %d", mgr.ReplicaCount(7))
	}
}

func TestManagerSchedulesRepairForMissingReplicas(t *testing.T) {
	mgr, net := newTestManager(true)
	heartbeatAll(mgr, 1, 2, 3, 4)
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	mgr.ProcessExtentRepair()
	reqs := net.repairs()
	if len(reqs) != 2 {
		t.Fatalf("repair requests = %d, want 2 (replicas missing)", len(reqs))
	}
	for _, r := range reqs {
		if r.Extent != 7 || !reflect.DeepEqual(r.Sources, []NodeID{1}) {
			t.Fatalf("bad repair request: %+v", r)
		}
	}
	if got := net.repairTargets(); !reflect.DeepEqual(got, []NodeID{2, 3}) {
		t.Fatalf("repair targets = %v, want the first two non-holders", got)
	}
}

func TestManagerDoesNotRepairHealthyExtents(t *testing.T) {
	mgr, net := newTestManager(true)
	heartbeatAll(mgr, 1, 2, 3, 4)
	for _, n := range []NodeID{1, 2, 3} {
		mgr.ProcessMessage(SyncReport{Node: n, Extents: []ExtentID{7}})
	}
	mgr.ProcessExtentRepair()
	if len(net.repairs()) != 0 {
		t.Fatalf("healthy extent repaired: %v", net.repairs())
	}
}

// TestManagerStaleSyncResurrection reproduces the §3.6 bug mechanism at
// the unit level: a sync report processed after the reporting EN was
// expired resurrects its replica records, so the repair loop stays silent
// even though a replica is gone.
func TestManagerStaleSyncResurrection(t *testing.T) {
	mgr, net := newTestManager(false) // bug present
	heartbeatAll(mgr, 1, 2, 3)
	for _, n := range []NodeID{1, 2, 3} {
		mgr.ProcessMessage(SyncReport{Node: n, Extents: []ExtentID{7}})
	}
	// Node 1 dies: only 2 and 3 heartbeat through three expiration ticks.
	for i := 0; i < 3; i++ {
		mgr.ProcessExpirationTick()
		heartbeatAll(mgr, 2, 3)
	}
	if mgr.ReplicaCount(7) != 2 {
		t.Fatalf("after expiry count = %d, want 2", mgr.ReplicaCount(7))
	}
	// The stale sync report from node 1, delayed in the network, arrives.
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	if mgr.ReplicaCount(7) != 3 {
		t.Fatalf("bug should resurrect the replica record, count = %d", mgr.ReplicaCount(7))
	}
	mgr.ProcessExtentRepair()
	if len(net.repairs()) != 0 {
		t.Fatal("repair loop should be fooled into silence — that is the bug")
	}
}

// TestManagerFixIgnoresStaleSync verifies the fix: the same sequence with
// IgnoreSyncFromUnknownNodes leaves the under-replication visible and the
// repair loop schedules a repair.
func TestManagerFixIgnoresStaleSync(t *testing.T) {
	mgr, net := newTestManager(true)
	heartbeatAll(mgr, 1, 2, 3)
	for _, n := range []NodeID{1, 2, 3} {
		mgr.ProcessMessage(SyncReport{Node: n, Extents: []ExtentID{7}})
	}
	for i := 0; i < 3; i++ {
		mgr.ProcessExpirationTick()
		heartbeatAll(mgr, 2, 3)
	}
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}}) // stale
	if mgr.ReplicaCount(7) != 2 {
		t.Fatalf("fix must discard the stale sync, count = %d", mgr.ReplicaCount(7))
	}
	heartbeatAll(mgr, 4)
	mgr.ProcessExtentRepair()
	reqs := net.repairs()
	if len(reqs) != 1 {
		t.Fatalf("repairs = %d, want 1", len(reqs))
	}
}

func TestManagerProductionTimers(t *testing.T) {
	mgr, net := newTestManager(true)
	heartbeatAll(mgr, 1, 2)
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	mgr.Start(time.Hour, 2*time.Millisecond) // expiration effectively off
	defer mgr.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(net.repairs()) > 0 {
			mgr.Stop()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("production repair loop never fired")
}

func TestManagerDisableTimerBlocksStart(t *testing.T) {
	mgr, net := newTestManager(true)
	mgr.DisableTimer()
	heartbeatAll(mgr, 1, 2)
	mgr.ProcessMessage(SyncReport{Node: 1, Extents: []ExtentID{7}})
	mgr.Start(time.Millisecond, time.Millisecond)
	defer mgr.Stop()
	time.Sleep(20 * time.Millisecond)
	if len(net.repairs()) != 0 {
		t.Fatal("DisableTimer must prevent internal loops")
	}
}

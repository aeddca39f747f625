package vnext

import (
	"sync"
	"time"
)

// Config parameterizes the extent manager.
type Config struct {
	// ReplicaTarget is the required number of replicas per extent
	// (default 3).
	ReplicaTarget int
	// HeartbeatExpiry is how many expiration-loop ticks an EN may go
	// without a heartbeat before it is expired (default 2).
	HeartbeatExpiry int64
	// IgnoreSyncFromUnknownNodes is the fix for the §3.6 liveness bug:
	// when set, sync reports from ENs absent from the node map (never
	// registered, or already expired) are discarded. When unset — the
	// shipped vNext behavior that caused the bug — a stale sync report
	// from an expired EN resurrects its replica records.
	IgnoreSyncFromUnknownNodes bool
}

func (c Config) target() int {
	if c.ReplicaTarget > 0 {
		return c.ReplicaTarget
	}
	return 3
}

func (c Config) expiry() int64 {
	if c.HeartbeatExpiry > 0 {
		return c.HeartbeatExpiry
	}
	return 2
}

// ExtentManager is the lightweight manager of one extent partition
// (Figure 6). It receives heartbeats and sync reports from ENs, runs an EN
// expiration loop and an extent repair loop, and issues repair requests
// through its NetworkEngine.
//
// Concurrency: all entry points (ProcessMessage, ProcessExpirationTick,
// ProcessExtentRepair) are safe for concurrent use; in production the two
// loops run on internal timers started by Start, while under systematic
// testing the timers are disabled and the harness drives the loops.
type ExtentManager struct {
	cfg Config
	// NetEngine sends outbound messages; tests override it with a modeled
	// engine exactly as in Figure 5.
	NetEngine NetworkEngine

	mu      sync.Mutex
	center  *ExtentCenter
	nodeMap *ExtentNodeMap
	now     int64

	timersDisabled bool
	stop           chan struct{}
	wg             sync.WaitGroup
}

// NewExtentManager builds a manager that sends repair traffic through net.
func NewExtentManager(cfg Config, net NetworkEngine) *ExtentManager {
	return &ExtentManager{
		cfg:       cfg,
		NetEngine: net,
		center:    NewExtentCenter(),
		nodeMap:   NewExtentNodeMap(),
	}
}

// ProcessMessage handles one inbound EN message.
func (m *ExtentManager) ProcessMessage(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch t := msg.(type) {
	case Heartbeat:
		m.nodeMap.Touch(t.Node, m.now)
	case SyncReport:
		if m.cfg.IgnoreSyncFromUnknownNodes && !m.nodeMap.Contains(t.Node) {
			// Fix for the §3.6 bug: the EN was expired (or never
			// registered); its view is stale and must not resurrect
			// replica records.
			return
		}
		m.center.UpdateFromSync(t.Node, t.Extents)
	}
}

// ProcessExpirationTick advances logical time and expires ENs whose last
// heartbeat is older than the expiry window, deleting their extent records
// (the EN expiration loop of Figure 6).
func (m *ExtentManager) ProcessExpirationTick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now++
	for _, node := range m.nodeMap.Nodes() {
		last, _ := m.nodeMap.LastSeen(node)
		if m.now-last > m.cfg.expiry() {
			m.nodeMap.Remove(node)
			m.center.RemoveNode(node)
		}
	}
}

// ProcessExtentRepair examines every tracked extent and sends repair
// requests for those missing replicas (the extent repair loop of
// Figure 6). Repair targets are registered ENs that do not already hold
// the extent; sources are the ENs recorded as holding it.
func (m *ExtentManager) ProcessExtentRepair() {
	m.mu.Lock()
	var requests []struct {
		dst NodeID
		msg Message
	}
	for _, extent := range m.center.Extents() {
		locs := m.center.Locations(extent)
		missing := m.cfg.target() - len(locs)
		if missing <= 0 {
			continue
		}
		assigned := 0
		for _, node := range m.nodeMap.Nodes() {
			if assigned >= missing {
				break
			}
			if m.center.Has(extent, node) {
				continue
			}
			requests = append(requests, struct {
				dst NodeID
				msg Message
			}{node, RepairRequest{Extent: extent, Sources: locs}})
			assigned++
		}
	}
	m.mu.Unlock()
	// Send outside the lock: the network engine may call back into the
	// manager on some transports.
	for _, r := range requests {
		m.NetEngine.SendMessage(r.dst, r.msg)
	}
}

// DisableTimer prevents Start from launching the internal expiration and
// repair timers so a test harness can drive the loops deterministically —
// the one-line accommodation the vNext developers added for modeling
// (§3.3, footnote 3).
func (m *ExtentManager) DisableTimer() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timersDisabled = true
}

// Start launches the internal loops for production use: the expiration
// loop every expiryInterval and the repair loop every repairInterval. It
// is a no-op if DisableTimer was called.
func (m *ExtentManager) Start(expiryInterval, repairInterval time.Duration) {
	m.mu.Lock()
	disabled := m.timersDisabled
	if !disabled {
		m.stop = make(chan struct{})
	}
	stop := m.stop
	m.mu.Unlock()
	if disabled {
		return
	}
	m.wg.Add(2)
	go m.tickLoop(stop, expiryInterval, m.ProcessExpirationTick)
	go m.tickLoop(stop, repairInterval, m.ProcessExtentRepair)
}

func (m *ExtentManager) tickLoop(stop chan struct{}, interval time.Duration, tick func()) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tick()
		}
	}
}

// Stop terminates the internal loops started by Start.
func (m *ExtentManager) Stop() {
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		m.wg.Wait()
	}
}

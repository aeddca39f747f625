// Package replsys implements the example distributed storage system of the
// paper's §2.2 (Figure 1): a client replicates data through a server onto
// three storage nodes, with acknowledgements driven by periodic storage-node
// sync reports.
//
// The system ships with the paper's two bugs, individually re-introducible
// through Config:
//
//  1. a safety bug — the server counts up-to-date sync reports without
//     tracking which storage node they came from, so it can acknowledge a
//     write before three distinct replicas exist; and
//  2. a liveness bug — the server never resets its replica counter, so the
//     client's second request is never acknowledged and the client blocks
//     forever.
//
// The Server type is the "real" component (it knows nothing about the test
// harness and talks to an abstract Network); the client, storage nodes and
// timers are modeled in the harness (harness.go), mirroring Figure 2.
package replsys

// NodeID identifies a node (server, client or storage node) on the
// system's network.
type NodeID int32

// Message is a network message of the replication protocol.
type Message interface {
	Kind() string
}

// ClientReq asks the server to replicate Val.
type ClientReq struct {
	Client NodeID
	Val    int
}

// Kind implements Message.
func (ClientReq) Kind() string { return "ClientReq" }

// Ack tells the client its last request is fully replicated.
type Ack struct{ Val int }

// Kind implements Message.
func (Ack) Kind() string { return "Ack" }

// ReplReq asks a storage node to store Val.
type ReplReq struct{ Val int }

// Kind implements Message.
func (ReplReq) Kind() string { return "ReplReq" }

// Sync carries a storage node's log to the server (sent on timeout).
type Sync struct {
	Node NodeID
	Log  []int
}

// Kind implements Message.
func (Sync) Kind() string { return "Sync" }

// Network abstracts message transport so the server can run over a real
// transport in production and over the systematic-testing harness in tests.
type Network interface {
	Send(to NodeID, msg Message)
}

// Config selects the server variant. The zero value is the paper's
// pseudocode with both bugs present; setting both fix flags yields the
// correct server.
type Config struct {
	// ReplicaTarget is the number of replicas required before an Ack
	// (default 3).
	ReplicaTarget int
	// FixUniqueReplicas, when set, counts distinct up-to-date storage
	// nodes instead of up-to-date sync reports (fixes the safety bug).
	FixUniqueReplicas bool
	// FixCounterReset, when set, resets replication progress when a new
	// client request arrives and guards against duplicate acknowledgements
	// (fixes the liveness bug).
	FixCounterReset bool
}

func (c Config) target() int {
	if c.ReplicaTarget > 0 {
		return c.ReplicaTarget
	}
	return 3
}

// Server is the replication coordinator of Figure 1 — the component the
// harness tests as-is ("real code" in the paper's terminology).
type Server struct {
	cfg    Config
	net    Network
	nodes  []NodeID
	client NodeID

	data     int
	haveData bool
	count    int
	replicas map[NodeID]bool
	acked    bool
}

// NewServer builds a server that replicates client data onto nodes,
// sending protocol messages through net.
func NewServer(cfg Config, net Network, nodes []NodeID) *Server {
	return &Server{
		cfg:      cfg,
		net:      net,
		nodes:    append([]NodeID(nil), nodes...),
		replicas: make(map[NodeID]bool),
	}
}

// HandleMessage dispatches one inbound message.
func (s *Server) HandleMessage(msg Message) {
	switch m := msg.(type) {
	case ClientReq:
		s.handleClientReq(m)
	case Sync:
		s.handleSync(m)
	}
}

// handleClientReq stores the data locally and broadcasts replication
// requests to every storage node.
func (s *Server) handleClientReq(m ClientReq) {
	s.client = m.Client
	s.data = m.Val
	s.haveData = true
	if s.cfg.FixCounterReset {
		s.count = 0
		s.replicas = make(map[NodeID]bool)
		s.acked = false
	}
	for _, sn := range s.nodes {
		s.net.Send(sn, ReplReq{Val: s.data})
	}
}

// handleSync checks whether the reporting node is up to date; if not it
// re-replicates, otherwise it advances the replica count and acknowledges
// the client when the target is reached.
func (s *Server) handleSync(m Sync) {
	if !s.haveData {
		return
	}
	if !s.isUpToDate(m.Log) {
		s.net.Send(m.Node, ReplReq{Val: s.data})
		return
	}
	if s.cfg.FixUniqueReplicas {
		s.replicas[m.Node] = true
		s.count = len(s.replicas)
	} else {
		// BUG (safety): each up-to-date sync report bumps the counter,
		// even when the same node reports repeatedly.
		s.count++
	}
	if s.count == s.cfg.target() {
		if s.cfg.FixCounterReset && s.acked {
			return
		}
		s.net.Send(s.client, Ack{Val: s.data})
		s.acked = true
		// BUG (liveness): without FixCounterReset the counter is never
		// reset, so after the next ClientReq it can only move past the
		// target, and no further Ack is ever sent.
	}
}

// isUpToDate reports whether a storage log ends with the current data.
func (s *Server) isUpToDate(log []int) bool {
	return len(log) > 0 && log[len(log)-1] == s.data
}

package replsys

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// Replicas returns the distinct nodes the server currently considers
// replicas (only meaningful with FixUniqueReplicas).
func (s *Server) Replicas() []NodeID { return slices.Sorted(maps.Keys(s.replicas)) }

// fakeNet records messages the server sends, for runtime-free unit tests.
type fakeNet struct {
	sent []struct {
		To  NodeID
		Msg Message
	}
}

func (f *fakeNet) Send(to NodeID, msg Message) {
	f.sent = append(f.sent, struct {
		To  NodeID
		Msg Message
	}{to, msg})
}

func (f *fakeNet) acks() int {
	n := 0
	for _, s := range f.sent {
		if _, ok := s.Msg.(Ack); ok {
			n++
		}
	}
	return n
}

func (f *fakeNet) replReqsTo(node NodeID) int {
	n := 0
	for _, s := range f.sent {
		if _, ok := s.Msg.(ReplReq); ok && s.To == node {
			n++
		}
	}
	return n
}

var testNodes = []NodeID{10, 11, 12}

func TestServerBroadcastsReplicationRequests(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	for _, n := range testNodes {
		if got := net.replReqsTo(n); got != 1 {
			t.Fatalf("node %d got %d ReplReqs, want 1", n, got)
		}
	}
}

func TestServerRequestsRepairForStaleLog(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	net.sent = nil
	s.HandleMessage(Sync{Node: 10, Log: []int{3}}) // stale
	if got := net.replReqsTo(10); got != 1 {
		t.Fatalf("stale sync triggered %d ReplReqs, want 1", got)
	}
	s.HandleMessage(Sync{Node: 11, Log: nil}) // empty log is stale
	if got := net.replReqsTo(11); got != 1 {
		t.Fatalf("empty-log sync triggered %d ReplReqs, want 1", got)
	}
}

func TestServerIgnoresSyncBeforeFirstRequest(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{}, net, testNodes)
	s.HandleMessage(Sync{Node: 10, Log: []int{1}})
	if len(net.sent) != 0 {
		t.Fatalf("server reacted to sync before any request: %v", net.sent)
	}
}

func TestBuggyServerCountsDuplicateSyncs(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{}, net, testNodes) // both bugs present
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	// The same node reports up to date three times: the buggy server
	// acknowledges even though only one replica exists.
	for i := 0; i < 3; i++ {
		s.HandleMessage(Sync{Node: 10, Log: []int{7}})
	}
	if net.acks() != 1 {
		t.Fatalf("acks = %d, want 1 (premature ack is the seeded safety bug)", net.acks())
	}
}

func TestFixedServerRequiresDistinctReplicas(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{FixUniqueReplicas: true, FixCounterReset: true}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	for i := 0; i < 5; i++ {
		s.HandleMessage(Sync{Node: 10, Log: []int{7}})
	}
	if net.acks() != 0 {
		t.Fatalf("acks = %d after duplicate syncs, want 0", net.acks())
	}
	s.HandleMessage(Sync{Node: 11, Log: []int{7}})
	s.HandleMessage(Sync{Node: 12, Log: []int{7}})
	if net.acks() != 1 {
		t.Fatalf("acks = %d after three distinct syncs, want 1", net.acks())
	}
	if got := s.Replicas(); !reflect.DeepEqual(got, []NodeID{10, 11, 12}) {
		t.Fatalf("replicas = %v", got)
	}
}

func TestFixedServerAcksEveryRequest(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{FixUniqueReplicas: true, FixCounterReset: true}, net, testNodes)
	for round, val := range []int{7, 8, 9} {
		s.HandleMessage(ClientReq{Client: 1, Val: val})
		for _, n := range testNodes {
			s.HandleMessage(Sync{Node: n, Log: []int{7, 8, 9}[:round+1]})
		}
		if net.acks() != round+1 {
			t.Fatalf("after round %d: acks = %d, want %d", round, net.acks(), round+1)
		}
	}
}

func TestFixedServerDoesNotDoubleAck(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{FixUniqueReplicas: true, FixCounterReset: true}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	for _, n := range testNodes {
		s.HandleMessage(Sync{Node: n, Log: []int{7}})
	}
	// Extra up-to-date syncs must not produce further acks.
	for _, n := range testNodes {
		s.HandleMessage(Sync{Node: n, Log: []int{7}})
	}
	if net.acks() != 1 {
		t.Fatalf("acks = %d, want exactly 1", net.acks())
	}
}

func TestBuggyServerNeverAcksSecondRequest(t *testing.T) {
	net := &fakeNet{}
	// Liveness bug in isolation: correct counting is irrelevant, the
	// counter simply never resets.
	s := NewServer(Config{}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	for _, n := range testNodes {
		s.HandleMessage(Sync{Node: n, Log: []int{7}})
	}
	if net.acks() != 1 {
		t.Fatalf("first request: acks = %d, want 1", net.acks())
	}
	s.HandleMessage(ClientReq{Client: 1, Val: 8})
	for round := 0; round < 5; round++ {
		for _, n := range testNodes {
			s.HandleMessage(Sync{Node: n, Log: []int{7, 8}})
		}
	}
	if net.acks() != 1 {
		t.Fatalf("second request was acked despite the liveness bug (acks = %d)", net.acks())
	}
}

// Replicas lists each distinct reporting node once, ascending, whatever
// order the syncs arrived in.
func TestReplicasAreAscending(t *testing.T) {
	net := &fakeNet{}
	s := NewServer(Config{FixUniqueReplicas: true, FixCounterReset: true, ReplicaTarget: 100}, net, testNodes)
	s.HandleMessage(ClientReq{Client: 1, Val: 7})
	var want []NodeID
	for n := NodeID(40); n >= 10; n-- {
		want = append([]NodeID{n}, want...)
		s.HandleMessage(Sync{Node: n, Log: []int{7}})
		s.HandleMessage(Sync{Node: n, Log: []int{7}})
	}
	if got := s.Replicas(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas = %v, want %v", got, want)
	}
}

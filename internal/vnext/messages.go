// Package vnext reimplements the extent-management layer of Microsoft
// Azure Storage vNext as described in §3 of the paper (Figures 3 and 6):
// an Extent Manager tracks which Extent Nodes (ENs) hold replicas of each
// extent, detects EN failures through missing heartbeats, and schedules
// repair of under-replicated extents.
//
// The ExtentManager here is the "real" component: it is driven purely by
// messages and loop ticks, talks to ENs through a pluggable NetworkEngine
// (Figure 7), and knows nothing about the test harness. In production mode
// (Start/Stop) its expiration and repair loops run on internal timers; the
// harness disables those timers (DisableTimer, §3.3 footnote) and drives
// the loops from modeled timer machines instead.
//
// The §3.6 liveness bug is seeded: unless Config.IgnoreSyncFromUnknownNodes
// is set (the fix), a sync report from an already-expired EN resurrects its
// replica records, convincing the manager that a failed replica is healthy
// so the repair loop never schedules its repair.
package vnext

// ExtentID identifies an extent (a multi-gigabyte replicated container of
// data blocks).
type ExtentID int64

// NodeID identifies an extent node.
type NodeID int32

// Message is a protocol message between the extent manager and extent
// nodes, or between extent nodes (extent copy traffic).
type Message interface {
	Kind() string
}

// Heartbeat is sent frequently by every EN; the manager detects EN failure
// by missing heartbeats. A heartbeat from an unknown EN registers it.
type Heartbeat struct {
	Node NodeID
}

// Kind implements Message.
func (Heartbeat) Kind() string { return "Heartbeat" }

// SyncReport lists all extents stored on an EN. It is the ground truth
// that replaces the manager's possibly out-of-date view of that EN.
type SyncReport struct {
	Node    NodeID
	Extents []ExtentID
}

// Kind implements Message.
func (SyncReport) Kind() string { return "SyncReport" }

// RepairRequest asks an EN to repair (re-replicate) an extent from one of
// the source ENs that still hold a replica.
type RepairRequest struct {
	Extent  ExtentID
	Sources []NodeID
}

// Kind implements Message.
func (RepairRequest) Kind() string { return "RepairRequest" }

// CopyRequest asks a source EN for a copy of an extent (EN-to-EN).
type CopyRequest struct {
	Extent ExtentID
	// Requester is the EN that wants the copy.
	Requester NodeID
}

// Kind implements Message.
func (CopyRequest) Kind() string { return "CopyRequest" }

// CopyResponse answers a CopyRequest; OK reports whether the source held a
// replica to copy from.
type CopyResponse struct {
	Extent ExtentID
	OK     bool
}

// Kind implements Message.
func (CopyResponse) Kind() string { return "CopyResponse" }

// NetworkEngine is vNext's network interface (Figure 7): components send
// messages through it, and tests substitute a modeled engine that relays
// through the systematic-testing runtime.
type NetworkEngine interface {
	SendMessage(dst NodeID, msg Message)
}

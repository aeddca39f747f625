package vnext

import (
	"maps"
	"slices"
)

// ExtentCenter maps extents to the extent nodes believed to hold replicas.
// The extent manager updates it from sync reports and the expiration loop;
// extent nodes reuse the same structure for their local bookkeeping (§3.2).
type ExtentCenter struct {
	// locations[extent][node] — the replica map.
	locations map[ExtentID]map[NodeID]bool
	// byNode[node][extent] — reverse index for efficient node removal.
	byNode map[NodeID]map[ExtentID]bool
}

// NewExtentCenter returns an empty extent center.
func NewExtentCenter() *ExtentCenter {
	return &ExtentCenter{
		locations: make(map[ExtentID]map[NodeID]bool),
		byNode:    make(map[NodeID]map[ExtentID]bool),
	}
}

// Add records that node holds a replica of extent.
func (c *ExtentCenter) Add(extent ExtentID, node NodeID) {
	if c.locations[extent] == nil {
		c.locations[extent] = make(map[NodeID]bool)
	}
	c.locations[extent][node] = true
	if c.byNode[node] == nil {
		c.byNode[node] = make(map[ExtentID]bool)
	}
	c.byNode[node][extent] = true
}

// Remove forgets node's replica of extent.
func (c *ExtentCenter) Remove(extent ExtentID, node NodeID) {
	if locs := c.locations[extent]; locs != nil {
		delete(locs, node)
		if len(locs) == 0 {
			delete(c.locations, extent)
		}
	}
	if exts := c.byNode[node]; exts != nil {
		delete(exts, extent)
		if len(exts) == 0 {
			delete(c.byNode, node)
		}
	}
}

// RemoveNode forgets every replica record of node (used when the
// expiration loop expires an EN).
func (c *ExtentCenter) RemoveNode(node NodeID) {
	for _, extent := range slices.Sorted(maps.Keys(c.byNode[node])) {
		c.Remove(extent, node)
	}
}

// UpdateFromSync replaces the center's view of node with the ground truth
// from a sync report: extents listed are added, previously recorded extents
// not listed are dropped.
func (c *ExtentCenter) UpdateFromSync(node NodeID, extents []ExtentID) {
	listed := make(map[ExtentID]bool, len(extents))
	for _, e := range extents {
		listed[e] = true
	}
	for _, e := range slices.Sorted(maps.Keys(c.byNode[node])) {
		if !listed[e] {
			c.Remove(e, node)
		}
	}
	for _, e := range extents {
		c.Add(e, node)
	}
}

// Locations returns the nodes believed to hold extent, in ascending order.
func (c *ExtentCenter) Locations(extent ExtentID) []NodeID {
	return slices.Sorted(maps.Keys(c.locations[extent]))
}

// Has reports whether node is recorded as holding extent.
func (c *ExtentCenter) Has(extent ExtentID, node NodeID) bool {
	return c.locations[extent][node]
}

// Extents returns all tracked extents in ascending order.
func (c *ExtentCenter) Extents() []ExtentID {
	return slices.Sorted(maps.Keys(c.locations))
}

// ExtentsOf returns the extents recorded for node, ascending. An EN uses
// this on its own center to assemble its sync report (GetSyncReport in
// Figure 8).
func (c *ExtentCenter) ExtentsOf(node NodeID) []ExtentID {
	return slices.Sorted(maps.Keys(c.byNode[node]))
}

// ExtentNodeMap maps extent nodes to the logical time of their latest
// heartbeat (Figure 6).
type ExtentNodeMap struct {
	lastSeen map[NodeID]int64
}

// NewExtentNodeMap returns an empty node map.
func NewExtentNodeMap() *ExtentNodeMap {
	return &ExtentNodeMap{lastSeen: make(map[NodeID]int64)}
}

// Touch records a heartbeat from node at logical time now, registering the
// node if it is new.
func (m *ExtentNodeMap) Touch(node NodeID, now int64) {
	m.lastSeen[node] = now
}

// Remove forgets node.
func (m *ExtentNodeMap) Remove(node NodeID) {
	delete(m.lastSeen, node)
}

// Contains reports whether node is registered.
func (m *ExtentNodeMap) Contains(node NodeID) bool {
	_, ok := m.lastSeen[node]
	return ok
}

// LastSeen returns the logical time of node's latest heartbeat.
func (m *ExtentNodeMap) LastSeen(node NodeID) (int64, bool) {
	t, ok := m.lastSeen[node]
	return t, ok
}

// Nodes returns all registered nodes in ascending order.
func (m *ExtentNodeMap) Nodes() []NodeID {
	return slices.Sorted(maps.Keys(m.lastSeen))
}

package vnext

import (
	"cmp"
	"reflect"
	"testing"
	"testing/quick"
)

// Count returns the number of recorded replicas of extent.
func (c *ExtentCenter) Count(extent ExtentID) int {
	return len(c.locations[extent])
}

// Len returns the number of tracked extents.
func (c *ExtentCenter) Len() int { return len(c.locations) }

// Len returns the number of registered nodes.
func (m *ExtentNodeMap) Len() int { return len(m.lastSeen) }

func TestExtentCenterAddRemove(t *testing.T) {
	c := NewExtentCenter()
	c.Add(1, 10)
	c.Add(1, 11)
	c.Add(2, 10)
	if got := c.Locations(1); !reflect.DeepEqual(got, []NodeID{10, 11}) {
		t.Fatalf("locations(1) = %v", got)
	}
	if c.Count(1) != 2 || c.Count(2) != 1 || c.Count(3) != 0 {
		t.Fatalf("counts: %d %d %d", c.Count(1), c.Count(2), c.Count(3))
	}
	c.Remove(1, 10)
	if c.Has(1, 10) || !c.Has(1, 11) {
		t.Fatal("remove did not take effect")
	}
	if got := c.ExtentsOf(10); !reflect.DeepEqual(got, []ExtentID{2}) {
		t.Fatalf("extentsOf(10) = %v", got)
	}
}

func TestExtentCenterRemoveNode(t *testing.T) {
	c := NewExtentCenter()
	c.Add(1, 10)
	c.Add(2, 10)
	c.Add(2, 11)
	c.RemoveNode(10)
	if c.Count(1) != 0 {
		t.Fatal("extent 1 should have no replicas")
	}
	if got := c.Locations(2); !reflect.DeepEqual(got, []NodeID{11}) {
		t.Fatalf("locations(2) = %v", got)
	}
	if got := c.Extents(); !reflect.DeepEqual(got, []ExtentID{2}) {
		t.Fatalf("extents = %v (empty extents must be dropped)", got)
	}
}

func TestExtentCenterUpdateFromSync(t *testing.T) {
	c := NewExtentCenter()
	c.Add(1, 10)
	c.Add(2, 10)
	c.Add(2, 11)
	// Node 10 now reports only extents 2 and 3.
	c.UpdateFromSync(10, []ExtentID{2, 3})
	if c.Has(1, 10) {
		t.Fatal("sync should have dropped extent 1 from node 10")
	}
	if !c.Has(2, 10) || !c.Has(3, 10) {
		t.Fatal("sync should have recorded extents 2 and 3")
	}
	if !c.Has(2, 11) {
		t.Fatal("sync for node 10 must not affect node 11")
	}
	// Empty sync clears the node.
	c.UpdateFromSync(10, nil)
	if got := c.ExtentsOf(10); len(got) != 0 {
		t.Fatalf("extents of 10 after empty sync: %v", got)
	}
}

// Property: after UpdateFromSync(n, list), ExtentsOf(n) equals the sorted
// deduplicated list, regardless of prior state.
func TestExtentCenterSyncProperty(t *testing.T) {
	f := func(pre, post []uint8) bool {
		c := NewExtentCenter()
		for _, e := range pre {
			c.Add(ExtentID(e), 10)
		}
		list := make([]ExtentID, 0, len(post))
		want := make(map[ExtentID]bool)
		for _, e := range post {
			list = append(list, ExtentID(e))
			want[ExtentID(e)] = true
		}
		c.UpdateFromSync(10, list)
		got := c.ExtentsOf(10)
		if len(got) != len(want) {
			return false
		}
		for _, e := range got {
			if !want[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtentNodeMap(t *testing.T) {
	m := NewExtentNodeMap()
	m.Touch(10, 5)
	m.Touch(11, 6)
	if !m.Contains(10) || m.Contains(12) {
		t.Fatal("contains wrong")
	}
	if got, _ := m.LastSeen(11); got != 6 {
		t.Fatalf("lastSeen(11) = %d", got)
	}
	if got := m.Nodes(); !reflect.DeepEqual(got, []NodeID{10, 11}) {
		t.Fatalf("nodes = %v", got)
	}
	m.Remove(10)
	if m.Contains(10) || m.Len() != 1 {
		t.Fatal("remove failed")
	}
}

// ascending reports whether s is strictly increasing: sorted, no repeats.
func ascending[T cmp.Ordered](s []T) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Property: whatever order replicas are recorded in, every listing of the
// center is ascending and names each recorded key once, so a harness that
// walks a listing makes the same choices on every run.
func TestExtentCenterListingsAreAscending(t *testing.T) {
	f := func(extents, nodes []uint8) bool {
		c := NewExtentCenter()
		wantExtents := make(map[ExtentID]bool)
		wantOf := make(map[NodeID]map[ExtentID]bool)
		for i := 0; i < len(extents) && i < len(nodes); i++ {
			e, n := ExtentID(extents[i]), NodeID(nodes[i])
			c.Add(e, n)
			wantExtents[e] = true
			if wantOf[n] == nil {
				wantOf[n] = make(map[ExtentID]bool)
			}
			wantOf[n][e] = true
		}
		got := c.Extents()
		if !ascending(got) || len(got) != len(wantExtents) {
			return false
		}
		for _, e := range got {
			if !wantExtents[e] || !ascending(c.Locations(e)) || len(c.Locations(e)) != c.Count(e) {
				return false
			}
		}
		for n, want := range wantOf {
			of := c.ExtentsOf(n)
			if !ascending(of) || len(of) != len(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Nodes lists every touched node once, ascending, whatever order
// the heartbeats arrived in.
func TestExtentNodeMapNodesAreAscending(t *testing.T) {
	f := func(touched []uint8) bool {
		m := NewExtentNodeMap()
		want := make(map[NodeID]bool)
		for i, n := range touched {
			m.Touch(NodeID(n), int64(i))
			want[NodeID(n)] = true
		}
		got := m.Nodes()
		if !ascending(got) || len(got) != len(want) || m.Len() != len(want) {
			return false
		}
		for _, n := range got {
			if !want[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

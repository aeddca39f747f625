package dist

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// pendingPositions sums the positions waiting to be leased — derived, like
// everything pending, by asking a copy of the table until it has nothing.
func (lt *leaseTable) pendingPositions() int64 {
	c := *lt
	c.out = slices.Clone(lt.out)
	var n int64
	for {
		l, ok := c.grant(time.Time{})
		if !ok {
			return n
		}
		n += l.span.to - l.span.from
	}
}

// lowestPendingRun is what a grant must be, found position by position: the
// lowest position below limit that is not busy (resolved or leased), up to
// the next busy position, multiple of size or the limit. Empty at or beyond
// limit when nothing is pending.
func lowestPendingRun(limit, size int64, busy func(int64) bool) span {
	var want span
	for want.from < limit && busy(want.from) {
		want.from++
	}
	for want.to = want.from; want.to < limit && !busy(want.to) && (want.to == want.from || want.to%size != 0); {
		want.to++
	}
	return want
}

func TestLeaseTableGrantLowestFirst(t *testing.T) {
	now := time.Now()
	lt := newLeaseTable(100, 32, time.Second)
	var froms []int64
	for {
		l, ok := lt.grant(now)
		if !ok {
			break
		}
		froms = append(froms, l.span.from)
	}
	want := []int64{0, 32, 64, 96}
	if len(froms) != len(want) {
		t.Fatalf("granted %d leases, want %d", len(froms), len(want))
	}
	for i, f := range froms {
		if f != want[i] {
			t.Fatalf("lease %d starts at %d, want %d", i, f, want[i])
		}
	}
	if lt.outstanding() != 4 {
		t.Fatalf("outstanding = %d, want 4", lt.outstanding())
	}
	if lt.pendingPositions() != 0 {
		t.Fatalf("pendingPositions = %d, want 0", lt.pendingPositions())
	}
}

func TestLeaseTableExpireRequeues(t *testing.T) {
	now := time.Now()
	lt := newLeaseTable(64, 32, 100*time.Millisecond)
	l1, _ := lt.grant(now)
	lt.grant(now)
	if n := lt.expire(now.Add(50 * time.Millisecond)); n != 0 {
		t.Fatalf("expired %d leases before TTL, want 0", n)
	}
	if n := lt.expire(now.Add(200 * time.Millisecond)); n != 2 {
		t.Fatalf("expired %d leases after TTL, want 2", n)
	}
	// The expired positions are pending again and grant again, lowest
	// first.
	l3, ok := lt.grant(now.Add(200 * time.Millisecond))
	if !ok || l3.span.from != l1.span.from {
		t.Fatalf("re-granted span starts at %d, want %d", l3.span.from, l1.span.from)
	}
}

func TestLeaseTableReportRequeuesTail(t *testing.T) {
	now := time.Now()
	lt := newLeaseTable(32, 32, time.Second)
	l, _ := lt.grant(now)
	if !lt.report(l.id, 0, 20) { // [20, 32) unresolved
		t.Fatal("first report of [0, 20) was not fresh")
	}
	if lt.outstanding() != 0 {
		t.Fatalf("outstanding = %d after report, want 0", lt.outstanding())
	}
	l2, ok := lt.grant(now)
	if !ok || l2.span.from != 20 || l2.span.to != 32 {
		t.Fatalf("tail lease = [%d, %d), want [20, 32)", l2.span.from, l2.span.to)
	}
	// A report under an unknown (already expired) id ends no lease, and one
	// that resolves nothing new is not fresh.
	if lt.report(999, 0, 20) || lt.outstanding() != 1 {
		t.Fatalf("duplicate report under an unknown id: fresh or ended a lease (outstanding %d)", lt.outstanding())
	}
}

func TestLeaseTableResolvedSplitsPending(t *testing.T) {
	lt := newLeaseTable(100, 100, time.Second)
	lt.report(0, 40, 60)
	if got := lt.pendingPositions(); got != 80 {
		t.Fatalf("pendingPositions = %d after resolving [40, 60), want 80", got)
	}
	now := time.Now()
	l1, _ := lt.grant(now)
	if l1.span.from != 0 || l1.span.to != 40 {
		t.Fatalf("first split = [%d, %d), want [0, 40)", l1.span.from, l1.span.to)
	}
	l2, _ := lt.grant(now)
	if l2.span.from != 60 || l2.span.to != 100 {
		t.Fatalf("second split = [%d, %d), want [60, 100)", l2.span.from, l2.span.to)
	}
}

// TestNoLeaseOutgrowsItsSizeOrTheLimit: whatever expired, was half
// reported or reported twice, a grant is at most the lease size long — the
// TTL was chosen for that much work —, ends at or below the pruning limit,
// starts at the lowest pending position and overlaps nothing resolved or
// leased. Re-queued neighbours used to coalesce: eight expired 256-position
// leases with a bug known at position 100 came back as one lease [0, 2048).
func TestNoLeaseOutgrowsItsSizeOrTheLimit(t *testing.T) {
	now := time.Now()
	lt := newLeaseTable(1<<14, 256, time.Second)
	for i := 0; i < 8; i++ {
		lt.grant(now)
	}
	lt.prune(100)
	now = now.Add(2 * time.Second)
	if n := lt.expire(now); n != 8 {
		t.Fatalf("expired %d leases, want 8", n)
	}
	if l, ok := lt.grant(now); !ok || l.span != (span{0, 100}) {
		t.Fatalf("after 8 expired leases and a bug at 100 the grant is %+v, want [0, 100)", l.span)
	}

	// Position by position: what the table must say is pending.
	const total, size = 1 << 12, 16
	lt = newLeaseTable(total, size, time.Second)
	rng := rand.New(rand.NewSource(1))
	resolved := make([]bool, total)
	var granted []lease // every lease ever granted: late and duplicate reports draw from it
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			l, ok := lt.grant(now)
			want := lowestPendingRun(lt.limit, size, func(p int64) bool {
				return resolved[p] || slices.ContainsFunc(lt.out, func(o lease) bool {
					return o.id != l.id && o.span.from <= p && p < o.span.to
				})
			})
			if ok != (want.from < lt.limit) || ok && l.span != want {
				t.Fatalf("step %d: grant = %+v, %v with limit %d; want %+v", step, l.span, ok, lt.limit, want)
			}
			if ok {
				granted = append(granted, l)
			}
		case op < 8 && len(granted) > 0:
			// A full, partial or empty report; of a live, expired or
			// already reported lease.
			l := granted[rng.Intn(len(granted))]
			to := l.span.from + rng.Int63n(l.span.to-l.span.from+1)
			fresh := false
			for p := l.span.from; p < to; p++ {
				fresh = fresh || !resolved[p]
				resolved[p] = true
			}
			if got := lt.report(l.id, l.span.from, to); got != fresh {
				t.Fatalf("step %d: report of [%d, %d) fresh = %v, want %v", step, l.span.from, to, got, fresh)
			}
		case op == 8:
			now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
			lt.expire(now)
		default:
			if rng.Intn(40) == 0 { // a bug, somewhere in the top eighth of what is left
				lt.prune(lt.limit - rng.Int63n(lt.limit/8+1))
			}
		}
	}
	if len(granted) < 500 {
		t.Fatalf("only %d grants in 4000 steps; the walk is not exercising the table", len(granted))
	}
}

func TestLeaseTablePrune(t *testing.T) {
	lt := newLeaseTable(100, 10, time.Second)
	lt.prune(25)
	if got := lt.pendingPositions(); got != 25 {
		t.Fatalf("pendingPositions = %d after prune(25), want 25", got)
	}
	now := time.Now()
	var last int64
	for {
		l, ok := lt.grant(now)
		if !ok {
			break
		}
		last = l.span.to
	}
	if last != 25 {
		t.Fatalf("highest granted position = %d, want 25", last)
	}
}

func TestIntervals(t *testing.T) {
	var iv intervals
	if iv.frontier() != 0 || iv.total() != 0 {
		t.Fatal("empty intervals should have zero frontier and total")
	}
	iv.add(10, 20)
	if iv.frontier() != 0 {
		t.Fatalf("frontier = %d with a gap at 0, want 0", iv.frontier())
	}
	iv.add(0, 5)
	if iv.frontier() != 5 {
		t.Fatalf("frontier = %d, want 5", iv.frontier())
	}
	iv.add(5, 10) // bridges the gap
	if iv.frontier() != 20 {
		t.Fatalf("frontier = %d after bridging, want 20", iv.frontier())
	}
	if iv.total() != 20 {
		t.Fatalf("total = %d, want 20", iv.total())
	}
	if iv.add(3, 12) || iv.add(7, 7) { // fully contained overlap; empty
		t.Fatal("add reported growth for a span that adds no coverage")
	}
	if iv.total() != 20 || len(iv.spans) != 1 {
		t.Fatalf("overlap re-add changed coverage: total=%d spans=%d", iv.total(), len(iv.spans))
	}
	if !iv.covered(20) || iv.covered(21) {
		t.Fatal("covered() disagrees with frontier")
	}
	if !iv.add(15, 25) || !iv.add(30, 31) || iv.total() != 26 || len(iv.spans) != 2 {
		t.Fatalf("overhanging and detached adds: total=%d spans=%d, want 26 in 2", iv.total(), len(iv.spans))
	}
}

package dist

import (
	"slices"
	"sort"
	"time"
)

// span is a half-open global position range [from, to).
type span struct {
	from, to int64
}

// lease is one outstanding grant of a span to an agent.
type lease struct {
	id      int64
	span    span
	agent   string
	expires time.Time
}

// leaseTable owns the undone portion of the plan. It stores three facts —
// the resolved positions, the live leases (sorted by from, disjoint) and
// the limit at or beyond which work is superseded — and nothing per
// position or per lease slot not yet handed out: what is pending is derived
// from those three when an agent asks. All methods require external
// locking — the coordinator serializes access under its own mutex.
//
// Work-stealing is pull-model and lowest-first: grant hands out the lowest
// pending positions, so the positions that decide first-bug-wins resolve
// earliest and straggler re-issues converge on the frontier.
type leaseTable struct {
	size     int64
	ttl      time.Duration
	nextID   int64
	limit    int64
	resolved intervals
	out      []lease
}

// newLeaseTable covers [0, total) with leases of at most leaseSize
// positions.
func newLeaseTable(total, leaseSize int64, ttl time.Duration) *leaseTable {
	return &leaseTable{size: leaseSize, ttl: ttl, nextID: 1, limit: total}
}

// grant leases the lowest run of positions below the limit that is neither
// resolved nor leased, cut at the next multiple of the lease size — so an
// undisturbed plan is handed out in aligned spans, and no lease is longer
// than the size the TTL was chosen for or reaches the limit, whatever
// expired or was half-reported before. ok is false when nothing is pending
// (outstanding leases may still be in flight).
func (lt *leaseTable) grant(agent string, now time.Time) (lease, bool) {
	var from int64
	r, o := lt.resolved.spans, lt.out
	for {
		if len(r) > 0 && r[0].from <= from {
			from, r = max(from, r[0].to), r[1:]
		} else if len(o) > 0 && o[0].span.from <= from {
			from, o = max(from, o[0].span.to), o[1:]
		} else {
			break
		}
	}
	if from >= lt.limit {
		return lease{}, false
	}
	to := min(from-from%lt.size+lt.size, lt.limit)
	if len(r) > 0 {
		to = min(to, r[0].from)
	}
	if len(o) > 0 {
		to = min(to, o[0].span.from)
	}
	l := lease{id: lt.nextID, span: span{from, to}, agent: agent, expires: now.Add(lt.ttl)}
	lt.nextID++
	lt.out = slices.Insert(lt.out, len(lt.out)-len(o), l)
	return l, true
}

// expire drops every lease past its TTL, returning how many; their
// positions are pending again by derivation. A late report for an expired
// lease is still ingested (results are deterministic, so duplicates are
// identical), and what it resolves is not run again.
func (lt *leaseTable) expire(now time.Time) int {
	n := len(lt.out)
	lt.out = slices.DeleteFunc(lt.out, func(l lease) bool { return now.After(l.expires) })
	return n - len(lt.out)
}

// report ends a lease and marks [from, resolvedTo) resolved, reporting
// whether that covered anything new; the lease's unresolved tail is pending
// again. Unknown ids (already expired and re-issued) are fine.
func (lt *leaseTable) report(id, from, resolvedTo int64) bool {
	lt.out = slices.DeleteFunc(lt.out, func(l lease) bool { return l.id == id })
	return lt.resolved.add(from, resolvedTo)
}

// prune lowers the limit: positions at or beyond it are work a winning bug
// made irrelevant. Outstanding leases are left alone; their agents see the
// lowered stop bound and abandon the tail themselves.
func (lt *leaseTable) prune(limit int64) {
	lt.limit = min(lt.limit, limit)
}

// outstanding is the number of live leases.
func (lt *leaseTable) outstanding() int { return len(lt.out) }

// intervals is a sorted, disjoint, coalesced set of spans: the resolved
// positions, from which coverage and the contiguous frontier are read.
type intervals struct {
	spans []span
}

// add merges [from, to) into the set and reports whether coverage grew.
func (iv *intervals) add(from, to int64) bool {
	if from >= to {
		return false
	}
	// spans[i:j] are the ones [from, to) overlaps or touches.
	i := sort.Search(len(iv.spans), func(i int) bool { return iv.spans[i].to >= from })
	j := i
	for j < len(iv.spans) && iv.spans[j].from <= to {
		j++
	}
	if j == i+1 && iv.spans[i].from <= from && to <= iv.spans[i].to {
		return false
	}
	if i < j {
		from, to = min(from, iv.spans[i].from), max(to, iv.spans[j-1].to)
	}
	iv.spans = slices.Replace(iv.spans, i, j, span{from, to})
	return true
}

// frontier is the end of contiguous coverage from 0.
func (iv *intervals) frontier() int64 {
	if len(iv.spans) == 0 || iv.spans[0].from > 0 {
		return 0
	}
	return iv.spans[0].to
}

// covered reports whether [0, limit) is fully resolved.
func (iv *intervals) covered(limit int64) bool {
	return iv.frontier() >= limit
}

// total sums the resolved positions.
func (iv *intervals) total() int64 {
	var n int64
	for _, s := range iv.spans {
		n += s.to - s.from
	}
	return n
}

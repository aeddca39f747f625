package mtable

import "fmt"

// streamPageSize is the backend prefetch page size of virtual-table
// streams. A small page keeps plenty of scheduling points in every
// streamed read, which is what lets the testing engine race the migrator
// against in-flight streams.
const streamPageSize = 2

// QueryStream opens a streamed read of the virtual partition. The stream
// merges paged scans of the old and new backend tables: new-table rows
// shadow old-table rows, tombstones hide deleted rows, and — because the
// backend pages can go stale while the migrator moves rows — every
// old-table candidate is re-checked against the new table ("backing up the
// new stream") before it is emitted.
//
// The stream registers with the StreamGuard so the migrator's tombstone
// cleanup waits for it; callers must Close the stream.
func (mt *MigratingTable) QueryStream(q Query) (RowStream, error) {
	if q.Partition == "" {
		return nil, fmt.Errorf("%w: stream requires a partition", ErrBadRequest)
	}
	s := &vtStream{mt: mt, q: q}
	if !mt.bugs.Has(BugQueryStreamedLock) {
		// BUG QueryStreamedLock: without this registration the migrator's
		// cleanup does not wait for the stream, and rows deleted before
		// the stream started can resurrect from stale old-table pages.
		mt.guard.Register()
		s.registered = true
	}
	var pushFilter *Filter
	if mt.bugs.Has(BugQueryStreamedFilterShadowing) {
		// BUG: pushing the user filter down to the backend streams breaks
		// shadowing, exactly as in the atomic-query sibling bug.
		pushFilter = q.Filter
	}
	s.old = pager{backend: mt.old, partition: q.Partition, filter: pushFilter}
	s.new = pager{backend: mt.new, partition: q.Partition, filter: pushFilter}
	return s, nil
}

// pager is a paged scan over one backend table: a prefetch buffer over
// FetchPage. Pages reflect the table state at fetch time, so buffered rows
// go stale — which is precisely the hazard the virtual stream has to
// manage.
type pager struct {
	backend   Backend
	partition string
	filter    *Filter
	// buf is what is left of the current page; page is the page's read
	// buffer, which the next fetch reuses once buf is spent or dropped.
	buf, page []Row
	after     string
	done      bool
	fetches   int
}

// peek returns the next buffered row without consuming it, fetching a page
// if needed. ok is false when the scan is exhausted.
func (p *pager) peek() (Row, bool, error) {
	for len(p.buf) == 0 {
		if p.done {
			return Row{}, false, nil
		}
		page, err := p.backend.FetchPage(p.page[:0], p.partition, p.after, p.filter, streamPageSize)
		if err != nil {
			return Row{}, false, err
		}
		p.page = page
		p.fetches++
		if len(page) == 0 {
			p.done = true
			return Row{}, false, nil
		}
		p.after = page[len(page)-1].Key.Row
		p.buf = page
	}
	return p.buf[0], true, nil
}

// pop consumes the head row (peek must have succeeded).
func (p *pager) pop() Row {
	row := p.buf[0]
	p.buf = p.buf[1:]
	return row
}

// reposition discards the buffer and restarts the scan strictly after the
// given key — "backing up" (or forwarding) the stream to a trusted
// position.
func (p *pager) reposition(after string) {
	p.buf = nil
	p.after = after
	p.done = false
}

// vtStream is the merged virtual-table stream.
type vtStream struct {
	mt  *MigratingTable
	q   Query
	old pager
	new pager
	// cursor is the last row key processed (emitted or skipped); the
	// merge only moves forward.
	cursor     string
	registered bool
	closed     bool
}

// Next returns the next virtual row in key order.
func (s *vtStream) Next() (Row, bool, error) {
	if s.closed {
		return Row{}, false, fmt.Errorf("%w: stream closed", ErrBadRequest)
	}
	backUp := !s.mt.bugs.Has(BugQueryStreamedBackUpNewStream)
	for {
		oldFetchesBefore := s.old.fetches
		oldRow, oldOK, err := s.old.peek()
		if err != nil {
			return Row{}, false, err
		}
		if backUp && s.old.fetches != oldFetchesBefore {
			// The old scan just fetched a fresh page; rows the migrator
			// copied into the new table since our last new-table page may
			// fall inside it. Re-read the new table from the cursor so
			// the merge can't run on a stale view.
			// BUG QueryStreamedBackUpNewStream: skipping this (and the
			// point check below) loses rows that the migrator moved
			// behind the stream's back.
			s.new.reposition(s.cursor)
		}
		newRow, newOK, err := s.new.peek()
		if err != nil {
			return Row{}, false, err
		}

		var row Row
		var fromOld bool
		switch {
		case !oldOK && !newOK:
			return Row{}, false, nil
		case oldOK && (!newOK || oldRow.Key.Row < newRow.Key.Row):
			row, fromOld = s.old.pop(), true
		case oldOK && newOK && oldRow.Key.Row == newRow.Key.Row:
			// Same key on both sides: the new table shadows.
			s.old.pop()
			row, fromOld = s.new.pop(), false
		default:
			row, fromOld = s.new.pop(), false
		}
		s.cursor = row.Key.Row

		if isReservedRow(row.Key.Row) {
			continue
		}
		if fromOld && backUp {
			// Point-check the new table: the old row may have been
			// shadowed or tombstoned after our pages were fetched.
			checked, err := read(s.mt.new, &s.mt.pointRows, Query{
				Partition: s.q.Partition, RowFrom: row.Key.Row, RowTo: row.Key.Row,
			})
			if err != nil {
				return Row{}, false, err
			}
			if len(checked) == 1 {
				if isTombstone(checked[0].Props) {
					continue // deleted: the tombstone hides the old row
				}
				row = checked[0] // shadowed: emit the new version
			}
		}
		if isTombstone(row.Props) {
			continue
		}
		if !s.q.inRange(row.Key.Row) {
			if s.q.RowTo != "" && row.Key.Row > s.q.RowTo {
				return Row{}, false, nil
			}
			continue
		}
		props := userProps(row.Props)
		if !s.mt.bugs.Has(BugQueryStreamedFilterShadowing) && !s.q.Filter.Matches(props) {
			continue
		}
		return Row{Key: row.Key, Props: props, ETag: vetagOf(row)}, true, nil
	}
}

// Close releases the stream and its guard registration. Idempotent.
func (s *vtStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.registered {
		s.mt.guard.Deregister()
		s.registered = false
	}
}

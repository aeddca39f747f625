package mtable

import (
	"fmt"
	"slices"
)

// RefTable is an in-memory chain table: the reference implementation of
// the specification. The paper's harness uses the same reference
// implementation twice — as the two backend tables under the
// MigratingTable, and as the oracle the virtual table's outputs are
// compared against — and so does this one.
//
// Partitions and their rows are kept as sorted slices: a partition holds a
// handful of rows, reads hand them out in row-key order without sorting,
// and nothing about the table depends on a map's iteration order. Rows are
// stored as given and handed out as stored (see the package comment).
//
// A RefTable has one owner and no lock: it must not be used from two
// goroutines at once. The harness's Tables machine owns all three of an
// execution's tables, and the engine runs one machine at a time.
type RefTable struct {
	parts []partition // ascending name
	etag  int64
}

// partition is one partition's rows, ascending by row key.
type partition struct {
	name string
	rows []Row
}

// NewRefTable returns an empty table.
func NewRefTable() *RefTable { return &RefTable{} }

// Clone returns an independent copy of the table: writes to either leave
// the other unchanged. Rows are immutable values, so only the slices that
// hold them are copied.
func (t *RefTable) Clone() *RefTable {
	c := &RefTable{parts: make([]partition, len(t.parts)), etag: t.etag}
	for i, p := range t.parts {
		c.parts[i] = partition{name: p.name, rows: slices.Clone(p.rows)}
	}
	return c
}

var _ Backend = (*RefTable)(nil)

// nextETag returns a fresh, strictly increasing etag.
func (t *RefTable) nextETag() int64 {
	t.etag++
	return t.etag
}

// rows returns the partition's rows (nil if the partition is empty).
func (t *RefTable) rows(name string) []Row {
	if i, ok := t.findPartition(name); ok {
		return t.parts[i].rows
	}
	return nil
}

// findPartition returns the position of the named partition, or where it
// would be inserted. A table holds a handful of partitions, so the scan is
// linear.
func (t *RefTable) findPartition(name string) (int, bool) {
	for i, p := range t.parts {
		if p.name >= name {
			return i, p.name == name
		}
	}
	return len(t.parts), false
}

// findRow returns the position of the row key in rows (ascending by row
// key), or where it would be inserted. A partition holds a handful of
// rows, so the scan is linear.
func findRow(rows []Row, rowKey string) (int, bool) {
	for i, r := range rows {
		if r.Key.Row >= rowKey {
			return i, r.Key.Row == rowKey
		}
	}
	return len(rows), false
}

// validateBatch enforces the chain-table batch rules: 1..100 operations,
// one partition, no repeated row keys, well-formed conditions.
func (t *RefTable) validateBatch(batch []Operation) error {
	if len(batch) == 0 {
		return &BatchError{Index: 0, Err: fmt.Errorf("%w: empty batch", ErrBadRequest)}
	}
	if len(batch) > 100 {
		return &BatchError{Index: 0, Err: fmt.Errorf("%w: batch of %d exceeds 100 operations", ErrBadRequest, len(batch))}
	}
	part := batch[0].Key.Partition
	for i, op := range batch {
		if op.Key.Partition == "" || op.Key.Row == "" {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: empty key", ErrBadRequest)}
		}
		if op.Key.Partition != part {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: cross-partition batch", ErrBadRequest)}
		}
		// Duplicate detection by linear scan: batches are a handful of
		// operations (hard cap 100), where the scan beats allocating a
		// set — ExecuteBatch is on the harness's per-step hot path.
		for _, prev := range batch[:i] {
			if prev.Key.Row == op.Key.Row {
				return &BatchError{Index: i, Err: fmt.Errorf("%w: duplicate row %q in batch", ErrBadRequest, op.Key.Row)}
			}
		}
		if op.Kind.needsETag() && op.ETag == 0 {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: %s requires an etag", ErrBadRequest, op.Kind)}
		}
	}
	return nil
}

// check validates one operation's precondition against the current state.
func check(op Operation, cur Row, exists bool) error {
	switch op.Kind {
	case OpInsert:
		if exists {
			return ErrExists
		}
	case OpReplace, OpMerge, OpDelete, OpCheck:
		if !exists {
			return ErrNotFound
		}
		if op.ETag != ETagAny && op.ETag != cur.ETag {
			return ErrConflict
		}
	case OpInsertOrReplace, OpInsertOrMerge:
		// Unconditional.
	default:
		return fmt.Errorf("%w: unknown operation kind %d", ErrBadRequest, int(op.Kind))
	}
	return nil
}

// ExecuteBatch atomically applies the batch: every precondition is checked
// against the pre-batch state; on any failure nothing is applied and a
// BatchError identifies the first failing operation.
func (t *RefTable) ExecuteBatch(batch []Operation) ([]OpResult, error) {
	if err := t.validateBatch(batch); err != nil {
		return nil, err
	}
	name := batch[0].Key.Partition
	pi, havePart := t.findPartition(name)
	var rows []Row
	if havePart {
		rows = t.parts[pi].rows
	}
	for i, op := range batch {
		cur, exists := Row{}, false
		if ri, ok := findRow(rows, op.Key.Row); ok {
			cur, exists = rows[ri], true
		}
		if err := check(op, cur, exists); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	// All preconditions hold; apply. (Row keys are distinct within a batch,
	// so applying in order is applying at once.)
	if !havePart {
		t.parts = slices.Insert(t.parts, pi, partition{name: name})
		rows = make([]Row, 0, 8)
	}
	results := make([]OpResult, len(batch))
	for i, op := range batch {
		ri, exists := findRow(rows, op.Key.Row)
		props := op.Props
		switch op.Kind {
		case OpDelete:
			rows = slices.Delete(rows, ri, ri+1)
			continue
		case OpCheck:
			continue // guard only
		case OpMerge, OpInsertOrMerge:
			if exists {
				props = rows[ri].Props.Merge(op.Props)
			}
		}
		row := Row{Key: op.Key, Props: props, ETag: t.nextETag()}
		if exists {
			rows[ri] = row
		} else {
			rows = slices.Insert(rows, ri, row)
		}
		results[i] = OpResult{ETag: row.ETag}
	}
	t.parts[pi].rows = rows
	return results, nil
}

// QueryAtomic returns a snapshot of the partition, sorted by row key, with
// range and filter applied.
func (t *RefTable) QueryAtomic(q Query) ([]Row, error) {
	rows := t.rows(q.Partition)
	var out []Row
	for i, row := range rows {
		if !q.inRange(row.Key.Row) || !q.Filter.Matches(row.Props) {
			continue
		}
		if out == nil {
			out = make([]Row, 0, len(rows)-i)
		}
		out = append(out, row)
	}
	return out, nil
}

// FetchPage returns up to limit rows with key strictly greater than after,
// reflecting the table's current state (the paged building block of
// streamed reads).
func (t *RefTable) FetchPage(partition, after string, filter *Filter, limit int) ([]Row, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w: page limit must be positive", ErrBadRequest)
	}
	rows := t.rows(partition)
	from, found := findRow(rows, after)
	if found {
		from++
	}
	var out []Row
	for _, row := range rows[from:] {
		if !filter.Matches(row.Props) {
			continue
		}
		if out == nil {
			out = make([]Row, 0, min(limit, len(rows)-from))
		}
		out = append(out, row)
		if len(out) == limit {
			break
		}
	}
	return out, nil
}

// QueryStream returns a live paged scan of the partition: each page
// reflects the state at its fetch time, satisfying the chain-table stream
// contract. (The virtual table builds its own merged stream from
// FetchPage; this method completes RefTable's chain-table API for direct
// users.)
func (t *RefTable) QueryStream(q Query) (RowStream, error) {
	return &refStream{t: t, q: q}, nil
}

// refStream pages through the table with a small prefetch buffer.
type refStream struct {
	t      *RefTable
	q      Query
	buf    []Row
	after  string
	done   bool
	closed bool
}

const refStreamPage = 3

func (s *refStream) Next() (Row, bool, error) {
	if s.closed {
		return Row{}, false, fmt.Errorf("%w: stream closed", ErrBadRequest)
	}
	for {
		if len(s.buf) > 0 {
			row := s.buf[0]
			s.buf = s.buf[1:]
			if !s.q.inRange(row.Key.Row) || !s.q.Filter.Matches(row.Props) {
				continue
			}
			return row, true, nil
		}
		if s.done {
			return Row{}, false, nil
		}
		page, err := s.t.FetchPage(s.q.Partition, s.after, nil, refStreamPage)
		if err != nil {
			return Row{}, false, err
		}
		if len(page) == 0 {
			s.done = true
			return Row{}, false, nil
		}
		s.after = page[len(page)-1].Key.Row
		s.buf = page
	}
}

func (s *refStream) Close() { s.closed = true }

// Get returns the row at key, if present (test/tooling convenience).
func (t *RefTable) Get(key Key) (Row, bool) {
	rows := t.rows(key.Partition)
	if i, ok := findRow(rows, key.Row); ok {
		return rows[i], true
	}
	return Row{}, false
}

// Len returns the number of rows in the partition.
func (t *RefTable) Len(partition string) int {
	return len(t.rows(partition))
}

// Partitions returns the partition keys in sorted order.
func (t *RefTable) Partitions() []string {
	var out []string
	for _, p := range t.parts {
		out = append(out, p.name)
	}
	return out
}

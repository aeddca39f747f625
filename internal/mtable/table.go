// Package mtable reimplements Live Table Migration (MigratingTable, §4 of
// the paper): a virtual key-value table that transparently migrates a data
// set from an old backend table to a new one while applications keep
// reading and writing through it.
//
// The package provides, from the bottom up:
//
//   - the chain-table specification (this file): rows with etags, atomic
//     per-partition batches, atomic queries, and paged range reads — the
//     IChainTable analog;
//   - RefTable, an in-memory reference implementation used both as the
//     backend tables and as the specification oracle, exactly as in the
//     paper;
//   - MigratingTable, the virtual table that layers the migration protocol
//     over an old and a new backend; and
//   - Migrator, the background job that copies rows old→new, deletes them
//     from the old table, and advances the partition through its migration
//     phases.
//
// The eleven bugs of the paper's Table 2 are seeded behind the Bugs flags
// (bugs.go); each re-introduces one incorrect code path.
//
// Rows are values. A Row's Properties is immutable (see Properties), so
// nothing in this package copies a row defensively: RefTable stores the
// rows it is given and QueryAtomic, FetchPage and Get hand the stored rows
// out; History keeps the payloads it is shown; MigratingTable passes
// backend rows through and strips or stamps protocol columns by building a
// new payload. A caller may keep, share and compare whatever it receives
// for as long as it likes — the harness runs the same reference table
// three times per execution (old backend, new backend, oracle) and the
// three hold the same payloads. Only the slices a query returns are the
// caller's own to reorder or truncate.
package mtable

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Key identifies a row: Azure-style (partition key, row key) pairs.
// Batches and atomic queries are scoped to a single partition.
type Key struct {
	Partition string
	Row       string
}

func (k Key) String() string { return k.Partition + "/" + k.Row }

// Compare orders keys by (partition, row).
func (k Key) Compare(o Key) int {
	if c := strings.Compare(k.Partition, o.Partition); c != 0 {
		return c
	}
	return strings.Compare(k.Row, o.Row)
}

// Prop is one named integer column of a row.
type Prop struct {
	Name  string
	Value int64
}

// Properties is a row's payload: named integer columns. (The real service
// supports more types; integers keep comparison and generation simple
// without losing any concurrency behavior.)
//
// A Properties is an immutable value: the columns sorted by name, behind
// constructors that copy what they are given and methods that return a new
// value instead of changing the receiver. Nothing outside this file can
// reach the backing array, so a Properties may be stored, handed out and
// shared between any number of rows, tables, histories and machines
// without a copy — the aliasing is safe by construction, not by audit —
// and iteration order is the name order, never a map's. The zero value is
// the empty payload.
type Properties struct {
	ps []Prop // ascending, distinct names; never written after construction
}

// Props builds a payload from pairs (copied; a later pair wins over an
// earlier one of the same name).
func Props(pairs ...Prop) Properties {
	if len(pairs) == 0 {
		return Properties{}
	}
	ps := slices.Clone(pairs)
	slices.SortStableFunc(ps, func(a, b Prop) int { return strings.Compare(a.Name, b.Name) })
	out := ps[:1]
	for _, p := range ps[1:] {
		if last := &out[len(out)-1]; last.Name == p.Name {
			last.Value = p.Value
		} else {
			out = append(out, p)
		}
	}
	return Properties{ps: out}
}

// search returns the position of name, or where it would be inserted. A
// row holds a handful of columns, so the scan is linear.
func (p Properties) search(name string) (int, bool) {
	for i, e := range p.ps {
		if e.Name >= name {
			return i, e.Name == name
		}
	}
	return len(p.ps), false
}

// Get returns the named column.
func (p Properties) Get(name string) (int64, bool) {
	if i, ok := p.search(name); ok {
		return p.ps[i].Value, true
	}
	return 0, false
}

// With returns the payload with the named column set to value.
func (p Properties) With(name string, value int64) Properties {
	i, ok := p.search(name)
	if ok && p.ps[i].Value == value {
		return p
	}
	n := len(p.ps)
	if !ok {
		n++
	}
	ps := make([]Prop, 0, n)
	ps = append(ps, p.ps[:i]...)
	ps = append(ps, Prop{name, value})
	if ok {
		i++
	}
	return Properties{ps: append(ps, p.ps[i:]...)}
}

// Without returns the payload less the named column. Dropping the first
// or last column shares the receiver's backing array — sound because no
// payload is ever written after construction.
func (p Properties) Without(name string) Properties {
	i, ok := p.search(name)
	switch {
	case !ok:
		return p
	case i == 0:
		return Properties{ps: p.ps[1:]}
	case i == len(p.ps)-1:
		return Properties{ps: p.ps[:i]}
	}
	ps := make([]Prop, 0, len(p.ps)-1)
	ps = append(ps, p.ps[:i]...)
	return Properties{ps: append(ps, p.ps[i+1:]...)}
}

// Merge returns the payload overlaid with o's columns: the upsert of the
// chain-table merge operations.
func (p Properties) Merge(o Properties) Properties {
	switch {
	case len(o.ps) == 0:
		return p
	case len(p.ps) == 0:
		return o
	}
	ps := make([]Prop, 0, len(p.ps)+len(o.ps))
	i, j := 0, 0
	for i < len(p.ps) && j < len(o.ps) {
		switch c := strings.Compare(p.ps[i].Name, o.ps[j].Name); {
		case c < 0:
			ps = append(ps, p.ps[i])
			i++
		case c > 0:
			ps = append(ps, o.ps[j])
			j++
		default:
			ps = append(ps, o.ps[j])
			i++
			j++
		}
	}
	ps = append(ps, p.ps[i:]...)
	return Properties{ps: append(ps, o.ps[j:]...)}
}

// Equal reports whether two payloads hold the same columns.
func (p Properties) Equal(o Properties) bool { return slices.Equal(p.ps, o.ps) }

// String renders the payload the way fmt renders the map it models,
// "map[a:1 b:2]" — violation messages quote payloads, and the schedule
// goldens pin those messages.
func (p Properties) String() string {
	var b strings.Builder
	b.WriteString("map[")
	for i, e := range p.ps {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(e.Value, 10))
	}
	b.WriteByte(']')
	return b.String()
}

// Row is one stored row. ETag is a server-assigned version used for
// optimistic concurrency: it changes on every mutation. A Row is a value
// all the way down (see Properties): tables store the rows they are given
// and hand the stored rows out.
type Row struct {
	Key   Key
	Props Properties
	ETag  int64
}

// ETagAny is the wildcard etag condition ("*"): the operation applies to
// whatever version currently exists.
const ETagAny int64 = -1

// OpKind enumerates the chain-table write operations.
type OpKind int

const (
	// OpInsert adds a row; it fails with ErrExists if the key is taken.
	OpInsert OpKind = iota
	// OpReplace overwrites an existing row's properties; requires an etag.
	OpReplace
	// OpMerge upserts the given properties into an existing row.
	OpMerge
	// OpDelete removes an existing row; requires an etag.
	OpDelete
	// OpInsertOrReplace unconditionally upserts the row.
	OpInsertOrReplace
	// OpInsertOrMerge unconditionally merges into the row.
	OpInsertOrMerge
	// OpCheck validates that the row exists with the given etag and
	// mutates nothing. Backends use it as a batch guard (the real system
	// encodes guards as no-op merges).
	OpCheck
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpReplace:
		return "replace"
	case OpMerge:
		return "merge"
	case OpDelete:
		return "delete"
	case OpInsertOrReplace:
		return "insertOrReplace"
	case OpInsertOrMerge:
		return "insertOrMerge"
	case OpCheck:
		return "check"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// needsETag reports whether the operation kind requires an etag condition.
func (k OpKind) needsETag() bool {
	switch k {
	case OpReplace, OpMerge, OpDelete, OpCheck:
		return true
	default:
		return false
	}
}

// Operation is one element of a batch.
type Operation struct {
	Kind  OpKind
	Key   Key
	Props Properties
	// ETag is the concurrency condition for Replace/Merge/Delete/Check:
	// a specific version or ETagAny.
	ETag int64
}

// OpResult reports the outcome of one successful operation: the row's new
// etag (0 for deletes and checks).
type OpResult struct {
	ETag int64
}

// Chain-table errors. BatchError wraps them with the failing index.
var (
	// ErrExists: insert of an existing key.
	ErrExists = errors.New("entity already exists")
	// ErrNotFound: conditional operation on an absent key.
	ErrNotFound = errors.New("entity not found")
	// ErrConflict: etag mismatch.
	ErrConflict = errors.New("etag mismatch")
	// ErrBadRequest: malformed operation or batch.
	ErrBadRequest = errors.New("bad request")
)

// BatchError identifies the first failing operation of a batch; the batch
// is atomic, so nothing was applied.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("batch failed at operation %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is.
func (e *BatchError) Unwrap() error { return e.Err }

// asBatchError is errors.As for a *BatchError. A batch's own failure is
// the error itself, so that case is answered without errors.As, whose
// target would escape to the heap on every call.
func asBatchError(err error) (*BatchError, bool) {
	if be, ok := err.(*BatchError); ok {
		return be, true
	}
	var be *BatchError
	return be, errors.As(err, &be)
}

// ErrorCode normalizes an error for output comparison between the virtual
// table and the reference table (etags differ between the two, error
// shapes must not): "conflict@1" for a batch that failed at operation 1 on
// an etag mismatch, "notfound" for a failure outside a batch, and so on.
// Both sides of every logical write in the harness normalize their
// outcome, so the codes of a batch's first few indices come from a table
// and a code allocates nothing.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	idx := -1
	if be, ok := asBatchError(err); ok {
		idx = be.Index
	}
	c := 0 // "error"
	for i, sentinel := range codeErrors {
		if errors.Is(err, sentinel) {
			c = i + 1
			break
		}
	}
	switch {
	case idx < 0:
		return errorCodes[c][0]
	case idx < len(errorCodes[c])-1:
		return errorCodes[c][idx+1]
	}
	return errorCodes[c][0] + "@" + strconv.Itoa(idx)
}

// codeErrors are the errors ErrorCode names, in errorCodes' order after
// the catch-all "error".
var codeErrors = [...]error{ErrExists, ErrNotFound, ErrConflict, ErrBadRequest}

// errorCodes[c] is code c alone, then code c at batch indices 0, 1, ...
var errorCodes = func() (out [1 + len(codeErrors)][9]string) {
	for c, code := range [...]string{"error", "exists", "notfound", "conflict", "badrequest"} {
		out[c][0] = code
		for i := 1; i < len(out[c]); i++ {
			out[c][i] = code + "@" + strconv.Itoa(i-1)
		}
	}
	return out
}()

// Filter restricts a query to rows whose named property lies in
// [Min, Max]. Rows missing the property never match.
type Filter struct {
	Prop string
	Min  int64
	Max  int64
}

// Matches reports whether the row satisfies the filter (nil matches all).
func (f *Filter) Matches(props Properties) bool {
	if f == nil {
		return true
	}
	v, ok := props.Get(f.Prop)
	return ok && v >= f.Min && v <= f.Max
}

// Query describes an atomic (snapshot) read of one partition.
type Query struct {
	Partition string
	// RowFrom/RowTo bound the row-key range (inclusive; empty = open).
	RowFrom, RowTo string
	// Filter optionally restricts returned rows.
	Filter *Filter
}

// inRange reports whether a row key falls inside the query's range.
func (q Query) inRange(row string) bool {
	if q.RowFrom != "" && row < q.RowFrom {
		return false
	}
	if q.RowTo != "" && row > q.RowTo {
		return false
	}
	return true
}

// Backend is the interface the MigratingTable requires of its two backend
// tables. RefTable implements it directly; the systematic-test harness
// implements it with a stub that relays every call through the Tables
// machine, turning each backend operation into a scheduling point.
//
// Every method appends its answer to a dst the caller passes, so a caller
// that is done with one answer before its next call into the same buffer
// reuses it (buf[:0]) instead of allocating a slice a call; nil asks for a
// fresh one. The MigratingTable, the Migrator, the stream and the harness's
// clients each answer into buffers of their own, one per use that overlaps
// another.
type Backend interface {
	// ExecuteBatch atomically applies a batch to one partition, appending
	// one result per operation to dst, and returns the extended slice
	// (dst itself on an error).
	ExecuteBatch(dst []OpResult, batch []Operation) ([]OpResult, error)
	// QueryAtomic appends a consistent snapshot of one partition, sorted
	// by row key, to dst and returns the extended slice.
	QueryAtomic(dst []Row, q Query) ([]Row, error)
	// FetchPage appends up to limit live rows of the partition with row
	// key strictly greater than after, sorted ascending — the paged
	// building block of streamed reads — to dst and returns the extended
	// slice.
	FetchPage(dst []Row, partition, after string, filter *Filter, limit int) ([]Row, error)
}

// RowStream is a streamed read of the virtual table: rows arrive in row-key
// order, and each row may reflect the table state at any moment between
// the stream's start and the row's read — the weak consistency contract of
// the chain-table specification.
type RowStream interface {
	// Next returns the next row; ok is false at end of stream.
	Next() (row Row, ok bool, err error)
	// Close releases the stream (deregistering it from the migration
	// coordination guard). Close is idempotent.
	Close()
}

// Reserved name helpers: rows and properties used by the migration
// protocol itself are hidden from users of the virtual table.

// metaRowKey is the per-partition migration metadata row. The "!" prefix
// sorts before all user keys and is reserved.
const metaRowKey = "!meta"

// tombstoneProp marks a row in the new table as a deletion marker for a
// key that may still exist in the old table.
const tombstoneProp = "_tombstone"

// phaseProp and versionProp are the metadata row's columns.
const (
	phaseProp   = "_phase"
	versionProp = "_version"
)

// isReservedRow reports whether the row key is protocol-internal.
func isReservedRow(row string) bool { return strings.HasPrefix(row, "!") }

// isTombstone reports whether the properties mark a tombstone.
func isTombstone(props Properties) bool {
	_, ok := props.search(tombstoneProp)
	return ok
}

// ValidateUserRow rejects keys and properties that collide with the
// protocol's reserved names.
func ValidateUserRow(key Key, props Properties) error {
	if key.Partition == "" || key.Row == "" {
		return fmt.Errorf("%w: empty partition or row key", ErrBadRequest)
	}
	if isReservedRow(key.Row) {
		return fmt.Errorf("%w: row key %q is reserved", ErrBadRequest, key.Row)
	}
	for _, p := range props.ps {
		if p.Name == "" || strings.HasPrefix(p.Name, "_") {
			return fmt.Errorf("%w: property %q is reserved", ErrBadRequest, p.Name)
		}
	}
	return nil
}

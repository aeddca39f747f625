package mtable

import (
	"errors"
	"fmt"
)

// MigratingTable is the virtual table (VT): it presents the chain-table
// interface over an old and a new backend table while a Migrator moves the
// data set between them. Each application process creates its own instance
// referring to the same backends; instances coordinate only through the
// backend tables' migration metadata rows and the StreamGuard.
//
// Virtual etags: a row's VT etag is a hidden property (carried through
// migration copies unchanged) rather than the backend etag, so migrating a
// row does not spuriously invalidate etags clients hold. Backend etags are
// still used as optimistic-concurrency conditions on every backend write.
type MigratingTable struct {
	old   Backend
	new   Backend
	guard *StreamGuard
	bugs  Bugs
	rep   Reporter

	// instance distinguishes this MT's fresh virtual etags from other
	// instances'.
	instance int64
	vetagSeq int64

	cache map[string]*partitionCache
}

// vetagProp stores the virtual etag on backend rows.
const vetagProp = "_vetag"

// SeedBackendRow returns the backend representation of a pre-migration
// row: the user properties plus the hidden virtual etag. Deployments (and
// test fixtures) seeding the old table directly must use it so rows carry
// virtual etags from the start.
func SeedBackendRow(props Properties, vetag int64) Properties {
	return props.With(vetagProp, vetag)
}

// maxAttempts bounds the internal retry loop that absorbs benign races
// (phase transitions, promotion collisions). Migration advances through at
// most three transitions and per-key races resolve, so the bound is never
// reached by correct executions of the harness workloads.
const maxAttempts = 20

// NewMigratingTable builds a virtual table over the two backends.
// instance must be unique among concurrently running MT instances; rep may
// be NopReporter.
func NewMigratingTable(old, new Backend, guard *StreamGuard, instance int64, bugs Bugs, rep Reporter) *MigratingTable {
	if rep == nil {
		rep = NopReporter
	}
	return &MigratingTable{
		old:      old,
		new:      new,
		guard:    guard,
		bugs:     bugs,
		rep:      rep,
		instance: instance,
		cache:    make(map[string]*partitionCache),
	}
}

// freshVETag mints a new virtual etag, unique across instances.
func (mt *MigratingTable) freshVETag() int64 {
	mt.vetagSeq++
	return mt.instance<<32 | mt.vetagSeq
}

// cacheFor returns (creating if needed) the partition's cached state.
func (mt *MigratingTable) cacheFor(partition string) *partitionCache {
	c := mt.cache[partition]
	if c == nil {
		c = &partitionCache{}
		mt.cache[partition] = c
	}
	return c
}

// refreshCache re-reads the partition's migration metadata.
func (mt *MigratingTable) refreshCache(partition string) error {
	c := mt.cacheFor(partition)
	metaRows, err := mt.new.QueryAtomic(Query{Partition: partition, RowFrom: metaRowKey, RowTo: metaRowKey})
	if err != nil {
		return err
	}
	if len(metaRows) != 1 {
		return fmt.Errorf("%w: partition %q has no migration metadata", ErrBadRequest, partition)
	}
	phase, version, err := parseMeta(metaRows[0].Props)
	if err != nil {
		return err
	}
	c.phase, c.version, c.valid = phase, version, true
	if phase == PhasePreferOld {
		oldMeta, err := mt.old.QueryAtomic(Query{Partition: partition, RowFrom: metaRowKey, RowTo: metaRowKey})
		if err != nil {
			return err
		}
		if len(oldMeta) == 1 {
			// Hand-over window: the migrator freezes the old table before
			// announcing in the new one, so a flipped old meta is an
			// authoritative "migration started" signal even while the new
			// table still says PreferOld.
			ophase, oversion, err := parseMeta(oldMeta[0].Props)
			if err != nil {
				return err
			}
			if ophase != PhasePreferOld {
				c.phase, c.version = ophase, oversion
			}
		}
	}
	return nil
}

// ensureCache refreshes the cache if it has never been loaded.
func (mt *MigratingTable) ensureCache(partition string) (*partitionCache, error) {
	c := mt.cacheFor(partition)
	if !c.valid {
		if err := mt.refreshCache(partition); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// validateUserBatch enforces the chain-table batch rules plus the virtual
// table's reserved-name rules.
func validateUserBatch(batch []Operation) error {
	if len(batch) == 0 {
		return &BatchError{Index: 0, Err: fmt.Errorf("%w: empty batch", ErrBadRequest)}
	}
	if len(batch) > 99 {
		// One backend slot is reserved for the metadata guard.
		return &BatchError{Index: 0, Err: fmt.Errorf("%w: batch too large", ErrBadRequest)}
	}
	part := batch[0].Key.Partition
	for i, op := range batch {
		if err := ValidateUserRow(op.Key, op.Props); err != nil {
			return &BatchError{Index: i, Err: err}
		}
		if op.Key.Partition != part {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: cross-partition batch", ErrBadRequest)}
		}
		// Linear duplicate scan, as in RefTable.validateBatch.
		for _, prev := range batch[:i] {
			if prev.Key.Row == op.Key.Row {
				return &BatchError{Index: i, Err: fmt.Errorf("%w: duplicate row %q", ErrBadRequest, op.Key.Row)}
			}
		}
		if op.Kind.needsETag() && op.ETag == 0 {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: %s requires an etag", ErrBadRequest, op.Kind)}
		}
	}
	return nil
}

// ExecuteBatch atomically applies a logical batch to the virtual table.
func (mt *MigratingTable) ExecuteBatch(batch []Operation) ([]OpResult, error) {
	if err := validateUserBatch(batch); err != nil {
		return nil, err
	}
	partition := batch[0].Key.Partition
	for attempt := 0; attempt < maxAttempts; attempt++ {
		c, err := mt.ensureCache(partition)
		if err != nil {
			return nil, err
		}
		var res []OpResult
		var logicalErr error
		var retry bool
		if c.phase == PhasePreferOld {
			res, logicalErr, retry, err = mt.executeOld(partition, batch, c)
		} else {
			res, logicalErr, retry, err = mt.executeNew(partition, batch, c)
		}
		if err != nil {
			return nil, err
		}
		if retry {
			continue
		}
		return res, logicalErr
	}
	return nil, fmt.Errorf("%w: batch did not converge after %d attempts", ErrBadRequest, maxAttempts)
}

// resident describes where a virtual row currently lives.
type resident struct {
	inNew     bool // live row in the new table
	inOld     bool // live row in the old table (and nothing in new)
	tombstone bool // tombstone in the new table
	// stored is the resident backend row's payload, protocol columns and
	// all; only the operations that build on it (merge into, or promote,
	// an old-table resident) pay for stripping them.
	stored  Properties
	vetag   int64
	backend int64 // backend etag of the resident (or tombstone) row
}

// userProps strips protocol properties from a backend row's payload.
func userProps(props Properties) Properties {
	return props.Without(vetagProp).Without(tombstoneProp)
}

// vetagOf extracts a backend row's virtual etag.
func vetagOf(row Row) int64 {
	v, _ := row.Props.Get(vetagProp)
	return v
}

// liveResident describes a live backend row.
func liveResident(row Row) resident {
	return resident{stored: row.Props, vetag: vetagOf(row), backend: row.ETag}
}

// residentOf resolves a key's residency from pre-read snapshots (sorted by
// row key, as the backends return them). oldRows may be nil for phases
// past PhasePreferNew.
func residentOf(key Key, newRows, oldRows []Row, phase Phase) resident {
	if i, ok := findRow(newRows, key.Row); ok {
		nr := newRows[i]
		if isTombstone(nr.Props) {
			return resident{tombstone: true, backend: nr.ETag}
		}
		r := liveResident(nr)
		r.inNew = true
		return r
	}
	if phase <= PhasePreferNew {
		if i, ok := findRow(oldRows, key.Row); ok {
			r := liveResident(oldRows[i])
			r.inOld = true
			return r
		}
	}
	return resident{}
}

// exists reports whether the virtual row exists.
func (r resident) exists() bool { return r.inNew || r.inOld }

// checkUserCondition validates a user operation's logical precondition
// against the resident state, mirroring the reference semantics.
func checkUserCondition(op Operation, r resident) error {
	switch op.Kind {
	case OpInsert:
		if r.exists() {
			return ErrExists
		}
	case OpReplace, OpMerge, OpDelete, OpCheck:
		if !r.exists() {
			return ErrNotFound
		}
		if op.ETag != ETagAny && op.ETag != r.vetag {
			return ErrConflict
		}
	}
	return nil
}

// metaOf finds the metadata row in a partition snapshot (sorted by row
// key); nil if the snapshot has none.
func metaOf(rows []Row) *Row {
	if i, ok := findRow(rows, metaRowKey); ok {
		return &rows[i]
	}
	return nil
}

// executeOld applies a batch in PhasePreferOld: pre-read the old table,
// check logical conditions, then commit a guarded backend batch to the old
// table. Returns (results, logicalErr, retry, fatalErr).
func (mt *MigratingTable) executeOld(partition string, batch []Operation, c *partitionCache) ([]OpResult, error, bool, error) {
	rows, err := mt.old.QueryAtomic(Query{Partition: partition})
	if err != nil {
		return nil, nil, false, err
	}
	meta := metaOf(rows)
	if meta == nil {
		return nil, nil, false, fmt.Errorf("%w: missing old-table metadata", ErrBadRequest)
	}
	phase, version, err := parseMeta(meta.Props)
	if err != nil {
		return nil, nil, false, err
	}
	// ensurePartitionSwitched: re-validate the cached phase against the
	// pre-read and guard the commit on the meta row's etag.
	// BUG EnsurePartitionSwitchedFromPopulated: the validation is skipped
	// entirely when the cached phase is the fully populated old table, so
	// a stale client keeps writing to the old table mid-migration.
	ensureSwitched := !mt.bugs.Has(BugEnsurePartitionSwitchedFromPopulated)
	if ensureSwitched && phase != PhasePreferOld {
		// The migrator has frozen the old table. Its meta is authoritative
		// (it flips before the new table's announcement), so adopt it
		// directly — re-reading the new table's meta here could still say
		// PreferOld and would send us in circles.
		c.phase, c.version, c.valid = phase, version, true
		return nil, nil, true, nil
	}

	// Logical condition checks against the snapshot; a failure here is the
	// logical outcome, linearized at the pre-read.
	results := make([]OpResult, len(batch))
	backendOps := make([]Operation, 0, len(batch)+1)
	if ensureSwitched {
		// The old table's meta row etag changes when the migrator
		// switches the partition, failing this batch so we re-route.
		backendOps = append(backendOps, Operation{Kind: OpCheck, Key: metaKeyFor(partition), ETag: meta.ETag})
	}
	for i, op := range batch {
		r := resident{}
		if ri, ok := findRow(rows, op.Key.Row); ok {
			r = liveResident(rows[ri])
			r.inOld = true
		}
		if condErr := checkUserCondition(op, r); condErr != nil {
			mt.rep.LP()
			return nil, &BatchError{Index: i, Err: condErr}, false, nil
		}
		bop, vetag, ok := mt.translateOld(op, r)
		if ok {
			backendOps = append(backendOps, bop)
		}
		results[i] = OpResult{ETag: vetag}
	}
	if _, err := mt.old.ExecuteBatch(backendOps); err != nil {
		if isBatchError(err) {
			// Guard failure or a race on a row since the pre-read: retry.
			return nil, nil, true, nil
		}
		return nil, nil, false, err
	}
	mt.rep.LP()
	return results, nil, false, nil
}

// stamp mints a fresh virtual etag and returns props carrying it.
func (mt *MigratingTable) stamp(props Properties) (Properties, int64) {
	vetag := mt.freshVETag()
	return props.With(vetagProp, vetag), vetag
}

// translateOld maps a user operation to its old-table backend operation,
// returning the operation (ok is false for an unknown kind) and the
// resulting virtual etag (0 for deletes/checks).
func (mt *MigratingTable) translateOld(op Operation, r resident) (bop Operation, vetag int64, ok bool) {
	switch op.Kind {
	case OpInsert, OpInsertOrReplace:
		props, vetag := mt.stamp(op.Props)
		if r.exists() {
			return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		}
		return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
	case OpReplace:
		props, vetag := mt.stamp(op.Props)
		return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
	case OpMerge, OpInsertOrMerge:
		props, vetag := mt.stamp(op.Props)
		if !r.exists() {
			return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
		}
		return Operation{Kind: OpMerge, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
	case OpDelete:
		etag := r.backend
		if mt.bugs.Has(BugDeleteNoLeaveTombstonesEtag) {
			// BUG: the non-tombstone delete path conditions on the
			// wildcard, losing updates that race the delete.
			etag = ETagAny
		}
		return Operation{Kind: OpDelete, Key: op.Key, ETag: etag}, 0, true
	case OpCheck:
		// The check must hold at commit time, not just at the pre-read:
		// guard it with a backend check on the row's current version.
		return Operation{Kind: OpCheck, Key: op.Key, ETag: r.backend}, 0, true
	default:
		return Operation{}, 0, false
	}
}

// executeNew applies a batch in PhasePreferNew or later: pre-read old
// (while relevant) and new, check logical conditions, then commit one
// guarded backend batch to the new table, using tombstones while the old
// table may still hold rows.
func (mt *MigratingTable) executeNew(partition string, batch []Operation, c *partitionCache) ([]OpResult, error, bool, error) {
	var oldRows []Row
	oldAnnounced := PhasePreferOld
	if c.phase == PhasePreferNew {
		var err error
		if oldRows, err = mt.old.QueryAtomic(Query{Partition: partition}); err != nil {
			return nil, nil, false, err
		}
		oldAnnounced = announcedPhase(oldRows)
	}
	newRows, err := mt.new.QueryAtomic(Query{Partition: partition})
	if err != nil {
		return nil, nil, false, err
	}
	meta := metaOf(newRows)
	if meta == nil {
		return nil, nil, false, fmt.Errorf("%w: missing new-table metadata", ErrBadRequest)
	}
	phase, version, err := parseMeta(meta.Props)
	if err != nil {
		return nil, nil, false, err
	}
	if version != c.version || phase != c.phase {
		// Hand-over window: the old table is already frozen (its meta
		// announces PreferNew) but the migrator has not yet updated the new
		// table's meta. The new path is safe — the old table cannot change
		// under us — and the commit stays guarded on the new meta's current
		// etag, so the migrator's announcement fails it and we retry.
		handOver := c.phase == PhasePreferNew && phase == PhasePreferOld &&
			oldAnnounced != PhasePreferOld
		if !handOver {
			c.phase, c.version, c.valid = phase, version, true
			if phase == PhasePreferOld {
				c.valid = false // forces a proper refresh including old meta
			}
			return nil, nil, true, nil
		}
	}

	results := make([]OpResult, len(batch))
	var tombstoneETags map[int]int64 // op index -> tombstone backend etag; BugTombstoneOutputETag only
	if mt.bugs.Has(BugTombstoneOutputETag) {
		tombstoneETags = make(map[int]int64)
	}
	backendOps := make([]Operation, 1, len(batch)+1)
	backendOps[0] = Operation{Kind: OpCheck, Key: metaKeyFor(partition), ETag: meta.ETag}
	for i, op := range batch {
		r := residentOf(op.Key, newRows, oldRows, c.phase)
		if condErr := checkUserCondition(op, r); condErr != nil {
			mt.rep.LP()
			return nil, &BatchError{Index: i, Err: condErr}, false, nil
		}
		bop, vetag, ok := mt.translateNew(op, r, c.phase)
		if ok {
			backendOps = append(backendOps, bop)
		}
		results[i] = OpResult{ETag: vetag}
		if r.tombstone && tombstoneETags != nil {
			tombstoneETags[i] = r.backend
		}
	}
	if _, err := mt.new.ExecuteBatch(backendOps); err != nil {
		if isBatchError(err) {
			return nil, nil, true, nil
		}
		return nil, nil, false, err
	}
	if mt.bugs.Has(BugTombstoneOutputETag) {
		// BUG: when an insert replaced a tombstone, report the
		// tombstone's stale backend etag instead of the new virtual etag.
		for i, etag := range tombstoneETags {
			if results[i].ETag != 0 {
				results[i] = OpResult{ETag: etag}
			}
		}
	}
	mt.rep.LP()
	return results, nil, false, nil
}

// tombstoneProps is the payload of every tombstone.
var tombstoneProps = Props(Prop{tombstoneProp, 1})

// translateNew maps a user operation to its new-table backend operation
// for phases at or past PhasePreferNew (ok is false for an unknown kind).
func (mt *MigratingTable) translateNew(op Operation, r resident, phase Phase) (bop Operation, vetag int64, ok bool) {
	// merged is the write's payload on top of an old-table resident's.
	merged := func() Properties { return userProps(r.stored).Merge(op.Props) }
	switch op.Kind {
	case OpInsert:
		props, vetag := mt.stamp(op.Props)
		if r.tombstone {
			return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		}
		kind := OpInsert
		if mt.bugs.Has(BugInsertBehindMigrator) {
			// BUG: blind upsert when the key looks absent — a row the
			// migrator copies behind our pre-reads gets overwritten.
			kind = OpInsertOrReplace
		}
		return Operation{Kind: kind, Key: op.Key, Props: props}, vetag, true
	case OpReplace:
		props, vetag := mt.stamp(op.Props)
		if r.inNew {
			return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		}
		// Promotion of an old-table resident: first writer wins.
		return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
	case OpMerge:
		if r.inNew {
			props, vetag := mt.stamp(op.Props)
			return Operation{Kind: OpMerge, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		}
		props, vetag := mt.stamp(merged())
		return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
	case OpInsertOrReplace:
		props, vetag := mt.stamp(op.Props)
		if r.tombstone || r.inNew {
			return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		}
		return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
	case OpInsertOrMerge:
		switch {
		case r.tombstone:
			props, vetag := mt.stamp(op.Props)
			return Operation{Kind: OpReplace, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		case r.inNew:
			props, vetag := mt.stamp(op.Props)
			return Operation{Kind: OpMerge, Key: op.Key, Props: props, ETag: r.backend}, vetag, true
		default:
			props, vetag := mt.stamp(merged())
			return Operation{Kind: OpInsert, Key: op.Key, Props: props}, vetag, true
		}
	case OpDelete:
		if phase >= PhaseUseNewWithTombstones {
			// The old table is empty: delete for real.
			etag := r.backend
			if mt.bugs.Has(BugDeleteNoLeaveTombstonesEtag) {
				etag = ETagAny
			}
			return Operation{Kind: OpDelete, Key: op.Key, ETag: etag}, 0, true
		}
		if r.inNew {
			return Operation{Kind: OpReplace, Key: op.Key, Props: tombstoneProps, ETag: r.backend}, 0, true
		}
		// Old-table resident: a tombstone must shadow it.
		key := op.Key
		if mt.bugs.Has(BugDeletePrimaryKey) {
			// BUG: the tombstone is written under a corrupted primary
			// key, so the old row stays visible.
			key.Row += "~"
		}
		return Operation{Kind: OpInsert, Key: key, Props: tombstoneProps}, 0, true
	case OpCheck:
		if r.inNew {
			return Operation{Kind: OpCheck, Key: op.Key, ETag: r.backend}, 0, true
		}
		// Old-table resident: the new table has no row to check, so
		// promote the row unchanged (same properties, same virtual etag)
		// with an insert-if-not-exists. Any concurrent mutation of the
		// key creates a new-table row first and fails this insert,
		// forcing a retry — which makes the check valid at commit time.
		props := userProps(r.stored).With(vetagProp, r.vetag)
		return Operation{Kind: OpInsert, Key: op.Key, Props: props}, 0, true
	default:
		return Operation{}, 0, false
	}
}

// isBatchError reports whether err is an atomic batch failure (guard
// violation or row race) as opposed to an infrastructure error.
func isBatchError(err error) bool {
	var be *BatchError
	return errors.As(err, &be)
}

// QueryAtomic returns a consistent snapshot of the virtual partition.
func (mt *MigratingTable) QueryAtomic(q Query) ([]Row, error) {
	if q.Partition == "" {
		return nil, fmt.Errorf("%w: query requires a partition", ErrBadRequest)
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		c, err := mt.ensureCache(q.Partition)
		if err != nil {
			return nil, err
		}
		rows, retry, err := mt.queryOnce(q, c)
		if err != nil {
			return nil, err
		}
		if retry {
			continue
		}
		return rows, nil
	}
	return nil, fmt.Errorf("%w: query did not converge after %d attempts", ErrBadRequest, maxAttempts)
}

func (mt *MigratingTable) queryOnce(q Query, c *partitionCache) ([]Row, bool, error) {
	pushdown := mt.bugs.Has(BugQueryAtomicFilterShadowing)
	backendQuery := Query{Partition: q.Partition}
	if pushdown {
		// BUG: pushing the user filter down to the backends breaks
		// shadowing — a new-table row that fails the filter no longer
		// hides its stale old-table version, and tombstones vanish from
		// the merge.
		backendQuery.Filter = q.Filter
	}

	if c.phase == PhasePreferOld {
		rows, err := mt.old.QueryAtomic(backendQuery)
		if err != nil {
			return nil, false, err
		}
		if _, retry, err := mt.validateMetaForQuery(mt.old, q.Partition, rows, pushdown, c, PhasePreferOld, PhasePreferOld); err != nil || retry {
			return nil, retry, err
		}
		mt.rep.LP()
		return assembleRows(rows, nil, q, pushdown), false, nil
	}

	var oldRows []Row
	oldAnnounced := PhasePreferOld
	if c.phase == PhasePreferNew {
		var err error
		if oldRows, err = mt.old.QueryAtomic(backendQuery); err != nil {
			return nil, false, err
		}
		oldAnnounced = announcedPhase(oldRows)
	}
	newRows, err := mt.new.QueryAtomic(backendQuery)
	if err != nil {
		return nil, false, err
	}
	_, retry, err := mt.validateMetaForQuery(mt.new, q.Partition, newRows, pushdown, c, c.phase, oldAnnounced)
	if err != nil || retry {
		return nil, retry, err
	}
	mt.rep.LP()
	return assembleRows(newRows, oldRows, q, pushdown), false, nil
}

// announcedPhase is the phase the old table's meta row announces in a
// pre-read snapshot (PhasePreferOld when it has none or it is malformed).
func announcedPhase(oldRows []Row) Phase {
	if meta := metaOf(oldRows); meta != nil {
		if p, _, err := parseMeta(meta.Props); err == nil {
			return p
		}
	}
	return PhasePreferOld
}

// validateMetaForQuery confirms the cached phase is still current, using
// the meta row embedded in the snapshot (or a separate point read when the
// filter pushdown excluded it). On staleness it updates the cache and asks
// for a retry. oldAnnounced is the phase the old table's meta announced in
// this attempt's pre-read (PhasePreferOld when the old table was not read);
// it lets the new-table validation accept the hand-over window in which the
// old table is frozen but the new table's announcement lags.
func (mt *MigratingTable) validateMetaForQuery(backend Backend, partition string, rows []Row, pushdown bool, c *partitionCache, want, oldAnnounced Phase) (*Row, bool, error) {
	var meta *Row
	if pushdown {
		metaRows, err := backend.QueryAtomic(Query{Partition: partition, RowFrom: metaRowKey, RowTo: metaRowKey})
		if err != nil {
			return nil, false, err
		}
		if len(metaRows) == 1 {
			meta = &metaRows[0]
		}
	} else {
		meta = metaOf(rows)
	}
	if meta == nil {
		return nil, false, fmt.Errorf("%w: missing migration metadata", ErrBadRequest)
	}
	phase, version, err := parseMeta(meta.Props)
	if err != nil {
		return nil, false, err
	}
	if want == PhasePreferOld {
		if phase != PhasePreferOld {
			// The old table is frozen; its meta is authoritative — adopt it
			// so the retry takes the new path directly.
			c.phase, c.version, c.valid = phase, version, true
			return nil, true, nil
		}
		return meta, false, nil
	}
	if version != c.version || phase != c.phase {
		// Hand-over window (see executeNew): the frozen old table already
		// announced the transition; trust it over the lagging new meta.
		if c.phase == PhasePreferNew && phase == PhasePreferOld && oldAnnounced != PhasePreferOld {
			return meta, false, nil
		}
		c.phase, c.version, c.valid = phase, version, true
		if phase == PhasePreferOld {
			c.valid = false
		}
		return nil, true, nil
	}
	return meta, false, nil
}

// assembleRows merges backend snapshots (each sorted by row key) into the
// virtual result: new rows shadow old rows, tombstones hide them, reserved
// rows are stripped, and (unless the pushdown bug is active) the range and
// filter apply to the merged view.
func assembleRows(newRows, oldRows []Row, q Query, pushdown bool) []Row {
	var out []Row
	for len(newRows)+len(oldRows) > 0 {
		var r Row
		switch {
		case len(oldRows) == 0 || len(newRows) > 0 && newRows[0].Key.Row < oldRows[0].Key.Row:
			r, newRows = newRows[0], newRows[1:]
		case len(newRows) == 0 || oldRows[0].Key.Row < newRows[0].Key.Row:
			r, oldRows = oldRows[0], oldRows[1:]
		default: // same key on both sides: the new table shadows
			r, newRows, oldRows = newRows[0], newRows[1:], oldRows[1:]
		}
		k := r.Key.Row
		if isReservedRow(k) || isTombstone(r.Props) || !q.inRange(k) {
			continue
		}
		props := userProps(r.Props)
		if !pushdown && !q.Filter.Matches(props) {
			continue
		}
		if out == nil {
			out = make([]Row, 0, 1+len(newRows)+len(oldRows))
		}
		out = append(out, Row{Key: r.Key, Props: props, ETag: vetagOf(r)})
	}
	return out
}

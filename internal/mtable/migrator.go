package mtable

import (
	"fmt"
	"slices"
)

// Migrator is the background job that moves one partition from the old
// backend table to the new one (§4): it switches the partition's phase,
// copies every row, deletes the originals, waits for in-flight streams,
// cleans up tombstones, and finalizes.
//
// The migrator is written as a step machine: every Step performs at most
// one backend operation (plus, at phase boundaries, one metadata update),
// so a systematic-testing driver can interleave client operations between
// any two migrator actions. A production caller just loops Step until
// done.
type Migrator struct {
	old       Backend
	new       Backend
	guard     *StreamGuard
	partition string
	bugs      Bugs

	state migratorState
	// work is the list the current phase walks — the rows to copy and
	// delete, then the tombstones to clean up, each read into the first
	// one's buffer; idx is the walk's position in it.
	work []Row
	idx  int
	// meta is the metadata read's buffer, op the one-operation batch every
	// step commits and results its answer, which the migrator does not
	// read: no backend keeps any of them.
	meta    []Row
	op      [1]Operation
	results []OpResult
}

type migratorState int

const (
	msFreezeOld migratorState = iota
	msAnnounceNew
	msSnapshot
	msCopy
	msDelete
	msTransition
	msAwaitStreams
	msCleanupSnapshot
	msCleanup
	msFinish
	msDone
)

// NewMigrator builds a migrator for one partition.
func NewMigrator(old, new Backend, guard *StreamGuard, partition string, bugs Bugs) *Migrator {
	return &Migrator{old: old, new: new, guard: guard, partition: partition, bugs: bugs}
}

// Step advances the migration by one action. It returns done=true when
// the migration has finished. A false return with nil error means more
// steps are needed (including the wait-for-streams step, which simply
// retries until open streams close).
func (m *Migrator) Step() (done bool, err error) {
	switch m.state {
	case msFreezeOld:
		// Freeze the old table FIRST: flipping its meta row invalidates
		// every client's old-path guard, so no old-table write can commit
		// from here on. Only then is it safe to announce PreferNew in the
		// new table — announcing first opens a window where stale clients
		// still commit to the old table while refreshed clients write the
		// new one, and neither sees the other's writes.
		if m.bugs.Has(BugMigrateSkipPreferOld) {
			// BUG (*): skip the freeze — stale clients keep writing to
			// the old table while (and after) we copy it.
			m.state = msAnnounceNew
			return false, nil
		}
		if err := m.setPhase(m.old, PhasePreferNew); err != nil {
			return false, err
		}
		m.state = msAnnounceNew
	case msAnnounceNew:
		// Announce the migration in the new table's metadata: clients
		// whose cached phase is stale will fail their guards and refresh.
		if err := m.setPhase(m.new, PhasePreferNew); err != nil {
			return false, err
		}
		m.state = msSnapshot
	case msSnapshot:
		rows, err := m.old.QueryAtomic(m.work[:0], Query{Partition: m.partition})
		if err != nil {
			return false, err
		}
		m.work = slices.DeleteFunc(rows, func(r Row) bool { return r.Key.Row == metaRowKey })
		m.idx = 0
		m.state = msCopy
	case msCopy:
		if m.idx >= len(m.work) {
			m.idx = 0
			m.state = msDelete
			return false, nil
		}
		row := m.work[m.idx]
		m.idx++
		// Insert-if-not-exists: a newer client write or tombstone in the
		// new table must win over the copied original.
		err := m.commit(m.new, Operation{Kind: OpInsert, Key: row.Key, Props: row.Props})
		if err != nil && !isBatchError(err) {
			return false, err
		}
	case msDelete:
		if m.idx >= len(m.work) {
			m.state = msTransition
			return false, nil
		}
		row := m.work[m.idx]
		m.idx++
		// The old table is frozen for correct clients, so the etag
		// condition always holds; tolerate failures anyway (a seeded bug
		// may have mutated the old table behind us).
		err := m.commit(m.old, Operation{Kind: OpDelete, Key: row.Key, ETag: row.ETag})
		if err != nil && !isBatchError(err) {
			return false, err
		}
	case msTransition:
		if m.bugs.Has(BugMigrateSkipUseNewWithTombstones) {
			// BUG (*): skip the UseNewWithTombstones phase — and with it
			// the wait for in-flight streams — and clean up immediately.
			m.state = msCleanupSnapshot
			return false, nil
		}
		if err := m.setPhase(m.new, PhaseUseNewWithTombstones); err != nil {
			return false, err
		}
		m.state = msAwaitStreams
	case msAwaitStreams:
		// Tombstones may still be hiding deleted rows from streams opened
		// earlier; cleanup must wait for them.
		if m.guard.Active() > 0 {
			return false, nil
		}
		m.state = msCleanupSnapshot
	case msCleanupSnapshot:
		rows, err := m.new.QueryAtomic(m.work[:0], Query{Partition: m.partition})
		if err != nil {
			return false, err
		}
		m.work = slices.DeleteFunc(rows, func(r Row) bool { return !isTombstone(r.Props) })
		m.idx = 0
		m.state = msCleanup
	case msCleanup:
		if m.idx >= len(m.work) {
			m.state = msFinish
			return false, nil
		}
		ts := m.work[m.idx]
		m.idx++
		// Condition on the tombstone's etag: if a client insert replaced
		// it meanwhile, the delete must not fire.
		err := m.commit(m.new, Operation{Kind: OpDelete, Key: ts.Key, ETag: ts.ETag})
		if err != nil && !isBatchError(err) {
			return false, err
		}
	case msFinish:
		if err := m.setPhase(m.new, PhaseUseNew); err != nil {
			return false, err
		}
		m.state = msDone
	case msDone:
	}
	return m.state == msDone, nil
}

// commit executes the one-operation batch op on backend.
func (m *Migrator) commit(backend Backend, op Operation) error {
	m.op[0] = op
	var err error
	m.results, err = backend.ExecuteBatch(m.results[:0], m.op[:])
	return err
}

// setPhase replaces a table's metadata row with the given phase's.
func (m *Migrator) setPhase(backend Backend, phase Phase) error {
	rows, err := read(backend, &m.meta, metaQuery(m.partition))
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("%w: partition %q missing metadata", ErrBadRequest, m.partition)
	}
	err = m.commit(backend, Operation{Kind: OpReplace, Key: metaKeyFor(m.partition), Props: phaseMeta[phase], ETag: rows[0].ETag})
	return err
}

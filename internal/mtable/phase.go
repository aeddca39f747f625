package mtable

import "fmt"

// Phase is the per-partition migration state, stored in a reserved
// metadata row of each backend table and advanced monotonically by the
// migrator. Every virtual-table operation validates its cached phase with
// an etag guard on the metadata row, so a stale client is forced to
// refresh instead of acting on an outdated view.
type Phase int64

const (
	// PhasePreferOld: migration has not started; the old table is
	// authoritative and fully populated. Writes go to the old table
	// (guarded by its meta row); reads consult the old table.
	PhasePreferOld Phase = iota
	// PhasePreferNew: the migrator is (or may be) copying. All writes go
	// to the new table, with tombstones standing in for deletions; reads
	// merge both tables with new rows shadowing old ones.
	PhasePreferNew
	// PhaseUseNewWithTombstones: the old table has been emptied. Reads
	// consult only the new table (tombstones filtered); deletes remove
	// rows for real. Tombstones remain until in-flight streams drain.
	PhaseUseNewWithTombstones
	// PhaseUseNew: tombstones are cleaned; the new table is a plain
	// chain table.
	PhaseUseNew
)

func (p Phase) String() string {
	switch p {
	case PhasePreferOld:
		return "PreferOld"
	case PhasePreferNew:
		return "PreferNew"
	case PhaseUseNewWithTombstones:
		return "UseNewWithTombstones"
	case PhaseUseNew:
		return "UseNew"
	default:
		return fmt.Sprintf("Phase(%d)", int64(p))
	}
}

// metaKeyFor returns the metadata row key of a partition.
func metaKeyFor(partition string) Key {
	return Key{Partition: partition, Row: metaRowKey}
}

// metaProps encodes a phase into metadata-row properties.
func metaProps(phase Phase, version int64) Properties {
	return Props(Prop{phaseProp, int64(phase)}, Prop{versionProp, version})
}

// parseMeta decodes a metadata row.
func parseMeta(props Properties) (Phase, int64, error) {
	p, okP := props.Get(phaseProp)
	v, okV := props.Get(versionProp)
	if !okP || !okV {
		return 0, 0, fmt.Errorf("%w: malformed migration metadata", ErrBadRequest)
	}
	return Phase(p), v, nil
}

// partitionCache is a MigratingTable instance's cached view of one
// partition's migration state.
type partitionCache struct {
	phase Phase
	// version increases on every phase transition.
	version int64
	valid   bool
}

// InitializeMigration seeds the metadata rows of a partition into both
// backend tables, placing it in PhasePreferOld. It must run once per
// partition before any MigratingTable touches it.
func InitializeMigration(old, new Backend, partition string) error {
	metaKey := metaKeyFor(partition)
	if _, err := old.ExecuteBatch([]Operation{{Kind: OpInsert, Key: metaKey, Props: metaProps(PhasePreferOld, 1)}}); err != nil {
		return fmt.Errorf("seeding old meta: %w", err)
	}
	if _, err := new.ExecuteBatch([]Operation{{Kind: OpInsert, Key: metaKey, Props: metaProps(PhasePreferOld, 1)}}); err != nil {
		return fmt.Errorf("seeding new meta: %w", err)
	}
	return nil
}

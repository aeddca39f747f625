package harness

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// HarnessConfig parameterizes the MigratingTable test environment.
type HarnessConfig struct {
	// Bugs re-introduces Table 2 defects (0 = fixed system).
	Bugs mtable.Bugs
	// Services is the number of concurrent service machines (default 2).
	Services int
	// OpsPerService is the number of logical operations each service
	// issues (default 4).
	OpsPerService int
	// SeedRows is the number of pre-migration rows (default 3).
	SeedRows int
	// TimerPacedMigrator gates every migration step behind a fault-plane
	// timer (core.StartTimer): the scheduler decides when the background
	// job runs, with each pacing choice recorded as DecisionTimer.
	// Executions where the migration stalls run to the step bound, so
	// this configuration costs more per execution — it is a dedicated
	// fault scenario, not the default workload. Best explored under the
	// random scheduler: pct may starve everything but the timer.
	TimerPacedMigrator bool
	// CrashMigrator routes the migrator's completion through the
	// crash-consistency plane — a done marker Persisted and Synced before
	// completion is observable — and adds a crash injector that may crash
	// the migrator once it is done, restarting it with a recovery
	// incarnation that asserts the checkpoint survived. The scenario gains
	// a one-crash fault budget; the default workload is untouched.
	CrashMigrator bool
}

func (hc HarnessConfig) withDefaults() HarnessConfig {
	if hc.Services <= 0 {
		hc.Services = 2
	}
	if hc.OpsPerService <= 0 {
		hc.OpsPerService = 4
	}
	if hc.SeedRows <= 0 {
		hc.SeedRows = 3
	}
	if hc.SeedRows > len(rowPool) {
		hc.SeedRows = len(rowPool)
	}
	return hc
}

// Test builds the systematic test of Figure 12 for the configuration.
func Test(hc HarnessConfig) core.Test {
	hc = hc.withDefaults()
	name := "mtable-" + hc.Bugs.String()
	if hc.TimerPacedMigrator {
		name += "-paced"
	}
	if hc.CrashMigrator {
		name += "-crash"
	}
	names := serviceNames(hc.Services)
	t := core.Test{
		Name: name,
		Entry: func(ctx *core.Context) {
			tablesID, guard, seeded := startTables(ctx, hc.SeedRows)
			serviceIDs := make([]core.MachineID, len(names))
			for i, name := range names {
				svc := newServiceMachine(name, tablesID, guard, int64(i+1), hc.Bugs, hc.OpsPerService, seeded)
				serviceIDs[i] = ctx.CreateMachine(svc, name)
			}
			migM := newMigratorMachine(tablesID, guard, hc.Bugs, hc.TimerPacedMigrator)
			migM.crashable = hc.CrashMigrator
			migID := ctx.CreateMachine(migM, "Migrator")

			// Release everyone; the scheduler decides who moves first.
			for _, id := range serviceIDs {
				ctx.Send(id, startEvent{})
			}
			ctx.SendLast(migID, startEvent{})
		},
	}
	if hc.CrashMigrator {
		t.Faults = core.Faults{MaxCrashes: 1}
	}
	return t
}

// serviceNames returns the labels of n service machines.
func serviceNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("Service%d", i)
	}
	return names
}

// startTables creates the Tables machine that owns this execution's
// tables: clones of the image seeded with seedRows rows. It returns the
// machine, a fresh stream guard, and the etag pairs services start from.
func startTables(ctx *core.Context, seedRows int) (core.MachineID, *mtable.StreamGuard, etagTable) {
	img := &images[seedRows-1]
	return ctx.CreateMachine(newTablesMachine(img), "Tables"), mtable.NewStreamGuard(), img.etags
}

// seedRow is one row of the pre-migration data set: rowPool[i] holding
// {"v": i}, under virtual etag 7<<32|i+1 in the old table.
type seedRow struct {
	key     mtable.Key
	vetag   int64
	props   mtable.Properties // as users (and the reference table) see it
	backend mtable.Properties // as the old table stores it
}

// seedRows is the data set; immutable, so every execution shares it.
var seedRows = func() (out [len(rowPool)]seedRow) {
	for i, row := range rowPool {
		r := seedRow{
			key:   mtable.Key{Partition: Partition, Row: row},
			vetag: int64(7)<<32 | int64(i+1),
			props: vProps(int64(i)),
		}
		r.backend = mtable.SeedBackendRow(r.props, r.vetag)
		out[i] = r
	}
	return out
}()

// seededImage is the state an execution starts from: the backend tables
// initialized for migration, the first n seed rows in the old table (with
// virtual etags), the reference table and the history, and the etag pairs
// services start from. An image is never written: every execution's
// Tables machine works on clones of it.
type seededImage struct {
	old, new, rt *mtable.RefTable
	hist         *mtable.History
	etags        etagTable
}

// images[n-1] is the image seeded with n rows.
var images = func() (out [len(rowPool)]seededImage) {
	for n := range out {
		out[n] = seedImage(n + 1)
	}
	return out
}()

func seedImage(n int) seededImage {
	img := seededImage{
		old:  mtable.NewRefTable(),
		new:  mtable.NewRefTable(),
		rt:   mtable.NewRefTable(),
		hist: mtable.NewHistory(),
	}
	if err := mtable.InitializeMigration(img.old, img.new, Partition); err != nil {
		panic("harness: initializing migration: " + err.Error())
	}
	for i, r := range seedRows[:n] {
		if _, err := img.old.ExecuteBatch(nil, []mtable.Operation{{Kind: mtable.OpInsert, Key: r.key, Props: r.backend}}); err != nil {
			panic("harness: seeding old table: " + err.Error())
		}
		res, err := img.rt.ExecuteBatch(nil, []mtable.Operation{{Kind: mtable.OpInsert, Key: r.key, Props: r.props}})
		if err != nil {
			panic("harness: seeding reference table: " + err.Error())
		}
		img.hist.Record(0, r.key, r.props)
		img.etags[i].etagPair, img.etags[i].ok = etagPair{vt: r.vetag, rt: res[0].ETag}, true
	}
	return img
}

// Metadata reports the harness's machine shape for Table 1 accounting:
// the three machine types of Figure 12 (Tables, Service, Migrator). These
// machines are hand-written event loops rather than declarative state
// machines, so states and handlers are counted from their dispatch tables.
func Metadata() []core.MachineStats {
	return []core.MachineStats{
		{Machine: "Tables", States: 2, Transitions: 2, Handlers: 4},   // serving + awaiting-LP-decision (defers the rest); request/decision/stream-open/stream-validate
		{Machine: "Service", States: 1, Transitions: 0, Handlers: 4},  // write/query/stream/start
		{Machine: "Migrator", States: 2, Transitions: 1, Handlers: 2}, // stepping + awaiting-streams
	}
}

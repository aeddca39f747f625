package harness

import (
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// UndecidedClientTest is the Tables machine, the migrator and one service
// whose workload is a single backend read it never decides: a client that
// dropped its final settle. Nothing else is wrong with the run.
func UndecidedClientTest() core.Test {
	return core.Test{
		Name: "mtable-undecided-client",
		Entry: func(ctx *core.Context) {
			tablesID, guard, seeded := startTables(ctx, 3)
			svc := &undecidedService{newServiceMachine("Service0", tablesID, guard, 1, 0, 0, seeded)}
			svcID := ctx.CreateMachine(svc, "Service0")
			migID := ctx.CreateMachine(newMigratorMachine(tablesID, guard, 0, false), "Migrator")
			ctx.Send(svcID, startEvent{})
			ctx.Send(migID, startEvent{})
		},
	}
}

// undecidedService reads the old table through its stub, leaving the read
// undecided, and then runs its (empty) workload.
type undecidedService struct{ *serviceMachine }

func (u *undecidedService) Handle(ctx *core.Context, ev core.Event) {
	u.stub.ctx = ctx
	if _, err := u.stub.old.QueryAtomic(nil, mtable.Query{Partition: Partition}); err != nil {
		ctx.Assert(false, "query failed: %v", err)
	}
	u.serviceMachine.Handle(ctx, ev)
}

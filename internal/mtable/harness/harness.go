// Package harness is the systematic-test environment for MigratingTable
// (Figure 12 of the paper): a Tables machine owns the two backend tables
// and the reference table (RT) and serializes every backend operation;
// Service machines issue nondeterministically generated logical operations
// through their own MigratingTable instances; a Migrator machine performs
// the background migration.
//
// After processing each backend operation, the Tables machine serves
// nothing else until the requesting MigratingTable reports whether that
// operation was the linearization point of the logical operation in
// progress: it waits at its event-loop top, deferring every other event.
// If it was, the logical operation is applied to the RT at exactly that
// moment and its result is handed back for comparison. A client that ends
// its turn with a decision still owed fails the execution. Streamed reads
// are validated against the RT's recorded history over the stream's
// window. Any output divergence is a safety violation.
//
// The harness is built to be cheap per execution, because executions per
// second is the bug-finding budget: rows are immutable values shared
// between the three tables (package mtable), the protocol's events are
// recycled records governed by one ownership rule (see "events" below),
// and diagnostics are formatted only when an assertion fails. No state
// crosses executions: every Entry builds its machines afresh; only
// immutable values (seed payloads, service names, the seeded image every
// execution's tables are cloned from) are built once.
package harness

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// Partition is the single partition the workload exercises.
const Partition = "P"

// tableOld / tableNew select a backend in stub requests.
const (
	tableOld = 0
	tableNew = 1
)

// --- events ---
//
// The request/response/decision protocol runs on every backend operation
// (about a hundred round trips per execution), so its events are records
// that are recycled, sent by pointer: every stubClient owns one backendReq
// and one lpDecision, the Tables machine owns one backendResp. Exactly one
// of each is live at a time — a client is synchronous (it waits for the
// response before it can decide or ask again) and the Tables machine
// serves one request at a time, deferring every other event until that
// request's decision — and the engine runs one machine at a time, so a
// record is only rewritten after its one reader is done with it, PROVIDED
// the reader obeys the ownership rule:
//
//	A receiver copies what it needs from a peer-owned record before its
//	next scheduling point (Send, Receive, a random choice).
//
// The Tables machine reads a request's ID and From before it sends the
// response: once that Send yields, the client may run, settle, and refill
// the same record for its next request. TestStubRecordsSurviveReuse holds
// the rule under two clients queued behind a Tables machine that awaits a
// decision. Everything else (rtResult, the stream events) is sent fresh.

// reqKind selects a backendReq's payload.
type reqKind uint8

const (
	reqBatch reqKind = iota + 1
	reqQuery
	reqPage
)

// backendReq asks the Tables machine to execute one backend operation.
// Owned by the sending stubClient.
type backendReq struct {
	ID    int64
	From  core.MachineID
	Table int
	Kind  reqKind
	Batch []mtable.Operation
	Query mtable.Query
	Page  pageReq
}

type pageReq struct {
	Partition string
	After     string
	Filter    *mtable.Filter
	Limit     int
}

func (*backendReq) Name() string { return "BackendReq" }

// backendResp returns the backend operation's outcome. Owned by the
// Tables machine.
type backendResp struct {
	ID      int64
	Results []mtable.OpResult
	Rows    []mtable.Row
	Err     error
}

func (*backendResp) Name() string { return "BackendResp" }

// lpDecision reports whether the identified backend operation was the
// linearization point of the logical operation in progress. Owned by the
// sending stubClient. Request ids are per-client counters (every client's
// first request is 1), so a decision is identified by (From, ID).
type lpDecision struct {
	ID      int64
	From    core.MachineID
	IsLP    bool
	Logical *logicalOp
}

func (*lpDecision) Name() string { return "LPDecision" }

// rtResult carries the reference table's outcome of a logical operation
// applied at its linearization point.
type rtResult struct {
	ID      int64
	Results []mtable.OpResult
	Rows    []mtable.Row
	ErrCode string
}

func (*rtResult) Name() string { return "RTResult" }

// streamOpenReq asks for the current history sequence number (the stream
// window's start).
type streamOpenReq struct{ From core.MachineID }

func (streamOpenReq) Name() string { return "StreamOpenReq" }

type streamOpenResp struct{ Seq int64 }

func (streamOpenResp) Name() string { return "StreamOpenResp" }

// streamValidate submits a finished stream's output for history checking.
type streamValidate struct {
	Partition string
	Filter    *mtable.Filter
	FromSeq   int64
	Rows      []mtable.Row
	Service   string
}

func (*streamValidate) Name() string { return "StreamValidate" }

// logicalOp describes a logical operation in reference-table terms (RT
// etags), so the Tables machine can apply it at the linearization point.
type logicalOp struct {
	IsQuery bool
	Batch   []mtable.Operation
	Query   mtable.Query
}

// startEvent kicks off services and the migrator after wiring completes.
type startEvent struct{}

func (startEvent) Name() string { return "start" }

// stepEvent drives the migrator machine's next step; it is the tick of
// the migrator's pacing timer.
type stepEvent struct{}

func (stepEvent) Name() string { return "step" }

// --- Tables machine ---

// tablesMachine owns the backend tables, the reference table, and the
// history; it serializes every backend operation and applies logical
// operations to the RT at their linearization points. Between a backend
// operation and its decision it defers every other event, so the
// operation's sequence number is still t.seq when the decision arrives.
type tablesMachine struct {
	old  *mtable.RefTable
	new  *mtable.RefTable
	rt   *mtable.RefTable
	hist *mtable.History
	seq  int64

	// resp is the one response record (see the ownership rule above).
	resp backendResp
	// awaitID/awaitFrom identify the decision awaited (awaitID 0: none).
	awaitID   int64
	awaitFrom core.MachineID
}

// newTablesMachine returns a Tables machine owning clones of img.
func newTablesMachine(img *seededImage) *tablesMachine {
	return &tablesMachine{
		old:  img.old.Clone(),
		new:  img.new.Clone(),
		rt:   img.rt.Clone(),
		hist: img.hist.Clone(),
	}
}

func (t *tablesMachine) Init(*core.Context) {}

// awaited reports whether ev is the decision the machine awaits.
func (t *tablesMachine) awaited(ev core.Event) bool {
	d, ok := ev.(*lpDecision)
	return ok && d.ID == t.awaitID && d.From == t.awaitFrom
}

// Deferred implements core.Deferrer: while a decision is awaited, every
// other event waits behind it.
func (t *tablesMachine) Deferred(ev core.Event) bool {
	return t.awaitID != 0 && !t.awaited(ev)
}

func (t *tablesMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case *backendReq:
		t.handleBackendReq(ctx, e)
	case *lpDecision:
		if t.awaited(e) {
			t.handleDecision(ctx, e)
		}
	case streamOpenReq:
		ctx.SendLast(e.From, streamOpenResp{Seq: t.seq})
	case *streamValidate:
		if err := t.hist.CheckStream(e.Partition, e.Filter, e.FromSeq, t.seq, e.Rows); err != nil {
			ctx.Assert(false, "stream output of %s violates the chain-table specification: %v", e.Service, err)
		}
	}
}

// handleBackendReq executes the backend operation, sends the response and
// awaits the caller's linearization-point decision (handleDecision) — the
// serialization protocol of §4.
func (t *tablesMachine) handleBackendReq(ctx *core.Context, req *backendReq) {
	// req is the client's record: once the response is sent the client may
	// refill it, so the identity of the request is copied out first.
	id, from := req.ID, req.From
	table := t.old
	if req.Table == tableNew {
		table = t.new
	}
	resp := &t.resp
	*resp = backendResp{ID: id}
	switch req.Kind {
	case reqBatch:
		resp.Results, resp.Err = table.ExecuteBatch(req.Batch)
	case reqQuery:
		resp.Rows, resp.Err = table.QueryAtomic(req.Query)
	case reqPage:
		resp.Rows, resp.Err = table.FetchPage(req.Page.Partition, req.Page.After, req.Page.Filter, req.Page.Limit)
	default:
		ctx.Assert(false, "malformed backend request %+v", *req)
	}
	t.seq++
	t.awaitID, t.awaitFrom = id, from
	ctx.SendLast(from, resp)
}

// handleDecision applies the logical operation to the RT if the awaited
// backend operation was its linearization point, recording the change in
// the history at that operation's sequence number, and hands the RT's
// outcome back to the caller.
func (t *tablesMachine) handleDecision(ctx *core.Context, dec *lpDecision) {
	t.awaitID = 0
	if !dec.IsLP {
		return
	}
	out := &rtResult{ID: dec.ID}
	if dec.Logical.IsQuery {
		rows, err := t.rt.QueryAtomic(dec.Logical.Query)
		out.Rows, out.ErrCode = rows, mtable.ErrorCode(err)
	} else {
		results, err := t.rt.ExecuteBatch(dec.Logical.Batch)
		out.Results, out.ErrCode = results, mtable.ErrorCode(err)
		if err == nil {
			for _, op := range dec.Logical.Batch {
				if op.Kind == mtable.OpCheck {
					continue
				}
				if row, ok := t.rt.Get(op.Key); ok {
					t.hist.Record(t.seq, op.Key, row.Props)
				} else {
					t.hist.RecordAbsent(t.seq, op.Key)
				}
			}
		}
	}
	ctx.SendLast(dec.From, out)
}

// --- stub backends ---

// stubClient is the machine-side endpoint of the backend protocol: it
// relays every backend call through the Tables machine (turning each into
// a scheduling point) and carries the linearization-point bookkeeping. It
// implements mtable.Reporter. A stubClient lives inside its machine and
// must not be copied after init.
type stubClient struct {
	ctx      *core.Context
	tablesID core.MachineID
	nextID   int64
	// pending is the request id awaiting a linearization-point decision
	// (0 = none): the Tables machine serves no one else until we send it.
	pending int64
	// logical describes the in-flight logical operation in RT terms;
	// inLogical says there is one.
	logical   logicalOp
	inLogical bool
	// lastRT is the RT outcome captured at the linearization point.
	lastRT *rtResult

	// req and dec are the client's request and decision records (see the
	// ownership rule above); old and new are its two table sides.
	req      backendReq
	dec      lpDecision
	old, new stubBackend
	// awaitID is the request id the two reply predicates accept. Replies
	// arrive in this client's own inbox and only the Tables machine sends
	// them, so the id alone identifies one.
	awaitID int64
	isResp  func(core.Event) bool
	isRT    func(core.Event) bool
}

// init wires the client to the Tables machine and builds its predicates.
func (c *stubClient) init(tablesID core.MachineID) {
	c.tablesID = tablesID
	c.old = stubBackend{c: c, table: tableOld}
	c.new = stubBackend{c: c, table: tableNew}
	c.isResp = func(ev core.Event) bool {
		r, ok := ev.(*backendResp)
		return ok && r.ID == c.awaitID
	}
	c.isRT = func(ev core.Event) bool {
		r, ok := ev.(*rtResult)
		return ok && r.ID == c.awaitID
	}
}

// request settles the previous request and readies the record for the
// next one; the caller fills in the payload and calls roundTrip.
func (c *stubClient) request(table int, kind reqKind) *backendReq {
	c.settle()
	c.nextID++
	c.req = backendReq{ID: c.nextID, From: c.ctx.ID(), Table: table, Kind: kind}
	return &c.req
}

// roundTrip sends the request record and waits for its response. The
// response record is the Tables machine's: its fields are returned, not
// the record.
func (c *stubClient) roundTrip() ([]mtable.OpResult, []mtable.Row, error) {
	id := c.req.ID
	c.ctx.Send(c.tablesID, &c.req)
	desc := ""
	if c.ctx.Logging() {
		desc = fmt.Sprintf("BackendResp(%d)", id)
	}
	c.awaitID = id
	resp := c.ctx.ReceiveWhere(desc, c.isResp).(*backendResp)
	c.pending = id
	return resp.Results, resp.Rows, resp.Err
}

// decide sends the decision record for request id.
func (c *stubClient) decide(id int64, isLP bool) {
	c.dec = lpDecision{ID: id, From: c.ctx.ID(), IsLP: isLP}
	if isLP {
		c.dec.Logical = &c.logical
	}
	c.ctx.Send(c.tablesID, &c.dec)
}

// settle resolves an outstanding decision as "not the linearization
// point", releasing the Tables machine.
func (c *stubClient) settle() {
	if c.pending != 0 {
		c.decide(c.pending, false)
		c.pending = 0
	}
}

// LP implements mtable.Reporter: the most recent backend operation was the
// linearization point; apply the logical operation to the RT now and
// capture its outcome.
func (c *stubClient) LP() {
	if c.pending == 0 || !c.inLogical {
		return
	}
	id := c.pending
	c.pending = 0
	c.decide(id, true)
	desc := ""
	if c.ctx.Logging() {
		desc = fmt.Sprintf("RTResult(%d)", id)
	}
	c.awaitID = id
	c.lastRT = c.ctx.ReceiveWhere(desc, c.isRT).(*rtResult)
}

// begin arms the client for a new logical operation.
func (c *stubClient) begin(l logicalOp) {
	c.settle()
	c.logical, c.inLogical = l, true
	c.lastRT = nil
}

// finish tears down the logical operation, returning the RT outcome (nil
// if no linearization point was reported).
func (c *stubClient) finish() *rtResult {
	c.settle()
	out := c.lastRT
	c.logical, c.inLogical = logicalOp{}, false
	c.lastRT = nil
	return out
}

// stubBackend adapts one table side of a stubClient to mtable.Backend.
type stubBackend struct {
	c     *stubClient
	table int
}

func (b *stubBackend) ExecuteBatch(batch []mtable.Operation) ([]mtable.OpResult, error) {
	b.c.request(b.table, reqBatch).Batch = batch
	results, _, err := b.c.roundTrip()
	return results, err
}

func (b *stubBackend) QueryAtomic(q mtable.Query) ([]mtable.Row, error) {
	b.c.request(b.table, reqQuery).Query = q
	_, rows, err := b.c.roundTrip()
	return rows, err
}

func (b *stubBackend) FetchPage(partition, after string, filter *mtable.Filter, limit int) ([]mtable.Row, error) {
	b.c.request(b.table, reqPage).Page = pageReq{Partition: partition, After: after, Filter: filter, Limit: limit}
	_, rows, err := b.c.roundTrip()
	return rows, err
}

// --- Migrator machine ---

// migratorMachine steps the background migration, one action per event,
// so the scheduler can interleave client operations anywhere. In the
// default configuration it drives itself with self-sends (every step is
// immediately schedulable); with TimerPacedMigrator the steps are instead
// gated by a fault-plane timer (see StartTimer), so the scheduler also
// controls when the background job runs at all — like a production
// migrator woken by a cron timer — with every pacing choice recorded as
// DecisionTimer. The timer is stopped on completion so finished
// executions still quiesce.
type migratorMachine struct {
	stub  stubClient
	mig   *mtable.Migrator
	paced bool
	timer core.TimerID
	done  bool
	// crashable (HarnessConfig.CrashMigrator): durably checkpoint
	// completion through the crash-consistency plane, then start a crash
	// injector so the scheduler may crash this machine.
	crashable bool
}

func newMigratorMachine(tablesID core.MachineID, guard *mtable.StreamGuard, bugs mtable.Bugs, paced bool) *migratorMachine {
	m := &migratorMachine{paced: paced}
	m.stub.init(tablesID)
	m.mig = mtable.NewMigrator(&m.stub.old, &m.stub.new, guard, Partition, bugs)
	return m
}

func (m *migratorMachine) Init(*core.Context) {}

func (m *migratorMachine) Handle(ctx *core.Context, ev core.Event) {
	switch ev.(type) {
	case startEvent:
		if m.paced {
			// Even the first step waits for a tick: the scheduler decides
			// whether the background job runs at all.
			m.timer = ctx.StartTimer("MigratorTimer", ctx.ID(), stepEvent{})
			return
		}
		m.step(ctx)
	case stepEvent:
		if m.done {
			return // a paced tick that raced the StopTimer
		}
		m.step(ctx)
	}
}

// step performs one migration action; afterwards it either re-arms itself
// (self-paced) or, once the migration reports completion, silences the
// pacing timer.
func (m *migratorMachine) step(ctx *core.Context) {
	m.stub.ctx = ctx
	done, err := m.mig.Step()
	m.stub.settle()
	if err != nil {
		ctx.Assert(false, "migrator failed: %v", err)
	}
	if done {
		if m.crashable {
			// Checkpoint completion before exposing it: the marker must be
			// synced by the time anyone (including the crash injector) can
			// observe the migration as done.
			ctx.Persist(migDoneKey, []byte{1})
			ctx.Sync()
		}
		m.done = true
		if m.paced {
			ctx.StopTimer(m.timer)
		}
		if m.crashable {
			// Only now may the migrator crash: crashing it mid-protocol
			// would leave the Tables machine awaiting a
			// linearization-point decision that never comes. A crash
			// restarts it as the checkpoint-recovery incarnation.
			self := []core.MachineID{ctx.ID()}
			ctx.CreateMachine(&core.FaultInjector{
				Candidates: func() []core.MachineID { return self },
				OnCrash: func(ctx *core.Context, victim core.MachineID) {
					ctx.Restart(victim, &recoveredMigrator{})
				},
				Offers: 4,
			}, "Injector")
		}
		return
	}
	if !m.paced {
		ctx.SendLast(ctx.ID(), stepEvent{})
	}
}

// migDoneKey is the migrator's durable completion marker.
const migDoneKey = "migration/done"

// recoveredMigrator is the crashed migrator's next incarnation. The
// migration completed and was durably checkpointed before the crash was
// ever offered, so recovery must find the marker — its absence would mean
// an un-synced write masqueraded as a durable checkpoint. There is
// nothing to resume; the incarnation idles.
type recoveredMigrator struct{}

func (r *recoveredMigrator) Init(ctx *core.Context) {
	durable := ctx.Recover()
	ctx.Assert(len(durable[migDoneKey]) > 0,
		"migrator restarted after its completion checkpoint, but the done marker did not survive")
}

func (r *recoveredMigrator) Handle(*core.Context, core.Event) {}

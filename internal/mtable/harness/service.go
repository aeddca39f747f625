package harness

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// rowPool is the workload's key space: small, so operations collide and
// races on the same key are frequent.
var rowPool = [...]string{"k0", "k1", "k2", "k3", "k4"}

// rowIndex returns row's position in rowPool.
func rowIndex(row string) int {
	for i, r := range rowPool {
		if r == row {
			return i
		}
	}
	panic("harness: row " + row + " is outside the workload's key space")
}

// etagPair carries the corresponding etags a row has on the virtual table
// and on the reference table (they are incomparable across sides, so both
// are tracked and used side-by-side).
type etagPair struct {
	vt, rt int64
}

// etagTable holds one etag pair per rowPool entry (ok = the row has one).
type etagTable [len(rowPool)]struct {
	etagPair
	ok bool
}

// serviceMachine issues nondeterministically generated logical operations
// through its own MigratingTable instance and asserts that every outcome
// matches the reference table's outcome at the linearization point.
type serviceMachine struct {
	name string
	stub stubClient
	mt   *mtable.MigratingTable
	ops  int
	// cur and prev are each row's latest and previous etags as this
	// service knows them.
	cur, prev etagTable
	// script, when non-nil, replaces the random workload with a fixed
	// action sequence (the paper's custom test cases for rare-input bugs).
	script []scriptStep
	// vtOps and rtOps hold a write batch, as the virtual and the reference
	// table see it, for the length of one logical operation: neither table
	// keeps a batch it executes (TestBuffersAreNotKept).
	vtOps, rtOps [2]mtable.Operation
}

// scriptStep is one fixed action of a custom test case.
type scriptStep struct {
	// Exactly one of these selects the action.
	write  *mtable.Operation // etag rendered as ETagAny on both sides
	query  bool
	stream bool
	filter *mtable.Filter
}

func newServiceMachine(name string, tablesID core.MachineID, guard *mtable.StreamGuard, instance int64, bugs mtable.Bugs, ops int, seeded etagTable) *serviceMachine {
	s := &serviceMachine{name: name, ops: ops, cur: seeded}
	s.stub.init(tablesID)
	s.mt = mtable.NewMigratingTable(&s.stub.old, &s.stub.new, guard, instance, bugs, &s.stub)
	return s
}

func (s *serviceMachine) Init(*core.Context) {}

func (s *serviceMachine) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() != "start" {
		return
	}
	s.stub.ctx = ctx
	if s.script != nil {
		for _, step := range s.script {
			s.runStep(ctx, step)
		}
	} else {
		for i := 0; i < s.ops; i++ {
			s.runOne(ctx)
		}
	}
	if s.stub.pending != 0 {
		// The Tables machine defers everyone else until this decision
		// comes, so without this the execution would quiesce as if clean.
		ctx.Assert(false, "%s finished with request %d awaiting its linearization-point decision", s.name, s.stub.pending)
	}
}

// runStep executes one scripted action.
func (s *serviceMachine) runStep(ctx *core.Context, step scriptStep) {
	switch {
	case step.write != nil:
		op := *step.write
		op.Key.Partition = Partition
		s.vtOps[0], s.rtOps[0] = op, op
		s.runBatch(ctx, s.vtOps[:1], s.rtOps[:1])
	case step.query:
		s.runQueryWith(ctx, step.filter)
	case step.stream:
		s.runStreamWith(ctx, step.filter)
	}
}

// runOne generates and executes one logical operation, comparing outcomes.
func (s *serviceMachine) runOne(ctx *core.Context) {
	switch action := ctx.RandomInt(12); {
	case action <= 5:
		s.runWrite(ctx, mtable.OpKind(action), 1)
	case action <= 7:
		s.runQuery(ctx)
	case action == 8 || action == 9:
		s.runStream(ctx)
	case action == 10:
		s.runWrite(ctx, mtable.OpKind(ctx.RandomInt(6)), 2)
	default:
		s.runWrite(ctx, mtable.OpCheck, 1)
	}
}

// pickETags chooses an etag mode and renders it for both sides.
func (s *serviceMachine) pickETags(ctx *core.Context, row int) (vt, rt int64) {
	switch ctx.RandomInt(3) {
	case 0:
		return mtable.ETagAny, mtable.ETagAny
	case 1:
		if p := s.cur[row]; p.ok {
			return p.vt, p.rt
		}
		return mtable.ETagAny, mtable.ETagAny
	default:
		if p := s.prev[row]; p.ok {
			return p.vt, p.rt
		}
		// A bogus-but-nonzero etag: both sides must reject it alike.
		return 1<<62 + 7, 1<<62 + 7
	}
}

// buildWriteOps generates n (at most 2) distinct-row operations of the
// given kind, rendered for both sides (which share the payloads: they are
// immutable), in the service's batch buffers.
func (s *serviceMachine) buildWriteOps(ctx *core.Context, kind mtable.OpKind, n int) (vtOps, rtOps []mtable.Operation) {
	vtOps, rtOps = s.vtOps[:n], s.rtOps[:n]
	used := 0 // bit i: rowPool[i] already taken by this batch
	for i := 0; i < n; i++ {
		row := ctx.RandomInt(len(rowPool))
		for used&(1<<row) != 0 {
			row = (row + 1) % len(rowPool)
		}
		used |= 1 << row
		key := mtable.Key{Partition: Partition, Row: rowPool[row]}
		var props mtable.Properties
		if kind != mtable.OpDelete && kind != mtable.OpCheck {
			props = valueProps[ctx.RandomInt(len(valueProps))]
		}
		vtETag, rtETag := int64(0), int64(0)
		if kind == mtable.OpReplace || kind == mtable.OpMerge || kind == mtable.OpDelete || kind == mtable.OpCheck {
			vtETag, rtETag = s.pickETags(ctx, row)
		}
		vtOps[i] = mtable.Operation{Kind: kind, Key: key, Props: props, ETag: vtETag}
		rtOps[i] = mtable.Operation{Kind: kind, Key: key, Props: props, ETag: rtETag}
	}
	return vtOps, rtOps
}

// vProps is the payload {"v": v}.
func vProps(v int64) mtable.Properties {
	return mtable.Props(mtable.Prop{Name: "v", Value: v})
}

// valueProps are the payloads the random workload writes: {"v": 0} …
// {"v": 5}, built once and shared by every row that holds one.
var valueProps = func() (out [6]mtable.Properties) {
	for v := range out {
		out[v] = vProps(int64(v))
	}
	return out
}()

// runWrite executes a randomly generated write batch.
func (s *serviceMachine) runWrite(ctx *core.Context, kind mtable.OpKind, n int) {
	vtOps, rtOps := s.buildWriteOps(ctx, kind, n)
	s.runBatch(ctx, vtOps, rtOps)
}

// runBatch executes a write batch on the virtual table and compares its
// outcome with the reference outcome captured at the linearization point.
// (Every diagnostic below is formatted on failure only: this runs once per
// logical operation.)
func (s *serviceMachine) runBatch(ctx *core.Context, vtOps, rtOps []mtable.Operation) {
	s.stub.begin(logicalOp{Batch: rtOps})
	vtRes, vtErr := s.mt.ExecuteBatch(vtOps)
	rt := s.stub.finish()
	if rt == nil {
		ctx.Assert(false, "%s: no linearization point reported for %v", s.name, vtOps)
	}

	// The chain-table spec pins batch failures to the LOWEST failing index
	// (preconditions evaluated in operation order against the pre-batch
	// state; see TestRefTableReportsLowestFailingIndex). Both sides
	// implement that rule, so the comparison is exact on (code, index) —
	// but the diagnostic separates the two, because a same-code
	// different-index divergence points at snapshot skew between the
	// sides, not at a wrong error classification.
	vtCode := mtable.ErrorCode(vtErr)
	vtBase, vtIdx := splitCode(vtCode)
	rtBase, rtIdx := splitCode(rt.ErrCode)
	if vtBase != rtBase {
		ctx.Assert(false, "%s: outcome diverged for batch %v: virtual table %q vs reference %q",
			s.name, describeOps(vtOps), orOK(vtCode), orOK(rt.ErrCode))
	}
	if vtIdx != rtIdx {
		ctx.Assert(false, "%s: batch %v failed with %q on both sides but at different indices: virtual table %s vs reference %s (lowest failing index is the agreed semantics)",
			s.name, describeOps(vtOps), vtBase, vtIdx, rtIdx)
	}
	if vtErr != nil {
		return
	}
	if len(vtRes) != len(rt.Results) {
		ctx.Assert(false, "%s: result arity diverged", s.name)
	}
	for i, op := range vtOps {
		if op.Kind == mtable.OpCheck {
			continue // no state change
		}
		row := rowIndex(op.Key.Row)
		if s.cur[row].ok {
			s.prev[row] = s.cur[row]
		}
		s.cur[row].ok = op.Kind != mtable.OpDelete
		if s.cur[row].ok {
			s.cur[row].etagPair = etagPair{vt: vtRes[i].ETag, rt: rt.Results[i].ETag}
		}
	}
}

// runQuery executes an atomic query with a randomly chosen filter.
func (s *serviceMachine) runQuery(ctx *core.Context) {
	var filter *mtable.Filter
	if ctx.RandomBool() {
		min := int64(ctx.RandomInt(6))
		filter = &mtable.Filter{Prop: "v", Min: min, Max: min + 1}
	}
	s.runQueryWith(ctx, filter)
}

// runQueryWith executes an atomic query on both sides and compares rows.
func (s *serviceMachine) runQueryWith(ctx *core.Context, filter *mtable.Filter) {
	q := mtable.Query{Partition: Partition, Filter: filter}
	s.stub.begin(logicalOp{IsQuery: true, Query: q})
	vtRows, err := s.mt.QueryAtomic(q)
	rt := s.stub.finish()
	if err != nil {
		ctx.Assert(false, "%s: query failed: %v", s.name, err)
	}
	if rt == nil {
		ctx.Assert(false, "%s: no linearization point reported for query", s.name)
	}
	if rt.ErrCode != "" {
		ctx.Assert(false, "%s: reference query failed: %s", s.name, rt.ErrCode)
	}
	if diff := compareRows(vtRows, rt.Rows); diff != "" {
		ctx.Assert(false, "%s: atomic query diverged (filter=%v): %s\nvt=%v\nrt=%v",
			s.name, q.Filter, diff, describeRows(vtRows), describeRows(rt.Rows))
	}
}

// runStream executes a streamed query with a randomly chosen filter.
func (s *serviceMachine) runStream(ctx *core.Context) {
	var filter *mtable.Filter
	if ctx.RandomBool() {
		min := int64(ctx.RandomInt(6))
		filter = &mtable.Filter{Prop: "v", Min: min, Max: min + 1}
	}
	s.runStreamWith(ctx, filter)
}

// runStreamWith executes a streamed query and submits its output for
// history validation.
func (s *serviceMachine) runStreamWith(ctx *core.Context, filter *mtable.Filter) {
	q := mtable.Query{Partition: Partition, Filter: filter}
	s.stub.settle()
	s.stub.ctx.Send(s.stub.tablesID, streamOpenReq{From: ctx.ID()})
	// ctx.Receive("StreamOpenResp"), without the predicate it builds per call.
	open := ctx.ReceiveWhere("[StreamOpenResp]", isStreamOpenResp).(streamOpenResp)

	stream, err := s.mt.QueryStream(q)
	if err != nil {
		ctx.Assert(false, "%s: stream open failed: %v", s.name, err)
	}
	// The rows travel to the Tables machine, which checks them later: a
	// fresh slice, sized for the key space.
	rows := make([]mtable.Row, 0, len(rowPool))
	for {
		row, ok, err := stream.Next()
		if err != nil {
			ctx.Assert(false, "%s: stream read failed: %v", s.name, err)
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	stream.Close()
	s.stub.settle()
	ctx.Send(s.stub.tablesID, &streamValidate{
		Partition: Partition,
		Filter:    q.Filter,
		FromSeq:   open.Seq,
		Rows:      rows,
		Service:   s.name,
	})
}

// compareRows returns "" when the two result sets agree on keys and
// properties, else a description of the first difference.
func compareRows(a, b []mtable.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Sprintf("row %d keys %v vs %v", i, a[i].Key, b[i].Key)
		}
		if !a[i].Props.Equal(b[i].Props) {
			return fmt.Sprintf("row %d (%s) props %v vs %v", i, a[i].Key.Row, a[i].Props, b[i].Props)
		}
	}
	return ""
}

func describeOps(ops []mtable.Operation) string {
	out := ""
	for i, op := range ops {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s(%s)", op.Kind, op.Key.Row)
	}
	return out
}

func describeRows(rows []mtable.Row) string {
	out := ""
	for i, r := range rows {
		if i > 0 {
			out += " "
		}
		v, _ := r.Props.Get("v")
		out += fmt.Sprintf("%s=%v", r.Key.Row, v)
	}
	if out == "" {
		return "(empty)"
	}
	return out
}

func orOK(code string) string {
	if code == "" {
		return "ok"
	}
	return code
}

// splitCode separates an ErrorCode string into its base code and failing
// index ("conflict@1" -> "conflict", "1"; codes without an index keep an
// empty index).
func splitCode(code string) (base, index string) {
	for i := 0; i < len(code); i++ {
		if code[i] == '@' {
			return code[:i], code[i+1:]
		}
	}
	return code, ""
}

package oam

import (
	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Multiactive dispatch: with Options.Cores > 1 the dispatcher admits an
// arriving handler inline iff it is compatible (per Options.Compat) with
// every execution currently running on the node, assigns it the
// lowest-numbered free simulated core, and queues it FIFO otherwise. Each
// admitted execution runs on its own spawned simulation process bound as
// a core worker (threads.Scheduler.BindCore), charging its own virtual
// time — so K compatible handlers and the node's poller overlap in
// simulated time, extending the machine's per-node charge model from one
// implicit core to K. All per-node state lives on the node's own shard
// and every policy (head-only FIFO admission, lowest-free-core) is
// deterministic, so schedules stay canonical and bit-identical across
// shard counts and modes.

// runEntry is one admitted execution occupying a compatibility slot. A
// promoted (aborted-and-rerun) execution keeps its slot — a "shadow"
// entry — until the rerun thread finishes, so incompatible arrivals stay
// queued behind it and the exclusion the matrix promises is never
// violated mid-rerun.
type runEntry struct {
	name   string
	class  int
	key    uint64
	hasKey bool
}

// queuedExec is a dispatch waiting for a compatible admission slot.
type queuedExec struct {
	ent    runEntry
	body   func(*Env)
	settle func(threads.Ctx, Outcome, Reason)
}

// multiNode is the per-node multiactive state. Touched only from the
// node's own shard, so no locking is needed (same discipline as the
// per-node Stats slots).
type multiNode struct {
	coreBusy []bool
	busy     int
	running  []*runEntry
	queue    []queuedExec
}

// freeCore returns the lowest-numbered free core, or -1.
func (mn *multiNode) freeCore() int {
	for i, b := range mn.coreBusy {
		if !b {
			return i
		}
	}
	return -1
}

// admissible reports whether e is compatible with every running (or
// shadow) execution on the node.
func (mn *multiNode) admissible(t *CompatTable, e *runEntry) bool {
	for _, r := range mn.running {
		if !compatibleEntries(t, r, e) {
			return false
		}
	}
	return true
}

// remove drops e from the running set.
func (mn *multiNode) remove(e *runEntry) {
	for i, r := range mn.running {
		if r == e {
			mn.running = append(mn.running[:i], mn.running[i+1:]...)
			return
		}
	}
}

// multiAt returns node's multiactive state, sizing the core table on
// first use.
func (d *Dispatcher) multiAt(node int) *multiNode {
	if node >= len(d.multi) {
		d.SetNodes(node + 1)
	}
	mn := &d.multi[node]
	if mn.coreBusy == nil {
		cores := d.opts.Cores
		if cores < 1 {
			cores = 1
		}
		mn.coreBusy = make([]bool, cores)
	}
	return mn
}

func (d *Dispatcher) noteOccupancy(t sim.Time, node int, busy int) {
	if d.probe != nil {
		d.probe.CoreOccupancy(t, node, busy)
	}
}

func (d *Dispatcher) noteQueueDepth(t sim.Time, node int, depth int) {
	if d.probe != nil {
		d.probe.CompatQueueDepth(t, node, depth)
	}
}

// RunMulti executes body as a multiactive Optimistic Active Message.
// class and key (valid when hasKey) position the execution in the
// compatibility matrix. Because a queued execution settles after RunMulti
// returns, the outcome is delivered through settle — called exactly once,
// on the execution's own context — instead of being returned. settle may
// be nil.
func (d *Dispatcher) RunMulti(c threads.Ctx, ep *am.Endpoint, name string, class int, key uint64, hasKey bool, body func(*Env), settle func(threads.Ctx, Outcome, Reason)) {
	node := ep.Node().ID()
	st := d.nodeStats(node)
	st.Total++
	mn := d.multiAt(node)
	ent := &runEntry{name: name, class: class, key: key, hasKey: hasKey}
	// Head-only FIFO: an arrival may jump straight onto a core only when
	// nothing is already waiting, so admission order is arrival order.
	if len(mn.queue) == 0 && mn.freeCore() >= 0 && mn.admissible(d.opts.Compat, ent) {
		st.CompatAdmitted++
		d.startCore(c, ep, node, mn, ent, body, settle)
		return
	}
	st.CompatQueued++
	mn.queue = append(mn.queue, queuedExec{ent: *ent, body: body, settle: settle})
	d.noteQueueDepth(c.P.Now(), node, len(mn.queue))
}

// startCore claims the lowest-numbered free core for ent and spawns a
// worker process that runs it — and then keeps draining admissible queue
// heads on the same core — before releasing the core.
func (d *Dispatcher) startCore(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode, ent *runEntry, body func(*Env), settle func(threads.Ctx, Outcome, Reason)) {
	core := mn.freeCore()
	mn.coreBusy[core] = true
	mn.busy++
	mn.running = append(mn.running, ent)
	d.noteOccupancy(c.P.Now(), node, mn.busy)
	s := c.S
	c.P.Shard().Spawn("oamcore/"+ent.name, func(p *sim.Proc) {
		s.BindCore(p)
		c2 := threads.Ctx{P: p, T: nil, S: s}
		for {
			d.runOnCore(c2, ep, node, mn, ent, body, settle)
			q, ok := mn.takeHead(d.opts.Compat)
			if !ok {
				break
			}
			d.noteQueueDepth(p.Now(), node, len(mn.queue))
			ent = &runEntry{name: q.ent.name, class: q.ent.class, key: q.ent.key, hasKey: q.ent.hasKey}
			mn.running = append(mn.running, ent)
			body, settle = q.body, q.settle
		}
		s.UnbindCore(p)
		mn.coreBusy[core] = false
		mn.busy--
		d.noteOccupancy(p.Now(), node, mn.busy)
	})
}

// takeHead pops and returns the queue head if it is compatible with every
// running execution. Strict FIFO: an inadmissible head blocks everything
// behind it, which keeps admission order deterministic and starvation
// impossible.
func (mn *multiNode) takeHead(t *CompatTable) (queuedExec, bool) {
	if len(mn.queue) == 0 {
		return queuedExec{}, false
	}
	head := mn.queue[0]
	if !mn.admissible(t, &head.ent) {
		return queuedExec{}, false
	}
	n := copy(mn.queue, mn.queue[1:])
	mn.queue[n] = queuedExec{}
	mn.queue = mn.queue[:n]
	return head, true
}

// runOnCore runs one admitted execution on the worker context c2. Aborts
// never retry on the core (that could livelock two same-instant
// executions): Nack reports back through settle, anything else promotes
// to a rerun thread. The Continuation strategy falls back to Rerun here —
// the lend/adopt protocol presumes the single-CPU discipline.
func (d *Dispatcher) runOnCore(c2 threads.Ctx, ep *am.Endpoint, node int, mn *multiNode, ent *runEntry, body func(*Env), settle func(threads.Ctx, Outcome, Reason)) {
	st := d.nodeStats(node)
	if d.probe != nil {
		// Attempt fires at core-run start, not arrival, so the probe's
		// attempt/settle pairing stays balanced per node.
		d.probe.Attempt(c2.P.Now(), node, ent.name, d.opts.Strategy)
	}
	env := &Env{C: c2, ep: ep, d: d, optimistic: true, name: ent.name}
	reason, aborted := attempt(env, body)
	if !aborted {
		env.commit()
		st.Succeeded++
		if d.opts.Adaptive {
			d.adapt(node, false, 0, len(mn.queue))
		}
		if settle != nil {
			settle(c2, Completed, 0)
		}
		d.settle(c2, ep, ent.name, Completed, 0)
		mn.remove(ent)
		return
	}
	env.undo()
	st.ByReason[reason]++
	if d.opts.Adaptive {
		d.adapt(node, true, reason, len(mn.queue))
	}
	if d.opts.Strategy == Nack {
		st.Nacked++
		if settle != nil {
			settle(c2, NackNeeded, reason)
		}
		d.settle(c2, ep, ent.name, NackNeeded, reason)
		mn.remove(ent)
		return
	}
	// Promote: re-execute the whole procedure as a thread. The entry stays
	// in the running set as a shadow slot until the rerun finishes.
	st.Promoted++
	c2.S.Create(c2, "oam/"+ent.name, true, func(c3 threads.Ctx) {
		env2 := &Env{C: c3, ep: ep, d: d, optimistic: false, name: ent.name}
		body(env2)
		d.releaseSlot(c3, ep, node, mn, ent)
	})
	if settle != nil {
		settle(c2, Promoted, reason)
	}
	d.settle(c2, ep, ent.name, Promoted, reason)
}

// releaseSlot drops a promoted execution's shadow slot once its rerun
// thread has finished, then admits any queue heads that became both
// compatible and core-eligible.
func (d *Dispatcher) releaseSlot(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode, ent *runEntry) {
	mn.remove(ent)
	d.pump(c, ep, node, mn)
}

// pump starts workers for queue heads that are admissible now. Only
// needed when the running set shrinks outside a worker loop (shadow-slot
// release): workers themselves continue the queue on their own core.
func (d *Dispatcher) pump(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode) {
	for mn.freeCore() >= 0 {
		q, ok := mn.takeHead(d.opts.Compat)
		if !ok {
			return
		}
		d.noteQueueDepth(c.P.Now(), node, len(mn.queue))
		ent := &runEntry{name: q.ent.name, class: q.ent.class, key: q.ent.key, hasKey: q.ent.hasKey}
		d.startCore(c, ep, node, mn, ent, q.body, q.settle)
	}
}

package oam

import (
	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Multiactive dispatch: with Options.Cores > 1 the dispatcher admits an
// arriving handler at once iff it is compatible (per SetCompat) with
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

// queuedExec is an execution waiting for (or holding) a compatibility
// slot.
type queuedExec struct {
	ent *runEntry
	x   Exec
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

// admit starts ent on a free core at once if head-only FIFO admission
// allows, and parks it in the compatibility queue otherwise.
func (d *Dispatcher) admit(c threads.Ctx, ep *am.Endpoint, node int, ent *runEntry, x Exec) {
	st := d.nodeStats(node)
	mn := d.multiAt(node)
	q := queuedExec{ent: ent, x: x}
	// Head-only FIFO: an arrival may jump straight onto a core only when
	// nothing is already waiting, so admission order is arrival order.
	if len(mn.queue) == 0 && mn.freeCore() >= 0 && mn.admissible(d.compat, ent) {
		st.CompatAdmitted++
		d.startCore(c, ep, node, mn, q)
		return
	}
	st.CompatQueued++
	mn.queue = append(mn.queue, q)
	d.noteQueueDepth(c.P.Now(), node, len(mn.queue))
}

// startCore claims the lowest-numbered free core for q and spawns a
// worker process that executes it — and then keeps draining admissible
// queue heads on the same core — before releasing the core.
func (d *Dispatcher) startCore(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode, q queuedExec) {
	core := mn.freeCore()
	mn.coreBusy[core] = true
	mn.busy++
	mn.running = append(mn.running, q.ent)
	d.noteOccupancy(c.P.Now(), node, mn.busy)
	s := c.S
	c.P.Shard().Spawn("oamcore/"+q.ent.name, func(p *sim.Proc) {
		s.BindCore(p)
		c2 := threads.Ctx{P: p, T: nil, S: s}
		for {
			d.execute(c2, ep, node, q.ent.name, q.x, mn, q.ent)
			var ok bool
			if q, ok = mn.takeHead(d.compat); !ok {
				break
			}
			d.noteQueueDepth(p.Now(), node, len(mn.queue))
			mn.running = append(mn.running, q.ent)
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
	if !mn.admissible(t, head.ent) {
		return queuedExec{}, false
	}
	n := copy(mn.queue, mn.queue[1:])
	mn.queue[n] = queuedExec{}
	mn.queue = mn.queue[:n]
	return head, true
}

// pump starts workers for queue heads that are admissible now. Only
// needed when the running set shrinks outside a worker loop (a promoted
// execution's shadow slot is released): workers themselves continue the
// queue on their own core.
func (d *Dispatcher) pump(c threads.Ctx, ep *am.Endpoint, node int, mn *multiNode) {
	for mn.freeCore() >= 0 {
		q, ok := mn.takeHead(d.compat)
		if !ok {
			return
		}
		d.noteQueueDepth(c.P.Now(), node, len(mn.queue))
		d.startCore(c, ep, node, mn, q)
	}
}

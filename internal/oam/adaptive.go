package oam

import "repro/internal/sim"

// Adaptive abort/promotion thresholds. The paper leaves the "runs too
// long" budget fixed; here a per-node controller adjusts it — and the
// promote-vs-rerun choice — from observed abort history and queue depth.
// Everything the controller reads is a deterministic per-node counter
// updated from the node's own shard, so adapted schedules replay
// bit-identically.

// ctlWindow is how many settled dispatches the controller observes
// between decisions.
const ctlWindow = 32

// nodeCtl is one node's adaptive state.
type nodeCtl struct {
	// budget is the current handler budget; zero means "not yet
	// initialized from Options.HandlerBudget".
	budget sim.Duration
	// preferLazy switches the base Rerun strategy to Continuation while
	// the recent abort rate is high (re-running wastes the aborted work).
	preferLazy bool

	window  uint32
	aborts  uint32
	tooLong uint32
}

// nodeCtl returns node's controller slot.
func (d *Dispatcher) nodeCtl(node int) *nodeCtl {
	if node >= len(d.ctls) {
		d.SetNodes(node + 1)
	}
	return &d.ctls[node]
}

// budgetFor returns the effective handler budget for an execution on
// node: the adapted per-node budget, seeded from Options.HandlerBudget.
func (d *Dispatcher) budgetFor(node int) sim.Duration {
	ct := d.nodeCtl(node)
	if ct.budget == 0 {
		ct.budget = d.opts.HandlerBudget
	}
	return ct.budget
}

// adapt folds one settled dispatch into node's controller and, every
// ctlWindow settles, re-evaluates the budget and the promote choice.
// qdepth is the node's backlog: the compatibility-queue length under
// multiactive dispatch, the pending-packet count otherwise.
func (d *Dispatcher) adapt(node int, aborted bool, reason Reason, qdepth int) {
	ct := d.nodeCtl(node)
	ct.window++
	if aborted {
		ct.aborts++
		if reason == TooLong {
			ct.tooLong++
		}
	}
	if ct.window < ctlWindow {
		return
	}
	if hb := d.opts.HandlerBudget; hb > 0 {
		if ct.budget == 0 {
			ct.budget = hb
		}
		lo, hi := hb/4, hb*8
		switch {
		case ct.tooLong*4 >= ct.window && qdepth <= 2 && ct.budget*2 <= hi:
			// Mostly budget aborts with a shallow backlog: the budget is
			// cutting off work the node had time for. Double it.
			ct.budget *= 2
			d.nodeStats(node).BudgetRaised++
		case qdepth >= 8 && ct.budget/2 >= lo:
			// Deep backlog: long handlers are starving arrivals. Halve the
			// budget so overruns promote and the node services its queue.
			ct.budget /= 2
			d.nodeStats(node).BudgetLowered++
		}
	}
	ct.preferLazy = ct.aborts*2 >= ct.window
	ct.window, ct.aborts, ct.tooLong = 0, 0, 0
}

package oam

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Strategy selects how an aborted optimistic execution is handled; the
// three options are the three ways to abort of section 2 of the paper.
type Strategy uint8

const (
	// Rerun undoes the attempt and re-executes the whole procedure as a
	// newly created thread. This is the paper prototype's strategy.
	Rerun Strategy = iota
	// Continuation promotes the suspended execution itself to a thread
	// (lazy thread creation): nothing is re-executed.
	Continuation
	// Nack undoes the attempt and reports to the caller that a negative
	// acknowledgment should be sent; the sender backs off and retries.
	Nack
)

func (s Strategy) String() string {
	switch s {
	case Rerun:
		return "rerun"
	case Continuation:
		return "continuation"
	case Nack:
		return "nack"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options configures a Dispatcher.
type Options struct {
	Strategy Strategy
	// HandlerBudget, when positive, bounds the CPU time an optimistic
	// execution may consume before it aborts with TooLong. Zero disables
	// the check, like the paper's prototype.
	HandlerBudget sim.Duration
	// StrictNetAbort makes Env.Send abort with NetworkFull instead of
	// relying on the CM-5 drain-while-sending behaviour.
	StrictNetAbort bool
	// Cores, when > 1, enables multiactive dispatch: handlers compatible
	// per Compat run concurrently on this many simulated per-node cores
	// (RunMulti). Zero or one keeps the paper's single-active discipline.
	Cores int
	// Compat is the compatibility matrix consulted by multiactive
	// admission. Nil means no two handlers are ever compatible.
	Compat *CompatTable
	// Adaptive replaces the fixed HandlerBudget with a per-node controller
	// that adjusts the budget within [BudgetMin, BudgetMax] and the
	// promote-vs-rerun choice from observed abort history and queue depth.
	// The controller reads only deterministic per-node counters, so
	// adapted schedules stay replayable.
	Adaptive bool
	// BudgetMin and BudgetMax bound the adaptive budget. Zero values
	// default to HandlerBudget/4 and HandlerBudget*8.
	BudgetMin sim.Duration
	BudgetMax sim.Duration
}

// Outcome reports what happened to one optimistic dispatch.
type Outcome uint8

const (
	// Completed: the procedure ran to completion inside the handler.
	Completed Outcome = iota
	// Promoted: the attempt aborted and a thread now owns the procedure.
	Promoted
	// NackNeeded: the attempt aborted under the Nack strategy; the caller
	// (the RPC stub) must send the negative acknowledgment.
	NackNeeded
)

// Stats counts dispatches; Tables 2 and 3 of the paper report exactly
// Total, Succeeded and the success percentage.
type Stats struct {
	Total     uint64
	Succeeded uint64
	Promoted  uint64
	Nacked    uint64
	ByReason  [numReasons]uint64

	// Multiactive admission: dispatches admitted straight onto a core vs.
	// parked in the compatibility queue first.
	CompatAdmitted uint64
	CompatQueued   uint64
	// Adaptive controller actions: handler-budget doublings and halvings.
	BudgetRaised  uint64
	BudgetLowered uint64
}

// SuccessPercent is the "% Successes" column of Tables 2 and 3.
func (s *Stats) SuccessPercent() float64 {
	if s.Total == 0 {
		return 100
	}
	return 100 * float64(s.Succeeded) / float64(s.Total)
}

// statsFormat is shared by String and its round-trip tests.
const statsFormat = "total=%d ok=%d promoted=%d nacked=%d " +
	"compat_admitted=%d compat_queued=%d budget_raised=%d budget_lowered=%d " +
	"lock_busy=%d cond_false=%d network_full=%d too_long=%d"

func (s Stats) String() string {
	return fmt.Sprintf(statsFormat,
		s.Total, s.Succeeded, s.Promoted, s.Nacked,
		s.CompatAdmitted, s.CompatQueued, s.BudgetRaised, s.BudgetLowered,
		s.ByReason[LockBusy], s.ByReason[CondFalse], s.ByReason[NetworkFull], s.ByReason[TooLong])
}

// Add merges o's counters into s.
func (s *Stats) Add(o *Stats) {
	s.Total += o.Total
	s.Succeeded += o.Succeeded
	s.Promoted += o.Promoted
	s.Nacked += o.Nacked
	for r := range o.ByReason {
		s.ByReason[r] += o.ByReason[r]
	}
	s.CompatAdmitted += o.CompatAdmitted
	s.CompatQueued += o.CompatQueued
	s.BudgetRaised += o.BudgetRaised
	s.BudgetLowered += o.BudgetLowered
}

// Dispatcher runs remote-procedure bodies optimistically. One dispatcher
// serves a whole universe; per-procedure statistics belong to the RPC
// layer above. Counters are kept per node — each increments only from its
// own node's polling context — so dispatches on different engine shards
// never contend; Stats sums them.
type Dispatcher struct {
	opts  Options
	stats []Stats
	multi []multiNode
	ctls  []nodeCtl
	probe Probe
}

// Probe observes optimistic dispatches. Probes are pure observers — they
// must not schedule events or charge virtual time; hooks are skipped when
// no probe is installed.
type Probe interface {
	// Attempt fires when an optimistic dispatch begins on node.
	Attempt(t sim.Time, node int, name string, strategy Strategy)
	// Settled fires when the dispatch outcome is known on the polling
	// context: completed inline, promoted to a thread (reason says why),
	// or nacked back to the sender.
	Settled(t sim.Time, node int, name string, outcome Outcome, reason Reason, strategy Strategy)
	// CoreOccupancy fires when the number of busy simulated cores on node
	// changes (multiactive dispatch only, like CompatQueueDepth).
	CoreOccupancy(t sim.Time, node int, busy int)
	// CompatQueueDepth fires when node's compatibility queue changes
	// length.
	CompatQueueDepth(t sim.Time, node int, depth int)
}

// SetProbe installs a dispatch probe; pass nil to disable.
func (d *Dispatcher) SetProbe(p Probe) { d.probe = p }

// NewDispatcher returns a dispatcher with the given options.
func NewDispatcher(opts Options) *Dispatcher { return &Dispatcher{opts: opts} }

// SetNodes sizes the per-node counter table. Callers that know the
// universe size (the RPC runtime) call it up front; otherwise the table
// grows on first use per node, which is only safe on a sequential engine.
func (d *Dispatcher) SetNodes(n int) {
	if n > len(d.stats) {
		grown := make([]Stats, n)
		copy(grown, d.stats)
		d.stats = grown
		multi := make([]multiNode, n)
		copy(multi, d.multi)
		d.multi = multi
		ctls := make([]nodeCtl, n)
		copy(ctls, d.ctls)
		d.ctls = ctls
	}
}

// nodeStats returns node's counter slot.
func (d *Dispatcher) nodeStats(node int) *Stats {
	if node >= len(d.stats) {
		d.SetNodes(node + 1)
	}
	return &d.stats[node]
}

// Options returns the dispatcher's configuration.
func (d *Dispatcher) Options() Options { return d.opts }

// Stats returns a snapshot of the dispatch counters, summed across nodes.
func (d *Dispatcher) Stats() Stats {
	var out Stats
	for i := range d.stats {
		out.Add(&d.stats[i])
	}
	return out
}

// NewThreadEnv returns an Env in thread mode, for procedure bodies that
// always execute as threads (the Traditional RPC path). Every Env
// operation behaves pessimistically: locks block, condition waits wait,
// sends go out immediately.
func NewThreadEnv(c threads.Ctx, ep *am.Endpoint, d *Dispatcher) *Env {
	return &Env{C: c, ep: ep, d: d, optimistic: false, name: "thread"}
}

// Run executes body as an Optimistic Active Message on the polling
// context c (a handler context) of endpoint ep. It returns what became of
// the execution and, for aborts, why.
//
// Rerun and Nack attempt the body inline on c; Continuation attempts it
// on a lent auxiliary process so that a blocked execution can be adopted
// as a thread without re-execution.
func (d *Dispatcher) Run(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env)) (Outcome, Reason) {
	node := ep.Node().ID()
	st := d.nodeStats(node)
	st.Total++
	strat := d.opts.Strategy
	if d.opts.Adaptive && strat == Rerun && d.nodeCtl(node).preferLazy {
		// History-driven promote choice: under sustained aborts, promote
		// the suspended execution in place instead of re-running it.
		strat = Continuation
	}
	if d.probe != nil {
		d.probe.Attempt(c.P.Now(), node, name, strat)
	}
	if strat == Continuation {
		o, r := d.runLent(c, ep, name, body)
		if d.opts.Adaptive {
			d.adapt(node, o != Completed, r, ep.Node().Pending())
		}
		return o, r
	}
	env := &Env{C: c, ep: ep, d: d, optimistic: true, name: name}
	reason, aborted := attempt(env, body)
	if !aborted {
		env.commit()
		st.Succeeded++
		if d.opts.Adaptive {
			d.adapt(node, false, 0, ep.Node().Pending())
		}
		d.settle(c, ep, name, Completed, 0)
		return Completed, 0
	}
	env.undo()
	st.ByReason[reason]++
	if d.opts.Adaptive {
		d.adapt(node, true, reason, ep.Node().Pending())
	}
	if strat == Nack {
		st.Nacked++
		d.settle(c, ep, name, NackNeeded, reason)
		return NackNeeded, reason
	}
	// Rerun: undo everything and run the whole procedure as a thread.
	st.Promoted++
	c.S.Create(c, "oam/"+name, true, func(c2 threads.Ctx) {
		env2 := &Env{C: c2, ep: ep, d: d, optimistic: false, name: name}
		body(env2)
	})
	d.settle(c, ep, name, Promoted, reason)
	return Promoted, reason
}

// settle reports a resolved dispatch to the probe, if any.
func (d *Dispatcher) settle(c threads.Ctx, ep *am.Endpoint, name string, o Outcome, r Reason) {
	if d.probe != nil {
		d.probe.Settled(c.P.Now(), ep.Node().ID(), name, o, r, d.opts.Strategy)
	}
}

// attempt runs body optimistically, converting an abort unwind into a
// (reason, true) result. Other panics propagate.
func attempt(env *Env, body func(*Env)) (reason Reason, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(abortSignal)
			if !ok {
				panic(r)
			}
			reason, aborted = sig.reason, true
		}
	}()
	body(env)
	return 0, false
}

// runLent implements the Continuation strategy: the body executes on an
// auxiliary process holding the CPU on loan. If it completes, the loan
// ends and the handler cost was all there was. If it must block, the
// execution is adopted as a thread in place — lazy thread creation — and
// the polling context resumes immediately.
func (d *Dispatcher) runLent(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env)) (Outcome, Reason) {
	s := c.S
	var (
		outcome Outcome
		reason  Reason
		settled bool
	)
	env := &Env{ep: ep, d: d, optimistic: true, name: name}
	st := d.nodeStats(ep.Node().ID())
	env.onPromote = func(r Reason) {
		// First promotion: report back to the dispatcher. The lender is
		// still parked; it wakes when the adopted thread detaches.
		outcome, reason, settled = Promoted, r, true
		st.ByReason[r]++
		st.Promoted++
	}
	proc := c.P.Shard().Spawn("oam/"+name, func(p *sim.Proc) {
		env.C = threads.Ctx{P: p, T: nil, S: s}
		body(env)
		if env.C.T == nil {
			// Ran to completion inside the handler.
			env.commit()
			outcome, settled = Completed, true
			st.Succeeded++
			s.FinishLent()
			return
		}
		// Completed as a promoted thread.
		env.commit()
		s.FinishAdopted(env.C)
	})
	s.Lend(proc)
	c.P.Park() // until the body finishes or detaches
	if !settled {
		panic("oam: lent execution returned control without settling")
	}
	d.settle(c, ep, name, outcome, reason)
	return outcome, reason
}

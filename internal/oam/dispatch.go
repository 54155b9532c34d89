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
	// Cores is the number of simulated cores per node. Zero or one keeps
	// the paper's single-active discipline: the poller is the only core.
	// More cores enable multiactive dispatch: handlers compatible per the
	// table installed by SetCompat run concurrently on core workers.
	Cores int
	// Adaptive replaces the fixed HandlerBudget with a per-node controller
	// that adjusts the budget within [HandlerBudget/4, HandlerBudget*8]
	// and the promote-vs-rerun choice from observed abort history and
	// queue depth. The controller reads only deterministic per-node
	// counters, so adapted schedules stay replayable.
	Adaptive bool
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
	opts   Options
	compat *CompatTable
	stats  []Stats
	multi  []multiNode
	ctls   []nodeCtl
	probe  Probe
}

// Exec is one dispatched execution: the procedure body and the hook that
// learns what became of it. Dispatch calls Settle exactly once, on the
// execution's own context. One value carries both, so a dispatch costs
// its caller a single heap object.
type Exec interface {
	Body(e *Env)
	Settle(c threads.Ctx, o Outcome, r Reason)
}

// Probe observes optimistic dispatches. Probes are pure observers — they
// must not schedule events or charge virtual time; hooks are skipped when
// no probe is installed.
type Probe interface {
	// Attempt fires when an optimistic execution begins on node, with
	// the strategy that handles its abort.
	Attempt(t sim.Time, node int, name string, strategy Strategy)
	// Settled fires when the dispatch outcome is known, on the
	// execution's own context: completed inline, promoted to a thread
	// (reason says why), or nacked back to the sender. strategy is the
	// one Attempt reported.
	Settled(t sim.Time, node int, name string, outcome Outcome, reason Reason, strategy Strategy)
	// CoreOccupancy fires when the number of busy simulated cores on node
	// changes (Cores > 1 only, like CompatQueueDepth).
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

// Dispatch executes x as an Optimistic Active Message that arrived on the
// polling context c of endpoint ep, and settles it through x.Settle.
//
// With Options.Cores <= 1 the poller is the node's only core, so the
// execution runs inline on c and has settled when Dispatch returns. With
// more cores, class and key (valid when hasKey) position the execution in
// the compatibility matrix: it runs on a core worker once admission
// allows (multi.go), possibly after Dispatch returns.
func (d *Dispatcher) Dispatch(c threads.Ctx, ep *am.Endpoint, name string, class int, key uint64, hasKey bool, x Exec) {
	node := ep.Node().ID()
	d.nodeStats(node).Total++
	if d.opts.Cores <= 1 {
		d.execute(c, ep, node, name, x, nil, nil)
		return
	}
	d.admit(c, ep, node, &runEntry{name: name, class: class, key: key, hasKey: hasKey}, x)
}

// execute runs one execution on c and settles it. mn and ent are nil when
// c is the poller of a one-core node; otherwise c is a core worker and ent
// is the execution's entry in mn's running set.
//
// Rerun and Nack attempt the body directly on c; an abort undoes the
// attempt, then Nack settles NackNeeded for the caller to answer and
// Rerun re-executes the whole procedure as a new thread. On a core
// worker, ent stays in the running set as a shadow slot until that thread
// finishes. Continuation attempts the body on a lent process so that a
// blocked execution is adopted as a thread in place; the lend protocol
// presumes the poller's single-CPU discipline, so a core worker runs
// Continuation as Rerun. Aborts never retry on a core, which could
// livelock two same-instant executions.
func (d *Dispatcher) execute(c threads.Ctx, ep *am.Endpoint, node int, name string, x Exec, mn *multiNode, ent *runEntry) {
	strat := d.opts.Strategy
	if d.opts.Adaptive && strat == Rerun && d.nodeCtl(node).preferLazy {
		// History-driven promote choice: under sustained aborts, promote
		// the suspended execution in place instead of re-running it.
		strat = Continuation
	}
	if strat == Continuation && ent != nil {
		strat = Rerun
	}
	if d.probe != nil {
		d.probe.Attempt(c.P.Now(), node, name, strat)
	}
	if strat == Continuation {
		d.runLent(c, ep, node, name, x)
		return
	}
	st := d.nodeStats(node)
	env := &Env{C: c, ep: ep, d: d, optimistic: true, name: name}
	reason, aborted := attempt(env, x)
	if aborted {
		env.undo()
		st.ByReason[reason]++
	} else {
		env.commit()
		st.Succeeded++
	}
	if d.opts.Adaptive {
		backlog := ep.Node().Pending()
		if mn != nil {
			backlog = len(mn.queue)
		}
		d.adapt(node, aborted, reason, backlog)
	}
	outcome := Completed
	switch {
	case !aborted:
	case strat == Nack:
		st.Nacked++
		outcome = NackNeeded
	default:
		st.Promoted++
		outcome = Promoted
		c.S.Create(c, "oam/"+name, true, func(c2 threads.Ctx) {
			x.Body(&Env{C: c2, ep: ep, d: d, optimistic: false, name: name})
			if ent != nil {
				mn.remove(ent)
				d.pump(c2, ep, node, mn)
			}
		})
	}
	d.settle(c, node, name, strat, x, outcome, reason)
	if ent != nil && outcome != Promoted {
		mn.remove(ent)
	}
}

// settle reports a resolved dispatch to the probe, if any, and then to x.
func (d *Dispatcher) settle(c threads.Ctx, node int, name string, strat Strategy, x Exec, o Outcome, r Reason) {
	if d.probe != nil {
		d.probe.Settled(c.P.Now(), node, name, o, r, strat)
	}
	x.Settle(c, o, r)
}

// attempt runs x's body optimistically, converting an abort unwind into a
// (reason, true) result. Other panics propagate.
func attempt(env *Env, x Exec) (reason Reason, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(abortSignal)
			if !ok {
				panic(r)
			}
			reason, aborted = sig.reason, true
		}
	}()
	x.Body(env)
	return 0, false
}

// runLent implements the Continuation strategy: the body executes on an
// auxiliary process holding the CPU on loan. If it completes, the loan
// ends and the handler cost was all there was. If it must block, the
// execution is adopted as a thread in place — lazy thread creation — and
// the polling context resumes immediately.
func (d *Dispatcher) runLent(c threads.Ctx, ep *am.Endpoint, node int, name string, x Exec) {
	s := c.S
	var (
		outcome Outcome
		reason  Reason
		settled bool
	)
	env := &Env{ep: ep, d: d, optimistic: true, name: name}
	st := d.nodeStats(node)
	env.onPromote = func(r Reason) {
		// First promotion: report back to the dispatcher. The lender is
		// still parked; it wakes when the adopted thread detaches.
		outcome, reason, settled = Promoted, r, true
		st.ByReason[r]++
		st.Promoted++
	}
	proc := c.P.Shard().Spawn("oam/"+name, func(p *sim.Proc) {
		env.C = threads.Ctx{P: p, T: nil, S: s}
		x.Body(env)
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
	if d.opts.Adaptive {
		d.adapt(node, outcome != Completed, reason, ep.Node().Pending())
	}
	d.settle(c, node, name, Continuation, x, outcome, reason)
}

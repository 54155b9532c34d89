package main

import (
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/oam"
)

// counters are the public counters of every layer after one cell, summed
// over the cells of a pass. Every field is deterministic.
type counters struct {
	answer uint64 // the cell's application answer (for checks)

	// sim: Engine counters and calendar-queue stats.
	events, handoffs, dispatches uint64
	queuePops, queueScans        uint64
	// cm5: Machine.Stats.
	packets, bytes uint64
	// threads: per-node Scheduler.Stats.
	threadsCreated, threadStarts, liveStarts uint64
	// am: Universe.Stats.
	smallSent, bulkSent uint64
	// reliable: the transport's stats (kv attaches it).
	relData, relRetransmits, relDups, relGaveUp uint64
	// oam: both dispatchers' stats.
	oam oam.Stats
	// rpc: client-side call outcomes.
	rpcRetries, rpcTimeouts, rpcStale uint64
	// kv: the service's ledger.
	kvArrivals, kvOK, kvSheds, kvGiveUps uint64
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.handoffs += o.handoffs
	c.dispatches += o.dispatches
	c.queuePops += o.queuePops
	c.queueScans += o.queueScans
	c.packets += o.packets
	c.bytes += o.bytes
	c.threadsCreated += o.threadsCreated
	c.threadStarts += o.threadStarts
	c.liveStarts += o.liveStarts
	c.smallSent += o.smallSent
	c.bulkSent += o.bulkSent
	c.relData += o.relData
	c.relRetransmits += o.relRetransmits
	c.relDups += o.relDups
	c.relGaveUp += o.relGaveUp
	c.oam.Add(&o.oam)
	c.rpcRetries += o.rpcRetries
	c.rpcTimeouts += o.rpcTimeouts
	c.rpcStale += o.rpcStale
	c.kvArrivals += o.kvArrivals
	c.kvOK += o.kvOK
	c.kvSheds += o.kvSheds
	c.kvGiveUps += o.kvGiveUps
}

// counters reads every layer's public counters once the run is over.
func (h *hook) counters(res apps.Result) counters {
	c := counters{answer: res.Answer}
	if h.u == nil {
		return c
	}
	eng := h.u.Machine().Engine()
	q := eng.QueueStats()
	net := h.u.Machine().Stats()
	ams := h.u.Stats()
	c.events, c.handoffs, c.dispatches = eng.Events(), eng.Handoffs(), eng.Dispatches()
	c.queuePops, c.queueScans = q.Pops, q.ScanSteps
	c.packets, c.bytes = net.SmallSent+net.BulkSent, net.BytesSent
	c.smallSent, c.bulkSent = ams.Sends, ams.BulkSends
	for i := 0; i < h.u.N(); i++ {
		st := h.u.Scheduler(i).Stats()
		c.threadsCreated += st.Created
		c.threadStarts += st.Starts
		c.liveStarts += st.LiveStackStart
	}
	if h.rt != nil {
		d := h.rt.Dispatcher().Stats()
		c.oam.Add(&d)
		if a := h.rt.AsyncDispatcher(); a != h.rt.Dispatcher() {
			s := a.Stats()
			c.oam.Add(&s)
		}
		c.rpcStale = h.rt.StaleReplies()
	}
	return c
}

// addKV folds in the kv service's ledger, its client-side call outcomes
// and its reliable transport's stats.
func (c *counters) addKV(st *kv.Stats) {
	c.kvArrivals, c.kvOK, c.kvSheds = st.Arrivals, st.OK, st.Sheds
	c.kvGiveUps = st.ShedGiveUps + st.TimeoutGiveUps
	c.rpcRetries, c.rpcTimeouts = st.Retries, st.Timeouts
	c.relData, c.relRetransmits = st.Rel.DataSent, st.Rel.Retransmits
	c.relDups, c.relGaveUp = st.Rel.DupsSuppressed, st.Rel.GaveUp
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics builds the traced run's per-layer report: counters and
// allocator activity from the untraced half, tracing overhead from the
// gap between the halves, host shares from the traced half's CPU
// profile, and the layer drivers.
func layerMetrics(p *plan, plain, traced *measurement, shares map[string]float64, drv map[string]float64) map[string]metric {
	c := plain.counters
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("sim.events", float64(c.events), "count")
	put("sim.handoffs", float64(c.handoffs), "count")
	put("sim.inline_frac", ratio(float64(c.events-min(c.handoffs, c.events)), float64(c.events)), "frac")
	put("sim.queue_scans_per_pop", ratio(float64(c.queueScans), float64(c.queuePops)), "steps/pop")

	put("cm5.packets", float64(c.packets), "count")
	put("cm5.bytes", float64(c.bytes), "B")

	put("threads.created", float64(c.threadsCreated), "count")
	live := 100.0
	if c.threadStarts > 0 {
		live = 100 * float64(c.liveStarts) / float64(c.threadStarts)
	}
	put("threads.live_stack_pct", live, "%")

	put("am.small_sent", float64(c.smallSent), "count")
	put("am.bulk_sent", float64(c.bulkSent), "count")

	put("reliable.retransmits", float64(c.relRetransmits), "count")
	put("reliable.retransmit_ratio", ratio(float64(c.relRetransmits), float64(c.relData)), "frac")
	put("reliable.dups_suppressed", float64(c.relDups), "count")
	put("reliable.gave_up", float64(c.relGaveUp), "count")

	put("oam.dispatches", float64(c.oam.Total), "count")
	succ := 1.0
	if c.oam.Total > 0 {
		succ = float64(c.oam.Succeeded) / float64(c.oam.Total)
	}
	put("oam.success_frac", succ, "frac")
	put("oam.promoted", float64(c.oam.Promoted), "count")
	put("oam.aborts.lock_busy", float64(c.oam.ByReason[oam.LockBusy]), "count")
	put("oam.aborts.cond_false", float64(c.oam.ByReason[oam.CondFalse]), "count")
	put("oam.aborts.network_full", float64(c.oam.ByReason[oam.NetworkFull]), "count")
	put("oam.aborts.too_long", float64(c.oam.ByReason[oam.TooLong]), "count")
	put("oam.compat_queued", float64(c.oam.CompatQueued), "count")
	put("oam.budget_changes", float64(c.oam.BudgetRaised+c.oam.BudgetLowered), "count")

	put("rpc.retries", float64(c.rpcRetries), "count")
	put("rpc.timeouts", float64(c.rpcTimeouts), "count")
	put("rpc.stale_replies", float64(c.rpcStale), "count")

	put("kv.goodput_frac", ratio(float64(c.kvOK), float64(c.kvArrivals)), "frac")
	put("kv.sheds", float64(c.kvSheds), "count")
	put("kv.give_ups", float64(c.kvGiveUps), "count")

	put("obs.overhead_frac", traced.wallS()/plain.wallS()-1, "frac")

	g := plain.gc
	evs := float64(plain.events) * float64(plain.passes)
	put("gc.alloc_bytes_per_event", ratio(float64(g.allocBytes), evs), "B/event")
	put("gc.allocs_per_event", ratio(float64(g.allocs), evs), "allocs/event")
	put("gc.cycles", ratio(float64(g.cycles), float64(plain.passes)), "count/pass")
	put("gc.cpu_frac", ratio(g.gcCPU, g.totalCPU), "frac")

	// Parallel efficiency of the harness: busy CPU over pass wall time
	// times the harness width. exp keeps its per-cell wall times private,
	// so busy CPU stands in for their sum. Only the quick suite runs
	// cells concurrently (width exp.Workers); the other workloads run one
	// cell at a time (width 1), where the figure shows how much CPU the
	// runtime adds beside the simulation goroutine.
	put("exp.par_efficiency", ratio(plain.cpuS(), plain.wallS()*float64(p.width)), "frac")

	for _, l := range layers {
		put("host_share."+l, shares[l], "frac")
	}
	for _, d := range drivers {
		put(d.name, drv[d.name], d.unit)
	}
	return out
}

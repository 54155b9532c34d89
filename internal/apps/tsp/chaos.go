package tsp

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// ChaosConfig parameterizes a fault-tolerant TSP run.
type ChaosConfig struct {
	Cities int
	Seed   int64
	// Shards selects the engine's shard count: 0 or 1 sequential,
	// negative auto (one per CPU), clamped to the node count. Results are
	// bit-identical at any value; only wall-clock time changes.
	Shards   int
	Strategy oam.Strategy
	// Fault is the injected fault plan (nil for a perfect network).
	Fault *cm5.FaultPlan
	// Rel tunes the reliable transport, which is always attached.
	Rel reliable.Options
	// CallTimeout is the per-attempt GetJob/deadline window (default 2 ms).
	CallTimeout sim.Duration
	// CallAttempts bounds idempotent retries per call (default 4).
	CallAttempts int
	// LeaseTimeout is how long the master lets a handed-out job stay
	// unfinished before re-queueing it (default 20 ms).
	LeaseTimeout sim.Duration
	// MaxTime aborts the run if virtual time exceeds it (default 120 s) —
	// a safety net against pathological fault plans, not a tuning knob.
	MaxTime sim.Time
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = sim.Micros(2000)
	}
	if cfg.CallAttempts <= 0 {
		cfg.CallAttempts = 4
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = sim.Micros(20000)
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = sim.Time(120 * sim.Second)
	}
	return cfg
}

// ChaosStats reports what the robustness machinery did during a run.
type ChaosStats struct {
	Reissued     uint64 // jobs re-queued after a lease expired
	Timeouts     uint64 // client-side call deadline expirations
	Retries      uint64 // client-side nack retries
	StaleReplies uint64 // replies that arrived after their call was abandoned
	Rel          reliable.Stats
	Fault        cm5.FaultStats
	FaultHash    uint64
	// Per-node breakdowns, indexed by node id (0 = master).
	NodeFaults []cm5.NodeFaultStats
	NodeRel    []reliable.NodeStats
	CrashedAt  []bool
}

// GetJob reply status codes.
const (
	jobWait = iota // nothing available right now, retry later
	jobTake        // a job follows
	jobDone        // search complete, slave may exit
)

// job lease states.
const (
	leaseAvail = iota
	leaseOut
	leaseDone
)

// RunChaos executes TSP over reliable ORPC on a faulty machine and keeps
// the answer exact. Robustness comes from three mechanisms layered on the
// plain master/slave search:
//
//   - every message rides the reliable transport (loss and duplication
//     are invisible to the RPC layer, at the price of retransmits);
//   - slaves fetch work with idempotent deadline calls, so a crashed or
//     partitioned master surfaces as an error, not a hang, and a crashed
//     slave's own main exits instead of blocking the run;
//   - the master leases jobs instead of giving them away: a job whose
//     DoneJob has not arrived within LeaseTimeout is re-queued for a live
//     slave, and DoneJob carries the finishing slave's best tour, so a
//     completed subtree's optimum reaches the master even if every Best
//     broadcast from that slave was lost — remaining == 0 then implies
//     the master's best is the global optimum.
func RunChaos(slaves int, cfg ChaosConfig) (apps.Result, ChaosStats, error) {
	cfg = cfg.withDefaults()
	p := NewProblem(cfg.Cities, cfg.Seed)
	nodes := slaves + 1
	eng := apps.Engine(cfg.Seed, cfg.Shards, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(cfg.Fault)
	tr := reliable.Attach(u, cfg.Rel)
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{Strategy: cfg.Strategy}})

	states := make([]*nodeState, nodes)
	for i := range states {
		states[i] = &nodeState{best: math.MaxInt64}
	}

	// Master bookkeeping, all under qmu.
	var (
		jobs       [][]uint8
		queue      []int // indices of available jobs
		lease      []uint8
		leaseAt    []sim.Time
		remaining  int
		genDone    bool
		masterDone bool
		stats      ChaosStats
	)
	qmu := threads.NewMutex(u.Scheduler(0))

	getJob := rt.Define("chaos/getjob", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(qmu)
		e.Compute(CostPop)
		enc := rpc.NewEnc(16)
		switch {
		case masterDone:
			enc.U8(jobDone)
		case len(queue) == 0:
			enc.U8(jobWait)
		default:
			idx := queue[0]
			queue = queue[1:]
			lease[idx] = leaseOut
			leaseAt[idx] = eng.Now()
			enc.U8(jobTake)
			enc.U32(uint32(idx))
			enc.Buf(jobs[idx])
		}
		e.Unlock(qmu)
		return enc.Bytes()
	})
	doneJob := rt.DefineAsync("chaos/donejob", func(e *oam.Env, caller int, arg []byte) []byte {
		dec := rpc.NewDec(arg)
		idx := int(dec.U32())
		tour := dec.I64()
		e.Lock(qmu)
		ms := states[0]
		if tour < ms.best {
			ms.best = tour
		}
		// A job may complete twice (lease expired, reissued, both slaves
		// finished); only the first completion retires it.
		if lease[idx] == leaseOut {
			lease[idx] = leaseDone
			remaining--
		}
		e.Unlock(qmu)
		return nil
	})
	best := rt.DefineAsync("chaos/best", func(e *oam.Env, caller int, arg []byte) []byte {
		tour := rpc.NewDec(arg).I64()
		ns := states[e.Node()]
		if tour < ns.best {
			ns.best = tour
		}
		return nil
	})

	var runErr error
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		ep := u.Endpoint(me)
		if me == 0 {
			// Generation phase, interleaved with servicing requests.
			for _, j := range p.Jobs() {
				c.P.Charge(CostGenJob)
				qmu.Lock(c)
				jobs = append(jobs, j)
				queue = append(queue, len(jobs)-1)
				lease = append(lease, leaseAvail)
				leaseAt = append(leaseAt, 0)
				remaining++
				qmu.Unlock(c)
				apps.Service(c, ep)
			}
			qmu.Lock(c)
			genDone = true
			qmu.Unlock(c)
			// Watchdog phase: reclaim expired leases until all jobs done.
			for {
				qmu.Lock(c)
				if genDone && remaining == 0 {
					masterDone = true
				}
				now := eng.Now()
				for idx := range lease {
					if lease[idx] == leaseOut && now.Sub(leaseAt[idx]) > cfg.LeaseTimeout {
						lease[idx] = leaseAvail
						queue = append(queue, idx)
						stats.Reissued++
					}
				}
				md := masterDone
				qmu.Unlock(c)
				if md {
					return // the scheduler idle loop keeps answering jobDone
				}
				if eng.Now() > cfg.MaxTime {
					runErr = fmt.Errorf("tsp/chaos: exceeded MaxTime %v with %d jobs outstanding", cfg.MaxTime, remaining)
					qmu.Lock(c)
					masterDone = true
					qmu.Unlock(c)
					return
				}
				c.P.Charge(sim.Micros(100))
				apps.Service(c, ep)
			}
		}

		// Slave.
		ns := states[me]
		node := ep.Node()
		errs := 0
		for {
			if node.Crashed() {
				return
			}
			res, err := getJob.CallIdempotent(c, 0, nil, cfg.CallTimeout, cfg.CallAttempts)
			if err != nil {
				// Crashed mid-call, or the master is unreachable. A live
				// slave tolerates a bounded streak before giving up.
				errs++
				if node.Crashed() || errs > 25 {
					return
				}
				continue
			}
			errs = 0
			dec := rpc.NewDec(res)
			switch dec.U8() {
			case jobDone:
				return
			case jobWait:
				c.P.Charge(sim.Micros(200))
				apps.Service(c, ep)
				continue
			}
			idx := int(dec.U32())
			route := append([]uint8(nil), dec.Buf()...)
			nb, _ := p.Expand(route, ns.best, func(n int) int64 {
				c.P.Charge(sim.Duration(n) * CostVisit)
				apps.Service(c, ep)
				if node.Crashed() {
					// Prune everything: a dead node stops computing.
					return math.MinInt64
				}
				return ns.best
			})
			if node.Crashed() {
				return
			}
			if nb < ns.best {
				ns.best = nb
				for n := 0; n < nodes; n++ {
					if n != me {
						enc := rpc.NewEnc(8)
						enc.I64(nb)
						best.CallAsync(c, n, enc.Bytes())
					}
				}
			}
			enc := rpc.NewEnc(12)
			enc.U32(uint32(idx))
			enc.I64(ns.best)
			doneJob.CallAsync(c, 0, enc.Bytes())
		}
	})
	if err != nil {
		return apps.Result{}, stats, fmt.Errorf("tsp/chaos: %w", err)
	}
	if runErr != nil {
		return apps.Result{}, stats, runErr
	}

	// The optimum: every job's DoneJob reached the master, so states[0]
	// alone suffices; fold in live slaves anyway (crashed nodes' post-crash
	// state is excluded on principle — a dead machine reports nothing).
	bestLen := states[0].best
	for i := 1; i < nodes; i++ {
		if !u.Machine().Crashed(i) && states[i].best < bestLen {
			bestLen = states[i].best
		}
	}

	stats.Timeouts = getJob.Stats().Timeouts
	stats.Retries = getJob.Stats().Retries + doneJob.Stats().Retries + best.Stats().Retries
	stats.StaleReplies = rt.StaleReplies()
	stats.Rel = tr.Stats()
	stats.Fault = u.Machine().FaultStats()
	stats.FaultHash = u.Machine().FaultTraceHash()
	for i := 0; i < nodes; i++ {
		stats.NodeFaults = append(stats.NodeFaults, u.Machine().NodeFaults(i))
		stats.NodeRel = append(stats.NodeRel, tr.NodeStats(i))
		stats.CrashedAt = append(stats.CrashedAt, u.Machine().Crashed(i))
	}

	res := apps.Result{
		System:  apps.ORPC,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  uint64(bestLen),
	}
	oams := getJob.Stats().OAMs + doneJob.Stats().OAMs + best.Stats().OAMs
	succ := getJob.Stats().Successes + doneJob.Stats().Successes + best.Stats().Successes
	apps.FillResult(&res, u, oams, succ)
	return res, stats, nil
}

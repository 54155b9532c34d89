package tsp

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/apps"
	tspgen "repro/internal/apps/tsp/gen"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Compute-cost calibration. The paper's sequential C program solves the
// 12-city instance in 12.4 s.
var (
	// CostVisit is charged per branch-and-bound tree node.
	CostVisit = sim.Micros(3.7)
	// CostGenJob is charged per partial route the master generates.
	CostGenJob = sim.Micros(12)
	// CostPop is charged per queue pop in the GetJob procedure.
	CostPop = sim.Micros(2)
)

// Config parameterizes a run.
type Config struct {
	Cities int   // the paper's experiment uses 12
	Seed   int64 // instance and simulation seed
	// Shards selects the engine's shard count: 0 or 1 sequential,
	// negative auto (one per CPU), clamped to the node count. Results are
	// bit-identical at any value; only wall-clock time changes.
	Shards int
	// Strategy selects the OAM abort strategy for the ORPC variant
	// (default Rerun, the paper's prototype).
	Strategy oam.Strategy
	// Cores gives each simulated node this many cores (default 1).
	// Values > 1 route sync ORPC dispatches through the multiactive path
	// (oam.Options.Cores); TSP declares no compatibility matrix, so
	// handlers still serialize and results are unchanged.
	Cores int
	// Fault, if non-nil, injects the given deterministic fault plan into
	// the data network. Plans that lose packets require Reliable, or calls
	// hang; plans with crashes additionally require RunChaos, which knows
	// how to re-issue a dead slave's work.
	Fault *cm5.FaultPlan
	// Reliable, if non-nil, attaches the reliable transport with these
	// options so every message survives loss via ack/retransmit.
	Reliable *reliable.Options
	// Observe, if non-nil, is called once the universe (and, for the RPC
	// variants, the runtime — nil under AM) is built but before the SPMD
	// program starts, so an observer can attach its probes.
	Observe func(*am.Universe, *rpc.Runtime)
}

// SeqTime returns the simulated sequential running time implied by the
// cost constants: the Figure 2 normalization baseline.
func SeqTime(c SeqCounts) sim.Duration {
	return sim.Duration(c.Visits)*CostVisit + sim.Duration(c.Jobs)*CostGenJob
}

// nodeState is one node's share of the search.
type nodeState struct {
	best int64
}

// Run executes TSP with the given system on slaves+1 nodes (node 0 is
// the master). The answer is the optimal tour length, which branch and
// bound finds regardless of schedule — so it must match SolveSeq.
func Run(sys apps.System, slaves int, cfg Config) (apps.Result, error) {
	p := NewProblem(cfg.Cities, cfg.Seed)
	nodes := slaves + 1
	eng := apps.Engine(cfg.Seed, cfg.Shards, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(cfg.Fault)
	if cfg.Reliable != nil {
		reliable.Attach(u, *cfg.Reliable)
	}

	states := make([]*nodeState, nodes)
	for i := range states {
		states[i] = &nodeState{best: math.MaxInt64}
	}

	// Shared master queue.
	var (
		queue [][]uint8
		head  int
		done  bool
	)
	qmu := threads.NewMutex(u.Scheduler(0))
	qcv := threads.NewCond(qmu)

	type slaveAPI struct {
		getJob    func(c threads.Ctx) ([]uint8, bool)
		sendBest  func(c threads.Ctx, me int, tour int64)
		oams      func() uint64
		successes func() uint64
	}
	var api slaveAPI

	// masterGenerates runs on node 0 and fills the queue. Under AM it
	// pre-generates everything before servicing requests (the hand-coded
	// version's trick); under ORPC/TRPC it interleaves generation with
	// polling, which is what makes GetJob contend at high slave counts.
	var masterGenerate func(c threads.Ctx)

	var rtForObs *rpc.Runtime
	switch sys {
	case apps.AM:
		var replyH am.HandlerID
		type pending struct {
			route []uint8
			ok    bool
			flag  bool
		}
		slots := make([]*pending, nodes)
		for i := range slots {
			slots[i] = &pending{}
		}
		reqH := u.Register("tsp/getjob", func(c threads.Ctx, pkt *cm5.Packet) {
			// Runs on the master. The queue is complete before any
			// request is serviced, so no lock is needed.
			c.P.Charge(CostPop)
			var w [4]uint64
			var payload []byte
			if head < len(queue) {
				w[0] = 1
				payload = queue[head]
				head++
			}
			u.Endpoint(0).Send(c, pkt.Src, replyH, w, payload)
		})
		replyH = u.Register("tsp/jobreply", func(c threads.Ctx, pkt *cm5.Packet) {
			s := slots[c.Node().ID()]
			s.ok = pkt.W0 == 1
			s.route = append(s.route[:0], pkt.Payload...)
			s.flag = true
		})
		bestH := u.Register("tsp/best", func(c threads.Ctx, pkt *cm5.Packet) {
			ns := states[c.Node().ID()]
			if t := int64(pkt.W0); t < ns.best {
				ns.best = t
			}
		})
		api.getJob = func(c threads.Ctx) ([]uint8, bool) {
			me := c.Node().ID()
			s := slots[me]
			s.flag = false
			u.Endpoint(me).Send(c, 0, reqH, [4]uint64{}, nil)
			for !s.flag {
				u.Endpoint(me).Poll(c)
			}
			return s.route, s.ok
		}
		api.sendBest = func(c threads.Ctx, me int, tour int64) {
			for n := 0; n < nodes; n++ {
				if n != me {
					u.Endpoint(me).Send(c, n, bestH, [4]uint64{uint64(tour)}, nil)
				}
			}
		}
		api.oams = func() uint64 { return 0 }
		api.successes = func() uint64 { return 0 }
		masterGenerate = func(c threads.Ctx) {
			// Generate everything before accepting requests: requests
			// wait in the network interface meanwhile.
			for _, j := range p.Jobs() {
				c.P.Charge(CostGenJob)
				queue = append(queue, j)
			}
		}

	case apps.ORPC, apps.TRPC:
		mode := rpc.ORPC
		if sys == apps.TRPC {
			mode = rpc.TRPC
		}
		rt := rpc.New(u, rpc.Options{Mode: mode, OAM: oam.Options{Strategy: cfg.Strategy, Cores: cfg.Cores}})
		rtForObs = rt
		getJob := tspgen.DefineGetJob(rt, func(e *oam.Env, caller int) ([]byte, bool) {
			e.Lock(qmu)
			e.Await(qcv, func() bool { return head < len(queue) || done })
			e.Compute(CostPop)
			var route []byte
			ok := false
			if head < len(queue) {
				ok = true
				route = queue[head]
				head++
			}
			e.Unlock(qmu)
			return route, ok
		})
		best := tspgen.DefineBest(rt, func(e *oam.Env, caller int, tour int64) {
			ns := states[e.Node()]
			if tour < ns.best {
				ns.best = tour
			}
		})
		api.getJob = func(c threads.Ctx) ([]uint8, bool) {
			return getJob.Call(c, 0)
		}
		api.sendBest = func(c threads.Ctx, me int, tour int64) {
			for n := 0; n < nodes; n++ {
				if n != me {
					best.CallAsync(c, n, tour)
				}
			}
		}
		api.oams = func() uint64 { return getJob.Stats().OAMs + best.Stats().OAMs }
		api.successes = func() uint64 { return getJob.Stats().Successes + best.Stats().Successes }
		masterGenerate = func(c threads.Ctx) {
			ep := u.Endpoint(0)
			for _, j := range p.Jobs() {
				c.P.Charge(CostGenJob)
				qmu.Lock(c)
				queue = append(queue, j)
				qcv.Signal(c)
				qmu.Unlock(c)
				apps.Service(c, ep)
			}
			qmu.Lock(c)
			done = true
			qcv.Broadcast(c)
			qmu.Unlock(c)
		}

	default:
		return apps.Result{}, fmt.Errorf("tsp: unknown system %v", sys)
	}

	if cfg.Observe != nil {
		cfg.Observe(u, rtForObs)
	}
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		if me == 0 {
			masterGenerate(c)
			return // the scheduler keeps serving requests
		}
		ns := states[me]
		ep := u.Endpoint(me)
		for {
			route, ok := api.getJob(c)
			if !ok {
				return
			}
			nb, _ := p.Expand(route, ns.best, func(n int) int64 {
				c.P.Charge(sim.Duration(n) * CostVisit)
				apps.Service(c, ep)
				return ns.best
			})
			if nb < ns.best {
				ns.best = nb
				api.sendBest(c, me, nb)
			}
		}
	})
	if err != nil {
		return apps.Result{}, fmt.Errorf("tsp/%v: %w", sys, err)
	}

	// The optimum is the minimum over every node's view.
	best := int64(math.MaxInt64)
	for _, ns := range states {
		if ns.best < best {
			best = ns.best
		}
	}
	res := apps.Result{
		System:  sys,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  uint64(best),
	}
	apps.FillResult(&res, u, api.oams(), api.successes())
	return res, nil
}

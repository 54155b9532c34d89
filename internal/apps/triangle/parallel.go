package triangle

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	trigen "repro/internal/apps/triangle/gen"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Compute-cost calibration. The paper's sequential C program solves the
// size-6 puzzle in 13.7 s performing ~688 k extensions; with our counts
// (170,592 positions, 1,149,550 non-redundant extensions) these constants
// put the simulated sequential time in the same regime.
var (
	// CostExpand is charged per position expansion (move generation).
	CostExpand = sim.Micros(4)
	// CostMove is charged per generated extension (apply + canonicalize).
	CostMove = sim.Micros(6)
	// CostInsert is charged per transposition-table insert.
	CostInsert = sim.Micros(5)
)

// Config parameterizes a run.
type Config struct {
	Side  int   // board side; the paper's experiment uses 6
	Empty int   // initially empty cell; -1 selects the default center
	Seed  int64 // simulation seed
	// Shards selects the engine's shard count: 0 or 1 sequential,
	// negative auto (one per CPU), clamped to the node count. Results are
	// bit-identical at any value; only wall-clock time changes.
	Shards int
	// Strategy selects the OAM abort strategy for the ORPC variant
	// (default Rerun, the paper's prototype).
	Strategy oam.Strategy
	// Fault, if non-nil, injects the given deterministic fault plan.
	// Loss or duplication requires Reliable, or the level quiesce
	// (sent == received reductions) never converges. Triangle has no
	// crash recovery: keep Crashes empty.
	Fault *cm5.FaultPlan
	// Reliable, if non-nil, attaches the reliable transport.
	Reliable *reliable.Options
	// Observe, if non-nil, is called once the universe (and, for the RPC
	// variants, the runtime — nil under AM) is built but before the SPMD
	// program starts, so an observer can attach its probes.
	Observe func(*am.Universe, *rpc.Runtime)
}

func (c *Config) board() *Board {
	if c.Empty < 0 {
		return NewBoard(c.Side)
	}
	return NewBoardAt(c.Side, c.Empty)
}

// BoardCounts solves the configured board sequentially and returns its
// work counters (used for calibration and speedup normalization).
func (c *Config) BoardCounts() SeqCounts { return c.board().SolveSeq() }

// SeqTime returns the simulated sequential running time implied by the
// cost constants for the given solve counters: the normalization baseline
// of Figure 1.
func SeqTime(c SeqCounts) sim.Duration {
	return sim.Duration(c.Positions)*CostExpand +
		sim.Duration(c.Extensions)*(CostMove+CostInsert)
}

// entry is one transposition-table slot.
type entry struct {
	s    State
	ways uint64
}

// nodeState is one node's share of the distributed search.
type nodeState struct {
	mu        *threads.Mutex
	index     map[State]int
	next      []entry // insertion-ordered: keeps runs deterministic
	frontier  []entry
	sent      uint64
	recv      uint64
	solutions uint64
}

// insert adds (s, ways) to the next-level table. Callers must hold the
// node's table lock (or be a hand-coded AM handler, which is atomic).
func (ns *nodeState) insert(s State, ways uint64) {
	if i, ok := ns.index[s]; ok {
		ns.next[i].ways += ways
		return
	}
	ns.index[s] = len(ns.next)
	ns.next = append(ns.next, entry{s: s, ways: ways})
}

// owner maps a canonical state to its transposition-table owner.
func owner(s State, n int) int {
	// Multiplicative hash: states are small dense bitmasks, so spread
	// them before reducing.
	h := uint64(s) * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(n))
}

// Run executes the Triangle puzzle on nodes processors with system sys
// and returns the run's result. The answer is the solution count, which
// must equal SolveSeq's for the same board.
func Run(sys apps.System, nodes int, cfg Config) (apps.Result, error) {
	b := cfg.board()
	eng := apps.Engine(cfg.Seed, cfg.Shards, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(cfg.Fault)
	if cfg.Reliable != nil {
		reliable.Attach(u, *cfg.Reliable)
	}

	states := make([]*nodeState, nodes)
	for i := range states {
		states[i] = &nodeState{
			mu:    threads.NewMutex(u.Scheduler(i)),
			index: make(map[State]int),
		}
	}

	// sendInsert dispatches one extension to the owner of its state.
	var sendInsert func(c threads.Ctx, me, dst int, s State, ways uint64)
	var oams, successes func() uint64

	var rtForObs *rpc.Runtime
	switch sys {
	case apps.AM:
		// Hand-coded Active Messages: the state and ways travel in the
		// header words; the handler updates the table directly — safe
		// because handlers are atomic with respect to the computation
		// when it does not poll inside a critical region.
		var insertH am.HandlerID
		insertH = u.Register("tri/insert", func(c threads.Ctx, pkt *cm5.Packet) {
			ns := states[c.Node().ID()]
			c.P.Charge(CostInsert)
			ns.insert(State(pkt.W0), pkt.W1)
			ns.recv++
		})
		sendInsert = func(c threads.Ctx, me, dst int, s State, ways uint64) {
			u.Endpoint(me).Send(c, dst, insertH, [4]uint64{uint64(s), ways}, nil)
		}
		oams = func() uint64 { return 0 }
		successes = func() uint64 { return 0 }

	case apps.ORPC, apps.TRPC:
		mode := rpc.ORPC
		if sys == apps.TRPC {
			mode = rpc.TRPC
		}
		rt := rpc.New(u, rpc.Options{Mode: mode, OAM: oam.Options{Strategy: cfg.Strategy}})
		rtForObs = rt
		insert := trigen.DefineInsert(rt, func(e *oam.Env, caller int, state, ways uint64) {
			ns := states[e.Node()]
			e.Lock(ns.mu)
			e.Compute(CostInsert)
			ns.insert(State(state), ways)
			ns.recv++
			e.Unlock(ns.mu)
		})
		sendInsert = func(c threads.Ctx, me, dst int, s State, ways uint64) {
			insert.CallAsync(c, dst, uint64(s), ways)
		}
		oams = func() uint64 { return insert.Stats().OAMs }
		successes = func() uint64 { return insert.Stats().Successes }

	default:
		return apps.Result{}, fmt.Errorf("triangle: unknown system %v", sys)
	}

	// Seed the search at the owner of the canonical start position.
	start := b.Canon(b.Start())
	states[owner(start, nodes)].frontier = []entry{{s: start, ways: 1}}

	if cfg.Observe != nil {
		cfg.Observe(u, rtForObs)
	}
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		ns := states[me]
		ep := u.Endpoint(me)
		sched := u.Scheduler(me)
		var exts []Ext
		for {
			// Expansion phase: extend every local frontier position.
			for _, ent := range ns.frontier {
				c.P.Charge(CostExpand)
				if ent.s.Pegs() == 1 {
					ns.solutions += ent.ways
					continue
				}
				exts = b.Extensions(ent.s, exts[:0])
				for _, x := range exts {
					c.P.Charge(CostMove)
					ns.sent++
					sendInsert(c, me, owner(x.S, nodes), x.S, ent.ways*x.Mult)
					// Fine-grained polling ("carefully tuned"): service
					// incoming inserts after every send so they do not
					// back up in the network interface.
					apps.Service(c, ep)
				}
			}
			// Quiesce: repeat global reductions until every extension
			// sent this level has been received and inserted.
			for {
				gs := sched.Reduce(c, float64(ns.sent), cm5.ReduceSum)
				gr := sched.Reduce(c, float64(ns.recv), cm5.ReduceSum)
				if gs == gr {
					break
				}
				apps.Service(c, ep)
			}
			// Level swap, and terminate when the global frontier is empty.
			ns.frontier = ns.next
			ns.next = nil
			ns.index = make(map[State]int)
			total := sched.Reduce(c, float64(len(ns.frontier)), cm5.ReduceSum)
			if total == 0 {
				break
			}
		}
	})
	if err != nil {
		return apps.Result{}, fmt.Errorf("triangle/%v: %w", sys, err)
	}

	var solutions uint64
	for _, ns := range states {
		solutions += ns.solutions
	}
	res := apps.Result{
		System:  sys,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  solutions,
	}
	apps.FillResult(&res, u, oams(), successes())
	return res, nil
}

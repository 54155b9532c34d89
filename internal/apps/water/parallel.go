package water

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	watergen "repro/internal/apps/water/gen"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// CostCopyPerByte is the buffer-to-application copy the RPC versions pay
// for call-by-value semantics (the AM version deposits data directly).
var CostCopyPerByte = sim.Micros(0.04)

// slot is a one-deep message buffer with blocking store semantics.
type slot struct {
	full    bool
	data    []float64
	notFull *threads.Cond
	isFull  *threads.Cond
}

// nodeState is one node's share of the system.
type nodeState struct {
	lo, hi int
	pos    []float64 // full 3n array; [3lo,3hi) authoritative
	vel    []float64 // own range only (full array allocated)
	acc    []float64
	upd    []float64

	mu       *threads.Mutex
	posSlots []*slot // indexed by source node
	updSlots []*slot
}

// molPartition splits n molecules across p nodes.
func molPartition(n, p, i int) (lo, hi int) {
	base, extra := n/p, n%p
	lo = i*base + min(i, extra)
	hi = lo + base
	if i < extra {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// updTopology computes which nodes exchange phase-2 update messages:
// sends[m][d] is true when some molecule owned by m has a half-shell
// partner owned by d. Under the cyclic half-shell rule each node sends
// to roughly the P/2 owners that follow it.
func updTopology(mols, p int) [][]bool {
	owner := make([]int, mols)
	for i := 0; i < p; i++ {
		lo, hi := molPartition(mols, p, i)
		for m := lo; m < hi; m++ {
			owner[m] = i
		}
	}
	sends := make([][]bool, p)
	for i := range sends {
		sends[i] = make([]bool, p)
	}
	for i := 0; i < mols; i++ {
		halfShell(i, mols, func(j int) {
			if owner[i] != owner[j] {
				sends[owner[i]][owner[j]] = true
			}
		})
	}
	return sends
}

// Run executes Water with the given system on nodes processors.
// useBarrier inserts a hardware barrier between iterations (the paper's
// "with barrier" variants; the AM version always uses it — without it
// the hand-coded version's no-blocking assumption could be violated and
// the program would die).
func Run(sys apps.System, nodes int, useBarrier bool, cfg Config) (apps.Result, error) {
	if sys == apps.AM {
		useBarrier = true
	}
	if nodes > cfg.Mols {
		return apps.Result{}, fmt.Errorf("water: more nodes than molecules")
	}
	eng := apps.Engine(cfg.Seed, cfg.Shards, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())

	init := newState(cfg.Mols, cfg.Seed)
	states := make([]*nodeState, nodes)
	for i := range states {
		lo, hi := molPartition(cfg.Mols, nodes, i)
		ns := &nodeState{
			lo: lo, hi: hi,
			pos: append([]float64(nil), init.pos...),
			vel: append([]float64(nil), init.vel...),
			acc: make([]float64, 3*cfg.Mols),
			upd: make([]float64, 3*cfg.Mols),
		}
		ns.mu = threads.NewMutex(u.Scheduler(i))
		ns.posSlots = make([]*slot, nodes)
		ns.updSlots = make([]*slot, nodes)
		for s := 0; s < nodes; s++ {
			sl, sh := molPartition(cfg.Mols, nodes, s)
			ns.posSlots[s] = &slot{
				data:    make([]float64, 3*(sh-sl)),
				notFull: threads.NewCond(ns.mu),
				isFull:  threads.NewCond(ns.mu),
			}
			ns.updSlots[s] = &slot{
				data:    make([]float64, 3*(hi-lo)),
				notFull: threads.NewCond(ns.mu),
				isFull:  threads.NewCond(ns.mu),
			}
		}
		states[i] = ns
	}

	var (
		sendPos  func(c threads.Ctx, me, dst int, data []float64)
		sendUpd  func(c threads.Ctx, me, dst int, data []float64)
		waitPos  func(c threads.Ctx, me, src int) // fills pos[srcRange]
		waitUpd  func(c threads.Ctx, me, src int) // adds into acc[myRange]
		oamStats func() (uint64, uint64)
	)

	applyUpd := func(ns *nodeState, buf []float64) {
		base := 3 * ns.lo
		for k := range buf {
			ns.acc[base+k] += buf[k]
		}
	}

	var rtForObs *rpc.Runtime
	switch sys {
	case apps.AM:
		// Hand-coded: data deposited straight into application arrays;
		// the barrier guarantees the previous iteration was consumed, and
		// the program dies if that assumption is ever violated.
		posH := u.Register("water/pos", func(c threads.Ctx, pkt *cm5.Packet) {
			ns := states[c.Node().ID()]
			src := pkt.Src
			sl := ns.posSlots[src]
			if sl.full {
				panic("water/AM: position message arrived before previous was consumed")
			}
			srcLo, _ := molPartition(cfg.Mols, nodes, src)
			decodeF64s(pkt.Payload, ns.pos[3*srcLo:3*srcLo+len(sl.data)])
			sl.full = true
		})
		updH := u.Register("water/upd", func(c threads.Ctx, pkt *cm5.Packet) {
			ns := states[c.Node().ID()]
			sl := ns.updSlots[pkt.Src]
			if sl.full {
				panic("water/AM: update message arrived before previous was consumed")
			}
			decodeF64s(pkt.Payload, sl.data)
			sl.full = true
		})
		sendPos = func(c threads.Ctx, me, dst int, data []float64) {
			u.Endpoint(me).SendBulk(c, dst, posH, [4]uint64{}, encodeF64s(data))
		}
		sendUpd = func(c threads.Ctx, me, dst int, data []float64) {
			u.Endpoint(me).SendBulk(c, dst, updH, [4]uint64{}, encodeF64s(data))
		}
		waitPos = func(c threads.Ctx, me, src int) {
			ns := states[me]
			for !ns.posSlots[src].full {
				u.Endpoint(me).Poll(c)
			}
			ns.posSlots[src].full = false
		}
		waitUpd = func(c threads.Ctx, me, src int) {
			ns := states[me]
			sl := ns.updSlots[src]
			for !sl.full {
				u.Endpoint(me).Poll(c)
			}
			applyUpd(ns, sl.data)
			sl.full = false
		}
		oamStats = func() (uint64, uint64) { return 0, 0 }

	case apps.ORPC, apps.TRPC:
		mode := rpc.ORPC
		if sys == apps.TRPC {
			mode = rpc.TRPC
		}
		rt := rpc.New(u, rpc.Options{Mode: mode})
		rtForObs = rt
		store := func(e *oam.Env, sl *slot, ns *nodeState, row []float64) {
			e.Lock(ns.mu)
			e.Await(sl.notFull, func() bool { return !sl.full })
			copy(sl.data, row)
			sl.full = true
			e.Signal(sl.isFull)
			e.Unlock(ns.mu)
		}
		positions := watergen.DefinePositions(rt, func(e *oam.Env, caller int, data []float64) {
			ns := states[e.Node()]
			store(e, ns.posSlots[caller], ns, data)
		})
		updates := watergen.DefineUpdates(rt, func(e *oam.Env, caller int, data []float64) {
			ns := states[e.Node()]
			store(e, ns.updSlots[caller], ns, data)
		})
		sendPos = func(c threads.Ctx, me, dst int, data []float64) {
			positions.CallAsync(c, dst, data)
		}
		sendUpd = func(c threads.Ctx, me, dst int, data []float64) {
			updates.CallAsync(c, dst, data)
		}
		consume := func(c threads.Ctx, ns *nodeState, sl *slot, into []float64, add bool) {
			ns.mu.Lock(c)
			for !sl.full {
				sl.isFull.Wait(c)
			}
			// Call-by-value buffer copy (the AM version avoids it).
			c.P.Charge(sim.Duration(8*len(sl.data)) * CostCopyPerByte)
			if add {
				applyUpd(ns, sl.data)
			} else {
				copy(into, sl.data)
			}
			sl.full = false
			sl.notFull.Signal(c)
			ns.mu.Unlock(c)
		}
		waitPos = func(c threads.Ctx, me, src int) {
			ns := states[me]
			srcLo, _ := molPartition(cfg.Mols, nodes, src)
			sl := ns.posSlots[src]
			consume(c, ns, sl, ns.pos[3*srcLo:3*srcLo+len(sl.data)], false)
		}
		waitUpd = func(c threads.Ctx, me, src int) {
			ns := states[me]
			consume(c, ns, ns.updSlots[src], nil, true)
		}
		oamStats = func() (uint64, uint64) {
			ps, us := positions.Stats(), updates.Stats()
			return ps.OAMs + us.OAMs, ps.Successes + us.Successes
		}

	default:
		return apps.Result{}, fmt.Errorf("water: unknown system %v", sys)
	}

	if cfg.Observe != nil {
		cfg.Observe(u, rtForObs)
	}
	topo := updTopology(cfg.Mols, nodes)
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		ns := states[me]
		ep := u.Endpoint(me)
		sched := u.Scheduler(me)
		for it := 0; it < cfg.Iters; it++ {
			// Phase 1: broadcast my positions to every other processor.
			mine := ns.pos[3*ns.lo : 3*ns.hi]
			for dst := 0; dst < nodes; dst++ {
				if dst != me {
					sendPos(c, me, dst, mine)
				}
			}
			for src := 0; src < nodes; src++ {
				if src != me {
					waitPos(c, me, src)
				}
			}
			// Local computation: owner-computes-half force phase.
			for i := range ns.acc {
				ns.acc[i] = 0
				ns.upd[i] = 0
			}
			accumulateOwned(ns.pos, ns.lo, ns.hi, cfg.Mols, ns.acc, ns.upd, func(pairs int) {
				c.P.Charge(sim.Duration(pairs) * CostPair)
				apps.Service(c, ep)
			})
			// Phase 2: scatter queued updates to the cyclically following
			// owners (roughly half of them); collect from the preceding
			// ones, in node order so accumulation stays deterministic.
			for dst := 0; dst < nodes; dst++ {
				if topo[me][dst] {
					dl, dh := molPartition(cfg.Mols, nodes, dst)
					sendUpd(c, me, dst, ns.upd[3*dl:3*dh])
				}
			}
			for src := 0; src < nodes; src++ {
				if topo[src][me] {
					waitUpd(c, me, src)
				}
			}
			// My own queued updates for my own molecules.
			applyUpd(ns, ns.upd[3*ns.lo:3*ns.hi])
			c.P.Charge(sim.Duration(ns.hi-ns.lo) * CostMol)
			integrate(&state{n: cfg.Mols, pos: ns.pos, vel: ns.vel}, ns.lo, ns.hi, ns.acc)
			if useBarrier {
				sched.Barrier(c)
			}
		}
	})
	if err != nil {
		return apps.Result{}, fmt.Errorf("water/%v: %w", sys, err)
	}

	var sum uint64
	for _, ns := range states {
		sum += checksum(&state{n: cfg.Mols, pos: ns.pos, vel: ns.vel}, ns.lo, ns.hi)
	}
	oams, succ := oamStats()
	res := apps.Result{
		System:  sys,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  sum,
	}
	apps.FillResult(&res, u, oams, succ)
	return res, nil
}

func encodeF64s(data []float64) []byte {
	e := rpc.NewEnc(8 * len(data))
	for _, v := range data {
		e.F64(v)
	}
	return e.Bytes()
}

func decodeF64s(b []byte, into []float64) {
	d := rpc.NewDec(b)
	for i := range into {
		into[i] = d.F64()
	}
	d.Done()
}

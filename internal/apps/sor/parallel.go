package sor

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	sorgen "repro/internal/apps/sor/gen"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

const (
	sideNorth = 0
	sideSouth = 1
)

// nodeState is one node's partition: its interior rows plus ghost rows,
// and the incoming edge buffers.
type nodeState struct {
	lo, hi int // global interior rows [lo, hi)
	cur    [][]float64
	next   [][]float64
	north  []float64 // ghost row lo-1
	south  []float64 // ghost row hi

	// Edge buffers (RPC variants) with their synchronization.
	mu      *threads.Mutex
	notFull [2]*threads.Cond
	isFull  [2]*threads.Cond
	full    [2]bool
	buf     [2][]float64

	// AM variant: direct deposit flags.
	present [2]bool
}

// partition splits the interior rows 1..rows-2 across n nodes.
func partition(rows, n, i int) (lo, hi int) {
	interior := rows - 2
	base := interior / n
	extra := interior % n
	lo = 1 + i*base + min(i, extra)
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

// Run executes SOR on nodes processors with system sys. The answer is
// the grid fingerprint, which must match SolveSeq bit for bit.
func Run(sys apps.System, nodes int, cfg Config) (apps.Result, error) {
	return run(sys, nodes, cfg, false)
}

// RunSenderSpecified executes the ORPC variant the paper suggests in
// section 4.2.3: "an RPC with sender-specified destinations for data",
// whose handler deposits the boundary row directly into the application's
// arrays instead of a call buffer, eliminating the call-by-value copy.
// The paper reports a hand-generated version "performs identically to the
// Active Message version"; this run should confirm that.
func RunSenderSpecified(nodes int, cfg Config) (apps.Result, error) {
	return run(apps.ORPC, nodes, cfg, true)
}

func run(sys apps.System, nodes int, cfg Config, senderSpecified bool) (apps.Result, error) {
	if nodes > cfg.Rows-2 {
		return apps.Result{}, fmt.Errorf("sor: %d nodes for %d interior rows", nodes, cfg.Rows-2)
	}
	eng := apps.Engine(cfg.Seed, cfg.Shards, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())

	states := make([]*nodeState, nodes)
	for i := range states {
		lo, hi := partition(cfg.Rows, nodes, i)
		ns := &nodeState{lo: lo, hi: hi}
		ns.cur = make([][]float64, hi-lo)
		ns.next = make([][]float64, hi-lo)
		for r := range ns.cur {
			ns.cur[r] = make([]float64, cfg.Cols)
			ns.next[r] = make([]float64, cfg.Cols)
		}
		ns.north = make([]float64, cfg.Cols)
		ns.south = make([]float64, cfg.Cols)
		ns.buf[0] = make([]float64, cfg.Cols)
		ns.buf[1] = make([]float64, cfg.Cols)
		// Global boundary: the top row is 100 (node 0's north ghost);
		// everything else is 0.
		if i == 0 {
			for c := range ns.north {
				ns.north[c] = 100
			}
		}
		ns.mu = threads.NewMutex(u.Scheduler(i))
		for s := 0; s < 2; s++ {
			ns.notFull[s] = threads.NewCond(ns.mu)
			ns.isFull[s] = threads.NewCond(ns.mu)
		}
		states[i] = ns
	}

	// sendRow delivers row data to neighbor dst's side buffer; waitRow
	// blocks until the side's data is available and copies it into ghost.
	var sendRow func(c threads.Ctx, me, dst int, side int32, row []float64)
	var waitRow func(c threads.Ctx, me int, side int32, ghost []float64)
	var oams, successes func() uint64

	var rtForObs *rpc.Runtime
	switch sys {
	case apps.AM:
		// Hand-coded: sender-specified destination; the handler deposits
		// the row directly into the ghost array (no extra copy) and
		// raises the present flag. The iteration structure guarantees
		// the previous row was consumed (see package doc).
		var storeH am.HandlerID
		storeH = u.Register("sor/store", func(c threads.Ctx, pkt *cm5.Packet) {
			ns := states[c.Node().ID()]
			side := int32(pkt.W0)
			ghost := ns.north
			if side == sideSouth {
				ghost = ns.south
			}
			if ns.present[side] {
				// The paper's AM version simply dies if its no-blocking
				// assumption is violated.
				panic("sor/AM: boundary row arrived before previous was consumed")
			}
			decodeRow(pkt.Payload, ghost)
			ns.present[side] = true
		})
		sendRow = func(c threads.Ctx, me, dst int, side int32, row []float64) {
			u.Endpoint(me).SendBulk(c, dst, storeH, [4]uint64{uint64(side)}, encodeRow(row))
		}
		waitRow = func(c threads.Ctx, me int, side int32, ghost []float64) {
			ns := states[me]
			for !ns.present[side] {
				u.Endpoint(me).Poll(c)
			}
			ns.present[side] = false
		}
		oams = func() uint64 { return 0 }
		successes = func() uint64 { return 0 }

	case apps.ORPC, apps.TRPC:
		mode := rpc.ORPC
		if sys == apps.TRPC {
			mode = rpc.TRPC
		}
		rt := rpc.New(u, rpc.Options{Mode: mode})
		rtForObs = rt
		store := sorgen.DefineStore(rt, func(e *oam.Env, caller int, side int32, row []float64) {
			ns := states[e.Node()]
			e.Lock(ns.mu)
			e.Await(ns.notFull[side], func() bool { return !ns.full[side] })
			e.Compute(CostStore)
			if senderSpecified {
				// Sender-specified destination: deposit straight into
				// the application's ghost row, like the AM version.
				ghost := ns.north
				if side == sideSouth {
					ghost = ns.south
				}
				copy(ghost, row)
			} else {
				copy(ns.buf[side], row)
			}
			ns.full[side] = true
			e.Signal(ns.isFull[side])
			e.Unlock(ns.mu)
		})
		sendRow = func(c threads.Ctx, me, dst int, side int32, row []float64) {
			store.CallAsync(c, dst, side, row)
		}
		waitRow = func(c threads.Ctx, me int, side int32, ghost []float64) {
			ns := states[me]
			ns.mu.Lock(c)
			for !ns.full[side] {
				ns.isFull[side].Wait(c)
			}
			if !senderSpecified {
				// Call-by-value semantics force this extra copy, which
				// the AM and sender-specified versions avoid.
				c.P.Charge(sim.Duration(8*len(ghost)) * CostCopyPerByte)
				copy(ghost, ns.buf[side])
			}
			ns.full[side] = false
			ns.notFull[side].Signal(c)
			ns.mu.Unlock(c)
		}
		oams = func() uint64 { return store.Stats().OAMs }
		successes = func() uint64 { return store.Stats().Successes }

	default:
		return apps.Result{}, fmt.Errorf("sor: unknown system %v", sys)
	}

	if cfg.Observe != nil {
		cfg.Observe(u, rtForObs)
	}
	iters := make([]int, nodes)
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		ns := states[me]
		sched := u.Scheduler(me)
		n := ns.hi - ns.lo
		it := 0
		for ; it < cfg.Iters; it++ {
			// Exchange boundary rows with interior neighbors. My top row
			// becomes the south ghost of node me-1; my bottom row the
			// north ghost of node me+1.
			if me > 0 {
				sendRow(c, me, me-1, sideSouth, ns.cur[0])
			}
			if me < nodes-1 {
				sendRow(c, me, me+1, sideNorth, ns.cur[n-1])
			}
			if me > 0 {
				waitRow(c, me, sideNorth, ns.north)
			}
			if me < nodes-1 {
				waitRow(c, me, sideSouth, ns.south)
			}
			// Relax my rows.
			maxd := 0.0
			for r := 0; r < n; r++ {
				up := ns.north
				if r > 0 {
					up = ns.cur[r-1]
				}
				down := ns.south
				if r < n-1 {
					down = ns.cur[r+1]
				}
				d := relaxRow(up, ns.cur[r], down, ns.next[r])
				if d > maxd {
					maxd = d
				}
				c.P.Charge(sim.Duration(cfg.Cols-2) * CostPoint)
				apps.Service(c, u.Endpoint(me))
			}
			ns.cur, ns.next = ns.next, ns.cur
			// Convergence: split-phase global OR of "still changing".
			sched.OREnter(maxd > cfg.Eps)
			if !sched.ORWait(c) {
				it++
				break
			}
		}
		iters[me] = it
	})
	if err != nil {
		return apps.Result{}, fmt.Errorf("sor/%v: %w", sys, err)
	}
	for i := 1; i < nodes; i++ {
		if iters[i] != iters[0] {
			return apps.Result{}, fmt.Errorf("sor/%v: iteration skew %v", sys, iters)
		}
	}

	var sum uint64
	for _, ns := range states {
		sum += checksumRows(ns.lo, ns.cur)
	}
	res := apps.Result{
		System:  sys,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  sum,
	}
	apps.FillResult(&res, u, oams(), successes())
	return res, nil
}

// encodeRow and decodeRow move float64 rows through packet payloads (the
// AM variant bypasses the RPC wire format but still ships bytes).
func encodeRow(row []float64) []byte {
	e := rpc.NewEnc(8 * len(row))
	for _, v := range row {
		e.F64(v)
	}
	return e.Bytes()
}

func decodeRow(b []byte, into []float64) {
	d := rpc.NewDec(b)
	for i := range into {
		into[i] = d.F64()
	}
	d.Done()
}

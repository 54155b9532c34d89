package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// The scale sweep answers the 100k-node question directly: does the
// kernel's per-event cost stay flat as the machine grows, and does a node
// cost O(1) memory whether the machine has 128 of them or 65536? Both are
// load-bearing claims of the scale work (calendar-queue scheduling and
// lazy node materialization); TestKernelScaleBudget asserts both against
// the budgets below.
const (
	// ScaleNsPerEventRatioMax caps NsPerEvent(N=65536) / NsPerEvent(N=128)
	// on the constant-event-budget storm. The algorithmic cost is flat —
	// the queue's own health numbers below (scans/pop, allocs/event) carry
	// that claim — but wall time per event is not purely algorithmic: at
	// N=128 the whole simulation (events, buckets, client state) is
	// L1/L2-resident, while at N=65536 each event fire performs ~3
	// dependent last-level-cache accesses (the event struct cycling
	// through a multi-MB pending set, its calendar bucket, and the
	// client's own state — the last being the workload's, not the
	// kernel's). No pointer-based scheduler gets below that, so the cap
	// is the measured memory-hierarchy floor (best-of-3 measures 2.4-2.9x
	// on an idle reference host, up to ~3.8x when sharing the host with a
	// concurrent test run) plus noise headroom, not a claim of
	// cache-immunity. What the cap is for is catching algorithmic
	// regressions: a heap-based scheduler blows well past it — O(log n)
	// comparisons each touching a scattered node puts the same sweep at
	// 8x+ — and so would any O(n) table rebuilt per event.
	ScaleNsPerEventRatioMax = 4.0
	// ScaleScansPerPopMax and ScaleAllocsPerEventMax assert the flatness
	// that *is* algorithmic, at every point of the sweep: forward scans
	// per pop near 1 (bucket width matched to event spacing at any N) and
	// a steady-state tick allocating nothing.
	ScaleScansPerPopMax    = 4.0
	ScaleAllocsPerEventMax = 0.05
	// ScaleBytesPerNodeCap bounds the retained heap per *touched* node
	// after the storm: the Node struct, its NIC (ring unallocated unless
	// the node received), shard bookkeeping, and the storm's own per-node
	// timer state. Asserted at the largest N of the sweep, where the
	// engine's fixed overhead (pools, the message ring, the queue's bucket
	// array) is amortized; at N=128 that fixed cost dominates the
	// division and the number means nothing. Measured ~0.4 KiB/node; the
	// cap leaves headroom for allocator size-class rounding across Go
	// versions.
	ScaleBytesPerNodeCap = 1024
	// ScaleIdleBytesPerNodeCap bounds the retained heap per node of a
	// machine that was built but never touched: with lazy materialization
	// that is one nil pointer slot per node plus O(shards) machinery, so
	// the cap is a few pointer widths, not a Node struct.
	ScaleIdleBytesPerNodeCap = 64
	// scaleWallFloor marks a point too fast to time reliably: below this
	// the sweep reports ScaleValid=false and the ratio assertion is
	// skipped rather than failed on timer noise.
	scaleWallFloor = 10 * time.Millisecond
)

// ScaleNodeCounts is the node sweep of KernelScale.
var ScaleNodeCounts = []int{128, 4096, 65536}

// ScalePoint is one node count of the sweep.
type ScalePoint struct {
	Nodes  int
	WallNs int64
	// NsPerEvent is host wall time per simulated event; the sweep holds
	// the total event budget constant, so these are directly comparable
	// across node counts.
	NsPerEvent     float64
	AllocsPerEvent float64
	// BytesPerNode is the GC-settled retained heap growth of the pass
	// (machine, queues, per-node storm state) divided by the node count —
	// every node is touched by the storm.
	BytesPerNode float64
	// ScansPerPop is the calendar queue's forward scan steps per pop
	// (see sim.QueueStats).
	ScansPerPop float64
}

// ScaleBench is the outcome of the scale sweep.
type ScaleBench struct {
	Points []ScalePoint
	// NsPerEventRatio is NsPerEvent at the largest node count over the
	// smallest — the flatness number held to ScaleNsPerEventRatioMax.
	NsPerEventRatio float64
	// IdleBytesPerNode is the retained heap per node of a machine at the
	// largest node count that no one ever touched: the price of existing.
	IdleBytesPerNode float64
	// ScaleValid is false when any point ran under the wall-clock floor,
	// where the ratio measures timer noise rather than kernel cost; the
	// flatness assertion is skipped (not failed) then, and Warning says
	// which point.
	ScaleValid bool
	Warning    string
}

// KernelScale runs the scale sweep: a timer-heavy many-client storm over
// all N nodes for N in ScaleNodeCounts, holding the total event budget
// constant so ns/event is comparable across the sweep, plus an idle-memory
// measurement of an untouched machine at the largest N.
func KernelScale(quick bool) ScaleBench {
	budget := 1 << 21
	if quick {
		// Quick keeps the sweep in test-suite time but must still give
		// the largest N a timed window big enough (~100 ms) that a GC
		// pause or a scheduling hiccup cannot move the ratio past its
		// cap on a busy host.
		budget = 1 << 19
	}
	sb := ScaleBench{ScaleValid: true}
	for _, n := range ScaleNodeCounts {
		// Best of three: ns/event on a shared host is right-skewed by
		// scheduling and frequency noise, and the minimum is the run
		// closest to the kernel's actual cost. Memory numbers are
		// noise-free, so any run's will do; take the fastest run's whole
		// point so each point is one self-consistent measurement.
		p := scaleStorm(n, budget)
		for r := 1; r < 3; r++ {
			if q := scaleStorm(n, budget); q.NsPerEvent < p.NsPerEvent {
				p = q
			}
		}
		if p.WallNs < scaleWallFloor.Nanoseconds() {
			sb.ScaleValid = false
			sb.Warning = fmt.Sprintf("point N=%d ran %.1fms < %.0fms floor: ns/event ratio is timer noise, not kernel cost",
				n, float64(p.WallNs)/1e6, float64(scaleWallFloor.Nanoseconds())/1e6)
		}
		sb.Points = append(sb.Points, p)
	}
	first, last := sb.Points[0], sb.Points[len(sb.Points)-1]
	if first.NsPerEvent > 0 {
		sb.NsPerEventRatio = last.NsPerEvent / first.NsPerEvent
	}
	sb.IdleBytesPerNode = idleBytesPerNode(ScaleNodeCounts[len(ScaleNodeCounts)-1])
	return sb
}

// scaleStep is the nominal timer re-arm period of the storm; each client
// adds its own sub-step offset.
const scaleStep = 50 * time.Microsecond

// scaleNoop is the decoy timer body; decoys are cancelled at birth, so it
// never runs.
func scaleNoop() {}

// scaleState is the shared context of one storm's clients.
type scaleState struct {
	eng    *sim.Engine
	m      *cm5.Machine
	rounds int32
}

// scaleClient is one node's timer chain. Clients live in a flat array —
// per-node state is a contiguous struct, not a scattered closure
// environment — and re-arm via AtAction/AfterAction so a tick allocates
// nothing.
type scaleClient struct {
	st     *scaleState
	id     int32
	left   int32
	offset int32 // per-node re-arm offset, ns
}

// Run is the timer callback: materialize on first touch, occasionally
// schedule-and-cancel a decoy (exercising lazy deletion in the calendar
// queue), and re-arm.
func (c *scaleClient) Run() {
	st := c.st
	if c.left == st.rounds {
		st.m.Node(int(c.id)) // first touch: materialize under load, like real clients
	}
	c.left--
	if c.left <= 0 {
		return
	}
	if c.left%4 == 0 {
		// Decoy: schedule one step out, cancel immediately — exercising
		// Timer arming and the cancel-unlink path at storm rate.
		t := st.eng.AfterTimer(2*scaleStep, scaleNoop)
		t.Cancel()
	}
	st.eng.AfterAction(scaleStep+sim.Duration(c.offset), c)
}

// scaleStorm is one point: nodes timer chains re-arming (with periodic
// schedule-and-cancel decoys, exercising the cancel-unlink path in the
// calendar queue) until the event budget is spent, plus a small fixed-size
// messaging ring so the pass also moves real packets through NICs. Every
// node is touched, so BytesPerNode is the full materialized cost.
func scaleStorm(nodes, budget int) ScalePoint {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	eng := sim.New(1)
	m := cm5.NewMachine(eng, nodes, cm5.DefaultCostModel())

	// One warmup round plus budget/nodes measured rounds: the warm phase
	// (run untimed below) materializes every node, fills the event pool to
	// its steady-state population, and re-arms every chain, so the timed
	// phase measures steady-state scheduling, not first-touch setup. The
	// setup cost is still fully visible — in BytesPerNode.
	rounds := budget/nodes + 1
	if rounds < 2 {
		rounds = 2
	}
	st := &scaleState{eng: eng, m: m, rounds: int32(rounds)}
	clients := make([]scaleClient, nodes)
	for i := 0; i < nodes; i++ {
		c := &clients[i]
		c.st = st
		c.id = int32(i)
		// Per-node re-arm offset decorrelates the chains so events spread
		// across calendar buckets instead of marching in one phalanx.
		c.offset = int32((i * 7919) % 50_000)
		c.left = int32(rounds)
		// First ticks spread over 4 µs — all inside the warm phase, all
		// before the earliest possible re-arm at scaleStep.
		eng.AtAction(sim.Time(1+i%4096), c)
	}

	// Fixed-size messaging component: an 8-node ring pushing real packets
	// through injection, NIC reservation, and delivery. Constant across
	// the sweep, so it never skews the per-N comparison.
	msgN := 8
	if msgN > nodes {
		msgN = nodes
	}
	const msgPackets = 256
	for i := 0; i < msgN; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("scale-msg/%d", i), func(p *sim.Proc) {
			nd := m.Node(i)
			dst := (i + 1) % msgN
			got := 0
			poll := func() {
				p.Charge(sim.Micros(2))
				if in := nd.PollPacket(p); in != nil {
					got++
					nd.ReleasePacket(in)
				}
			}
			for k := 0; k < msgPackets; k++ {
				pkt := nd.AllocPacket()
				pkt.Src, pkt.Dst, pkt.Kind = i, dst, cm5.Small
				for !nd.TryInject(p, pkt) {
					poll()
				}
			}
			for got < msgPackets {
				poll()
			}
		})
	}

	// Warm phase: every chain's first tick (and nothing else — re-arms
	// land at step ≈ 50 µs). Untimed; alloc-counted via mw below so the
	// timed window's AllocsPerEvent is steady-state.
	if err := eng.RunUntil(sim.Time(sim.Micros(10))); err != nil {
		panic(fmt.Sprintf("exp: scale storm warmup (nodes=%d): %v", nodes, err))
	}
	warmEvents := eng.Events()
	var mw runtime.MemStats
	runtime.ReadMemStats(&mw)

	start := time.Now()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("exp: scale storm (nodes=%d): %v", nodes, err))
	}
	wall := time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&m1)
	events := eng.Events() - warmEvents
	qs := eng.QueueStats()
	runtime.KeepAlive(m)

	p := ScalePoint{Nodes: nodes, WallNs: wall.Nanoseconds()}
	if qs.Pops > 0 {
		p.ScansPerPop = float64(qs.ScanSteps) / float64(qs.Pops)
	}
	if m1.HeapAlloc > m0.HeapAlloc {
		p.BytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(nodes)
	}
	if events > 0 {
		p.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		p.AllocsPerEvent = float64(m1.Mallocs-mw.Mallocs) / float64(events)
	}
	eng.Shutdown()
	return p
}

// idleBytesPerNode measures the retained heap per node of a machine that
// is built and then never touched: with lazy materialization this is the
// nil node-pointer table plus O(shards) machinery.
func idleBytesPerNode(nodes int) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng := sim.New(1)
	m := cm5.NewMachine(eng, nodes, cm5.DefaultCostModel())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(m)
	var heap uint64
	if m1.HeapAlloc > m0.HeapAlloc {
		heap = m1.HeapAlloc - m0.HeapAlloc
	}
	eng.Shutdown()
	return float64(heap) / float64(nodes)
}

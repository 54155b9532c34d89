package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/threads"
)

// KernelBench reports the host-side cost of the simulation kernel,
// measured by a two-node small-packet storm: one node streams small
// Active Messages, the other polls them in. Allocation counts are taken
// over a steady-state window (after the pools are warm), so they reflect
// the per-packet cost, not one-time slab fills.
type KernelBench struct {
	Packets          uint64  `json:"packets"`
	Events           uint64  `json:"events"`
	Dispatches       uint64  `json:"dispatches"`
	Handoffs         uint64  `json:"handoffs"`
	WallNs           int64   `json:"wall_ns"`
	NsPerEvent       float64 `json:"ns_per_event"`
	EventsPerSec     float64 `json:"events_per_sec"`
	NsPerDispatch    float64 `json:"ns_per_dispatch"`
	DispatchesPerSec float64 `json:"dispatches_per_sec"`
	// InlineEventFrac is the fraction of events the migrating kernel
	// loop fired without any goroutine handoff (kernel callbacks, packet
	// deliveries, and self-resumptions served on the live stack).
	InlineEventFrac float64 `json:"inline_event_frac"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
}

// OptimisticBench reports the sharded-kernel pass: the same multi-node
// packet storm run once on the sequential kernel and once sharded, with
// the engine's span/barrier counters and the speculation counters that
// say whether optimism paid off. The virtual results are verified
// identical between the two passes before the speedup is computed.
type OptimisticBench struct {
	Shards      int     `json:"shards"`
	Nodes       int     `json:"nodes"`
	Packets     uint64  `json:"packets"`
	Events      uint64  `json:"events"`
	WallNs      int64   `json:"wall_ns"`
	NsPerEvent  float64 `json:"ns_per_event"`
	BarrierNs   int64   `json:"barrier_ns"`
	BarrierFrac float64 `json:"barrier_frac"` // barrier time / total wall
	SeqWallNs   int64   `json:"seq_wall_ns"`
	Speedup     float64 `json:"speedup"` // sequential wall / sharded wall
	// SpeedupValid reports whether Speedup measures parallelism: false
	// when GOMAXPROCS=1 or the host has fewer CPUs than shards, where the
	// shard runners time-slice a core and the ratio only measures
	// scheduling overhead. Speedup assertions (CI) must key off this.
	SpeedupValid bool `json:"speedup_valid"`
	// Overhead decomposes the pass's host time (see WindowOverheadNs) so
	// BarrierFrac cannot hide where a poor speedup actually went.
	Overhead WindowOverheadNs `json:"window_overhead_ns"`
	// Spans is the committed-span count.
	Spans uint64 `json:"spans"`
	// Reopens counts retracted span-completion claims — the honest
	// rollback counter (scheduling claims roll back; state never does).
	Reopens uint64 `json:"reopens"`
	// SpecEvents counts events executed beyond the first lookahead of
	// their span — work a lockstep window scheduler would have
	// barriered for.
	SpecEvents uint64 `json:"spec_events"`
	Stalls     uint64 `json:"stalls"`
	Jumps      uint64 `json:"jumps"`
	// RollbackRate is Reopens / SpecEvents: the fraction of speculative
	// work that retracted a quiescence claim.
	RollbackRate float64 `json:"rollback_rate"`
	// RollbacksPerWindow is Reopens / Spans.
	RollbacksPerWindow float64 `json:"rollbacks_per_window"`
	// SpeculationWin is SpecEvents / Events: how much of the run executed
	// past its span's first lookahead.
	SpeculationWin float64 `json:"speculation_win"`
}

// WindowOverheadNs is the honest overhead breakdown of a sharded pass:
// BarrierNs is coordinator time between spans (NIC snapshot refresh,
// trace flush); WindowWallNs is wall time inside the parallel spans
// (handshake send to last shard done); ShardBusyNs sums every shard's
// in-span kernel time, so WindowWallNs − ShardBusyNs/Shards is the
// dispatch loss — handshake latency, straggler imbalance, and runtime
// scheduling — that a bare barrier fraction hides.
type WindowOverheadNs struct {
	BarrierNs    int64 `json:"barrier_ns"`
	WindowWallNs int64 `json:"window_wall_ns"`
	ShardBusyNs  int64 `json:"shard_busy_ns"`
	// DispatchLossNs is max(0, WindowWallNs − ShardBusyNs/Shards).
	DispatchLossNs int64 `json:"dispatch_loss_ns"`
}

// ExpBench is one experiment's wall-clock timing under the sequential
// (Workers=1) and parallel (Workers=GOMAXPROCS) harness.
type ExpBench struct {
	Name  string  `json:"name"`
	SeqMs float64 `json:"seq_ms"`
	ParMs float64 `json:"par_ms"`
}

// PassRSS is one peak-RSS reading, taken after the named bench pass.
// The OS reports a high-water mark, so the series is monotone; the pass
// where the number jumps is the pass that owned the peak.
type PassRSS struct {
	Pass         string `json:"pass"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
}

// BenchResult is the full host-performance report written to
// BENCH_kernel.json by `oamlab bench`.
type BenchResult struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GOGC and GOMEMLIMIT pin the GC configuration the numbers were taken
	// under — an aggressive GOGC or a tight memory limit changes ns/event
	// and allocation figures, so artifacts are only comparable when these
	// match. GOMEMLIMIT is math.MaxInt64 when unset.
	GOGC         int   `json:"gogc"`
	GOMEMLIMIT   int64 `json:"gomemlimit"`
	WorkerCounts []int `json:"worker_counts"` // effective harness widths of the seq and par passes
	// Shards is the engine shard count the harness cells requested
	// (exp.Shards); EffectiveWorkers is the harness width after the
	// cells × shards ≤ GOMAXPROCS budget.
	Shards           int  `json:"shards"`
	EffectiveWorkers int  `json:"effective_workers"`
	Quick            bool `json:"quick"`
	// Mode tags the artifact scale ("quick" or "full") so a consumer
	// never compares numbers against a mismatched-scale baseline.
	Mode string `json:"mode"`
	// Warning flags a report whose seq-vs-par comparison is meaningless
	// (GOMAXPROCS=1 serializes the parallel pass); consumers should not
	// read Speedup as a parallelism regression then.
	Warning string      `json:"warning,omitempty"`
	Kernel  KernelBench `json:"kernel"`
	// KernelOptimistic is the sharded-kernel ring storm (see
	// OptimisticBench).
	KernelOptimistic OptimisticBench `json:"kernel_optimistic"`
	// KernelObserved repeats the storm with a live obs metrics sink
	// attached to every layer; ObsOverheadPct is the per-event host-time
	// cost of that instrumentation relative to the uninstrumented pass.
	KernelObserved KernelBench `json:"kernel_observed"`
	ObsOverheadPct float64     `json:"obs_overhead_pct"`
	// KernelScale is the node-count sweep: ns/event flatness and
	// bytes/node under lazy materialization (see ScaleBench).
	KernelScale ScaleBench `json:"kernel_scale"`
	// KVSat is the service saturation pass: ORPC vs TRPC goodput through
	// the knee, plus the SLO p999 below it (see KVSaturation). All its
	// numbers are virtual-time, so they are host-independent.
	KVSat KVSaturation `json:"kv_saturation"`
	// KVMulti is the multiactive-dispatch pass: the read-heavy Zipf cell
	// at 1/2/4 simulated cores per server (see KVMultiactive). Also all
	// virtual-time and host-independent.
	KVMulti KVMultiactive `json:"kv_multiactive"`
	// RSS is the peak-RSS-after-each-pass series (monotone high-water).
	RSS         []PassRSS  `json:"rss"`
	Experiments []ExpBench `json:"experiments"`
	SeqMsTotal  float64    `json:"seq_ms_total"`
	ParMsTotal  float64    `json:"par_ms_total"`
	Speedup     float64    `json:"speedup"`
}

// KernelStorm runs the kernel microbenchmark: warmup packets to fill the
// event/packet pools, then packets more through the NIC with allocation
// accounting on. It is also used by the allocation-budget tests.
func KernelStorm(warmup, packets int) KernelBench {
	return kernelStorm(warmup, packets, nil)
}

// KernelStormObserved runs the same storm with a live obs metrics sink
// attached to every layer, measuring what instrumentation costs when it
// is actually on (the off case is KernelStorm: probes stay nil and the
// hot path never branches into the collector).
func KernelStormObserved(warmup, packets int) (KernelBench, *obs.Collector) {
	c := obs.New(obs.Options{Metrics: true})
	kb := kernelStorm(warmup, packets, func(u *am.Universe) { c.Attach(u, nil) })
	return kb, c
}

func kernelStorm(warmup, packets int, observe func(*am.Universe)) KernelBench {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	if observe != nil {
		observe(u)
	}
	received := 0
	h := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	var m0, m1 runtime.MemStats
	total := warmup + packets
	start := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < warmup; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			// Steady state: pools are warm, every send/deliver/poll from
			// here on should recycle rather than allocate.
			runtime.ReadMemStats(&m0)
			for i := 0; i < packets; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			runtime.ReadMemStats(&m1)
			return
		}
		for received < total {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("exp: kernel storm deadlocked: %v", err))
	}
	if received != total {
		panic(fmt.Sprintf("exp: kernel storm lost packets: %d of %d", received, total))
	}
	events := eng.Events()
	dispatches := eng.Dispatches()
	handoffs := eng.Handoffs()
	allocs := float64(m1.Mallocs - m0.Mallocs)
	kb := KernelBench{
		Packets:         uint64(packets),
		Events:          events,
		Dispatches:      dispatches,
		Handoffs:        handoffs,
		WallNs:          wall.Nanoseconds(),
		AllocsPerPacket: allocs / float64(packets),
	}
	if events > 0 {
		kb.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		kb.EventsPerSec = float64(events) / wall.Seconds()
		kb.InlineEventFrac = 1 - float64(handoffs)/float64(events)
		// The measured window covers ~packets/total of the run; scale the
		// event count rather than pretending the window saw them all.
		winEvents := float64(events) * float64(packets) / float64(total)
		kb.AllocsPerEvent = allocs / winEvents
	}
	if dispatches > 0 {
		kb.NsPerDispatch = float64(wall.Nanoseconds()) / float64(dispatches)
		kb.DispatchesPerSec = float64(dispatches) / wall.Seconds()
	}
	return kb
}

// KernelStormOptimistic measures the sharded kernel against the
// sequential one on an identical workload: a nodes-wide ring storm (every
// node streams small messages to its right neighbor while polling its own
// arrivals). Both passes must produce identical virtual results — event
// count and charged time — or the function panics, since that would break
// the sharded kernel's core contract.
func KernelStormOptimistic(nodes, packets, shards int) OptimisticBench {
	shards = apps.ResolveShards(shards, nodes)
	seqWall, seqEvents, seqCharged, _, _ := kernelRingStorm(nodes, packets, 1)
	wall, events, charged, ov, ost := kernelRingStorm(nodes, packets, shards)
	if events != seqEvents || charged != seqCharged {
		panic(fmt.Sprintf("exp: sharded storm diverged from sequential: events %d vs %d, charged %v vs %v",
			events, seqEvents, charged, seqCharged))
	}
	ob := OptimisticBench{
		Shards:       shards,
		Nodes:        nodes,
		Packets:      uint64(nodes * packets),
		Events:       events,
		WallNs:       wall.Nanoseconds(),
		BarrierNs:    ov.BarrierNs,
		SeqWallNs:    seqWall.Nanoseconds(),
		SpeedupValid: runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() >= shards,
		Overhead: WindowOverheadNs{
			BarrierNs:    ov.BarrierNs,
			WindowWallNs: ov.WindowWallNs,
			ShardBusyNs:  ov.ShardBusyNs,
		},
		Spans:      ost.Spans,
		Reopens:    ost.Reopens,
		SpecEvents: ost.SpecEvents,
		Stalls:     ost.Stalls,
		Jumps:      ost.Jumps,
	}
	if loss := ov.WindowWallNs - ov.ShardBusyNs/int64(shards); loss > 0 {
		ob.Overhead.DispatchLossNs = loss
	}
	if events > 0 {
		ob.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		ob.SpeculationWin = float64(ost.SpecEvents) / float64(events)
	}
	if wall > 0 {
		ob.BarrierFrac = float64(ov.BarrierNs) / float64(wall.Nanoseconds())
		ob.Speedup = float64(seqWall.Nanoseconds()) / float64(wall.Nanoseconds())
	}
	if ost.SpecEvents > 0 {
		ob.RollbackRate = float64(ost.Reopens) / float64(ost.SpecEvents)
	}
	if ost.Spans > 0 {
		ob.RollbacksPerWindow = float64(ost.Reopens) / float64(ost.Spans)
	}
	return ob
}

// kernelRingStorm is one pass of the ring storm at the given shard count
// (1 = the sequential kernel).
func kernelRingStorm(nodes, packets, shards int) (wall time.Duration, events uint64, charged sim.Duration, ov sim.WindowOverhead, ost sim.OptStats) {
	eng := sim.NewSharded(1, shards)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	received := make([]int, nodes)
	h := u.Register("ring", func(c threads.Ctx, pkt *cm5.Packet) { received[pkt.Dst]++ })
	start := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		dst := (node + 1) % nodes
		for i := 0; i < packets; i++ {
			ep.Send(c, dst, h, [4]uint64{uint64(i)}, nil)
			if i%8 == 7 {
				c.P.Charge(sim.Micros(2))
				ep.PollAll(c)
			}
		}
		for received[node] < packets {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	wall = time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("exp: ring storm (shards=%d) deadlocked: %v", shards, err))
	}
	return wall, eng.Events(), eng.Charged(), eng.WindowOverhead(), eng.OptStats()
}

// benchSuite lists the experiments timed by Bench, in `oamlab all` order.
var benchSuite = []struct {
	name string
	run  func(Scale) error
}{
	{"table1", func(Scale) error { Table1Table(); return nil }},
	{"bulk", func(Scale) error { BulkTable(); return nil }},
	{"abortcost", func(Scale) error { AbortCostTable(); return nil }},
	{"fig1", func(s Scale) error { _, _, err := Fig1Triangle(s); return err }},
	{"fig2", func(s Scale) error { _, _, err := Fig2TSP(s); return err }},
	{"fig3", func(s Scale) error { _, _, err := Fig3SOR(s); return err }},
	{"fig4", func(s Scale) error { _, _, err := Fig4Water(s); return err }},
	{"table3", func(s Scale) error { _, err := Table3(s); return err }},
	{"ablation", func(Scale) error { AblationTable(); return nil }},
	{"appablation", func(s Scale) error { _, err := AppAblationTable(s.Quick); return err }},
	{"schedpolicy", func(Scale) error { SchedPolicyTable(); return nil }},
	{"budget", func(Scale) error { BudgetTable(); return nil }},
	{"buffering", func(Scale) error { BufferingTable(); return nil }},
	{"interrupts", func(Scale) error { InterruptsTable(); return nil }},
	{"sorsizes", func(s Scale) error { _, err := SORSizesTable(s.Quick); return err }},
	{"chaos", func(s Scale) error { _, err := ChaosTable(s); return err }},
	{"kv", func(s Scale) error { _, err := KVTable(s); return err }},
	{"kvmulti", func(s Scale) error { _, err := KVMultiactiveTable(s.Quick); return err }},
}

// Bench measures kernel throughput and the wall-clock of every experiment
// under the sequential and parallel harness. It mutates (and restores)
// Workers, so it must not run concurrently with other experiments.
func Bench(scale Scale) (*BenchResult, error) {
	warmup, packets := 50_000, 200_000
	if scale.Quick {
		warmup, packets = 5_000, 20_000
	}
	mode := "full"
	if scale.Quick {
		mode = "quick"
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	res := &BenchResult{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		GOGC:             gogc,
		GOMEMLIMIT:       debug.SetMemoryLimit(-1),
		Shards:           Shards,
		EffectiveWorkers: EffectiveWorkers(),
		Quick:            scale.Quick,
		Mode:             mode,
		Kernel:           KernelStorm(warmup, packets),
	}
	markRSS := func(pass string) {
		res.RSS = append(res.RSS, PassRSS{Pass: pass, PeakRSSBytes: peakRSSBytes()})
	}
	markRSS("kernel")
	// Sharded pass: a ring storm at min(NumCPU, nodes) shards (forced to
	// at least 2 so the span path is always exercised, even on a
	// single-CPU host — the speedup is then < 1 and flagged below).
	ringNodes, ringPackets := 8, packets/4
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 2
	}
	res.KernelOptimistic = KernelStormOptimistic(ringNodes, ringPackets, shards)
	markRSS("kernel_optimistic")
	res.KernelObserved, _ = KernelStormObserved(warmup, packets)
	if res.Kernel.NsPerEvent > 0 {
		res.ObsOverheadPct = 100 * (res.KernelObserved.NsPerEvent/res.Kernel.NsPerEvent - 1)
	}
	markRSS("kernel_observed")
	res.KernelScale = KernelScale(scale.Quick)
	markRSS("kernel_scale")
	sat, err := KVSaturationBench(scale.Quick)
	if err != nil {
		return nil, fmt.Errorf("bench kv_saturation: %w", err)
	}
	res.KVSat = sat
	markRSS("kv_saturation")
	multi, err := KVMultiactiveBench(scale.Quick)
	if err != nil {
		return nil, fmt.Errorf("bench kv_multiactive: %w", err)
	}
	res.KVMulti = multi
	markRSS("kv_multiactive")
	if res.GOMAXPROCS == 1 {
		res.Warning = "GOMAXPROCS=1: the parallel pass runs serialized, so the seq-vs-par and seq-vs-sharded speedups do not measure parallelism"
	}
	saved := Workers
	defer func() { Workers = saved }()
	res.Experiments = make([]ExpBench, len(benchSuite))
	res.WorkerCounts = []int{1, res.GOMAXPROCS}
	if Shards > 1 {
		// The cells × shards budget caps the parallel pass width.
		saved := Workers
		Workers = res.GOMAXPROCS
		res.WorkerCounts[1] = EffectiveWorkers()
		Workers = saved
	}
	for pass, w := range res.WorkerCounts {
		Workers = w
		for i, e := range benchSuite {
			start := time.Now()
			if err := e.run(scale); err != nil {
				return nil, fmt.Errorf("bench %s (workers=%d): %w", e.name, w, err)
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			res.Experiments[i].Name = e.name
			if pass == 0 {
				res.Experiments[i].SeqMs = ms
				res.SeqMsTotal += ms
			} else {
				res.Experiments[i].ParMs = ms
				res.ParMsTotal += ms
			}
		}
		if pass == 0 {
			markRSS("suite_seq")
		} else {
			markRSS("suite_par")
		}
	}
	if res.ParMsTotal > 0 {
		res.Speedup = res.SeqMsTotal / res.ParMsTotal
	}
	return res, nil
}

// WriteJSON writes the report to path (the BENCH_kernel.json artifact).
func (r *BenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table formats the report for the terminal.
func (r *BenchResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Host performance: kernel %.0f events/sec (%.0f ns/event, %.0f ns/dispatch, %.1f%% inline, %.3f allocs/packet), suite speedup %.2fx on %d CPUs",
			r.Kernel.EventsPerSec, r.Kernel.NsPerEvent, r.Kernel.NsPerDispatch,
			100*r.Kernel.InlineEventFrac, r.Kernel.AllocsPerPacket, r.Speedup, r.GOMAXPROCS),
		Columns: []string{"Experiment", "Seq(ms)", "Par(ms)", "Speedup"},
		Notes: []string{
			"virtual results are byte-identical at any worker count; only wall time changes",
			fmt.Sprintf("live obs metrics sink: %.0f ns/event (%+.1f%% vs disabled, %.3f allocs/packet)",
				r.KernelObserved.NsPerEvent, r.ObsOverheadPct, r.KernelObserved.AllocsPerPacket),
			fmt.Sprintf("sharded kernel: %d shards over %d nodes, %.0f ns/event, %d spans (%d reopens, %.1f%% speculative events), %.1f%% barrier, %.2fx vs sequential",
				r.KernelOptimistic.Shards, r.KernelOptimistic.Nodes, r.KernelOptimistic.NsPerEvent,
				r.KernelOptimistic.Spans, r.KernelOptimistic.Reopens,
				100*r.KernelOptimistic.SpeculationWin, 100*r.KernelOptimistic.BarrierFrac,
				r.KernelOptimistic.Speedup),
		},
	}
	if n := len(r.KernelScale.Points); n > 0 {
		first, last := r.KernelScale.Points[0], r.KernelScale.Points[n-1]
		t.Notes = append(t.Notes, fmt.Sprintf(
			"scale sweep: %.0f ns/event at N=%d vs %.0f at N=%d (ratio %.2f, budget %.1f), %.0f B/node touched, %.1f B/node idle",
			first.NsPerEvent, first.Nodes, last.NsPerEvent, last.Nodes,
			r.KernelScale.NsPerEventRatio, r.KernelScale.NsPerEventRatioMax,
			last.BytesPerNode, r.KernelScale.IdleBytesPerNode))
		if !r.KernelScale.ScaleValid {
			t.Notes = append(t.Notes, "scale sweep below wall-clock floor on this host (scale_valid=false): ratio is not a kernel-cost measurement")
		}
	}
	if r.KVSat.Valid {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"kv saturation: TRPC knee at %.2fx load, ORPC p999 %.0f us at 70%% of knee, %.2fx ORPC/TRPC goodput at %.2fx load",
			r.KVSat.KneeRateX, r.KVSat.P999At70PctKneeUs,
			r.KVSat.GoodputRatioAtMax, r.KVSat.Multipliers[len(r.KVSat.Multipliers)-1]))
	} else {
		t.Notes = append(t.Notes,
			"kv saturation: the sweep never found the TRPC knee (kv_saturation.valid=false)")
	}
	if n := len(r.KVMulti.Cores); n > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"kv multiactive: %.2fx goodput and %.2fx p999 at %d cores vs single-active (occupancy %.2f), valid=%v",
			r.KVMulti.SpeedupAtMax, r.KVMulti.P999RatioAtMax, r.KVMulti.Cores[n-1],
			r.KVMulti.OccupancyFrac[n-1], r.KVMulti.Valid))
	}
	gcNote := fmt.Sprintf("GC config: GOGC=%d GOMEMLIMIT=", r.GOGC)
	if r.GOMEMLIMIT == math.MaxInt64 {
		gcNote += "off"
	} else {
		gcNote += fmt.Sprintf("%d", r.GOMEMLIMIT)
	}
	if n := len(r.RSS); n > 0 {
		gcNote += fmt.Sprintf("; peak RSS %.1f MiB after %s", float64(r.RSS[n-1].PeakRSSBytes)/(1<<20), r.RSS[n-1].Pass)
	}
	t.Notes = append(t.Notes, gcNote)
	if !r.KernelOptimistic.SpeedupValid {
		t.Notes = append(t.Notes,
			"the sharded speedup is not a parallelism measurement on this host (speedup_valid=false)")
	}
	if r.Warning != "" {
		t.Notes = append(t.Notes, "WARNING: "+r.Warning)
	}
	for _, e := range r.Experiments {
		sp := 0.0
		if e.ParMs > 0 {
			sp = e.SeqMs / e.ParMs
		}
		t.Rows = append(t.Rows, []string{
			e.Name, fmt.Sprintf("%.1f", e.SeqMs), fmt.Sprintf("%.1f", e.ParMs), f2(sp),
		})
	}
	t.Rows = append(t.Rows, []string{
		"total", fmt.Sprintf("%.1f", r.SeqMsTotal), fmt.Sprintf("%.1f", r.ParMsTotal), f2(r.Speedup),
	})
	return t
}

package exp

import (
	"fmt"
	"runtime"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/threads"
)

// StormAllocs is the allocation count of a two-node small-packet storm:
// one node streams small Active Messages, the other polls them in.
// Allocations are counted over a steady-state window (after the pools are
// warm), so they reflect the per-packet cost, not one-time slab fills.
type StormAllocs struct {
	Packets         uint64
	AllocsPerPacket float64
}

// KernelStorm runs the storm: warmup packets to fill the event/packet
// pools, then packets more through the NIC with allocation accounting on.
// The allocation-budget tests read it.
func KernelStorm(warmup, packets int) StormAllocs {
	return kernelStorm(warmup, packets, nil)
}

// KernelStormObserved runs the same storm with a live obs metrics sink
// attached to every layer, so the budget covers instrumentation that is
// actually on (the off case is KernelStorm: probes stay nil and the hot
// path never branches into the collector).
func KernelStormObserved(warmup, packets int) (StormAllocs, *obs.Collector) {
	c := obs.New(obs.Options{Metrics: true})
	sa := kernelStorm(warmup, packets, func(u *am.Universe) { c.Attach(u, nil) })
	return sa, c
}

func kernelStorm(warmup, packets int, observe func(*am.Universe)) StormAllocs {
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
	if err != nil {
		panic(fmt.Sprintf("exp: kernel storm deadlocked: %v", err))
	}
	if received != total {
		panic(fmt.Sprintf("exp: kernel storm lost packets: %d of %d", received, total))
	}
	return StormAllocs{
		Packets:         uint64(packets),
		AllocsPerPacket: float64(m1.Mallocs-m0.Mallocs) / float64(packets),
	}
}

// ShardedStorm is the deterministic outcome of a sharded ring storm:
// the total event count and the engine's span-protocol counters. All
// three are functions of virtual state alone, so tests pin them exactly.
type ShardedStorm struct {
	Events uint64
	// Spans is the committed-span count.
	Spans uint64
	// SpecEvents counts events executed beyond the first lookahead of
	// their span — work a lockstep window scheduler would have
	// barriered for.
	SpecEvents uint64
}

// KernelStormOptimistic runs a nodes-wide ring storm (every node streams
// small messages to its right neighbor while polling its own arrivals)
// on the sequential kernel and again on shards shards. Both passes must
// produce identical virtual results — event count and charged time — or
// the function panics, since that would break the sharded kernel's core
// contract.
func KernelStormOptimistic(nodes, packets, shards int) ShardedStorm {
	shards = apps.ResolveShards(shards, nodes)
	seqEvents, seqCharged, _ := kernelRingStorm(nodes, packets, 1)
	events, charged, ost := kernelRingStorm(nodes, packets, shards)
	if events != seqEvents || charged != seqCharged {
		panic(fmt.Sprintf("exp: sharded storm diverged from sequential: events %d vs %d, charged %v vs %v",
			events, seqEvents, charged, seqCharged))
	}
	return ShardedStorm{Events: events, Spans: ost.Spans, SpecEvents: ost.SpecEvents}
}

// kernelRingStorm is one pass of the ring storm at the given shard count
// (1 = the sequential kernel).
func kernelRingStorm(nodes, packets, shards int) (events uint64, charged sim.Duration, ost sim.OptStats) {
	eng := sim.NewSharded(1, shards)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	received := make([]int, nodes)
	h := u.Register("ring", func(c threads.Ctx, pkt *cm5.Packet) { received[pkt.Dst]++ })
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
	if err != nil {
		panic(fmt.Sprintf("exp: ring storm (shards=%d) deadlocked: %v", shards, err))
	}
	return eng.Events(), eng.Charged(), eng.OptStats()
}

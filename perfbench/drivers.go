package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// driverReps is how many times each driver runs; its metric is the
// median.
const driverReps = 5

// driver times one layer's public operation in isolation. run performs
// n operations and returns the metric for them (host ns per operation,
// or allocations per operation).
type driver struct {
	name string
	unit string
	n    int
	run  func(n int) float64
}

var drivers = []driver{
	{"sim.switch_ns", "ns", 10000, simSwitch},
	{"sim.event_ns", "ns", 100000, simEvent},
	{"sim.timer_cancel_ns", "ns", 50000, simTimerCancel},
	{"sim.spawn_ns", "ns", 10000, simSpawn},
	{"cm5.inject_poll_ns", "ns", 20000, cm5InjectPoll},
	{"threads.create_ns", "ns", 5000, threadsCreate},
	{"threads.yield_ns", "ns", 5000, threadsYield},
	{"am.send_poll_ns", "ns", 20000, func(n int) float64 { ns, _ := amSmall(n); return ns }},
	{"am.allocs_per_packet", "allocs", 20000, func(n int) float64 { _, a := amSmall(n); return a }},
	{"am.bulk_ns", "ns", 5000, amBulk},
	{"reliable.send_ack_ns", "ns", 10000, reliableSendAck},
	{"oam.inline_call_ns", "ns", 5000, func(n int) float64 { return rpcCalls(n, callInline) }},
	{"oam.promote_call_ns", "ns", 3000, func(n int) float64 { return rpcCalls(n, callPromote) }},
	{"oam.multi_call_ns", "ns", 5000, func(n int) float64 { return rpcCalls(n, callMulti) }},
	{"rpc.trpc_call_ns", "ns", 3000, func(n int) float64 { return rpcCalls(n, callTRPC) }},
	{"rpc.marshal_ns", "ns", 200000, rpcMarshal},
	{"obs.hist_observe_ns", "ns", 1000000, obsHistObserve},
}

// runDrivers runs every driver driverReps times, each under its own
// span, and returns the medians by metric name.
func runDrivers(rec *spanRecorder) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range drivers {
		vals := make([]float64, driverReps)
		for i := range vals {
			sp := rec.begin(fmt.Sprintf("driver %s#%d", d.name, i), -1)
			vals[i] = d.run(d.n)
			rec.end(sp)
		}
		out[d.name] = median(vals)
	}
	return out
}

func nsPer(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

func mustRun(err error) {
	if err != nil {
		panic(fmt.Sprintf("perfbench: driver simulation failed: %v", err))
	}
}

// simSwitch ping-pongs two processes through Park/Unpark: every
// dispatch hands the kernel to the other process's goroutine.
func simSwitch(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	var ping, pong *sim.Proc
	pong = eng.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
			ping.Unpark()
		}
	})
	ping = eng.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Unpark()
			p.Park()
		}
	})
	t0 := time.Now()
	mustRun(eng.Run())
	return nsPer(t0, 2*n)
}

// simEvent fires plain callback events from 64 self-rescheduling chains:
// push, pop and fire per event, with no process switch.
func simEvent(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	const chains = 64
	left := n
	var fire func()
	fire = func() {
		left--
		if left >= chains {
			eng.After(sim.Duration(1+left%7), fire)
		}
	}
	for i := 0; i < chains; i++ {
		eng.At(sim.Time(i), fire)
	}
	t0 := time.Now()
	mustRun(eng.Run())
	return nsPer(t0, int(eng.Events()))
}

// simTimerCancel arms and cancels timers beside 64 pending ones, the
// deadline/retransmit pattern of the reliable transport and deadline
// calls.
func simTimerCancel(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	noop := func() {}
	var ns float64
	eng.At(0, func() {
		for i := 0; i < 64; i++ {
			eng.AfterTimer(sim.Duration(1_000_000+i), noop)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t := eng.AfterTimer(sim.Duration(1+i%500), noop)
			t.Cancel()
		}
		ns = nsPer(t0, n)
	})
	mustRun(eng.Run())
	return ns
}

// simSpawn runs a pooled process lifecycle, spawn through exit.
func simSpawn(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	nop := func(*sim.Proc) {}
	eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			eng.Spawn("w", nop)
			p.Charge(sim.Micros(1))
		}
	})
	t0 := time.Now()
	mustRun(eng.Run())
	return nsPer(t0, n)
}

// cm5InjectPoll streams small packets through the network interface:
// TryInject on one node, PollPacket on the other.
func cm5InjectPoll(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 2, cm5.DefaultCostModel())
	src, dst := m.Node(0), m.Node(1)
	eng.Spawn("inject", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := src.AllocPacket()
			pkt.Src, pkt.Dst, pkt.Kind, pkt.W0 = 0, 1, cm5.Small, uint64(i)
			for !src.TryInject(p, pkt) {
				p.Charge(sim.Micros(1))
			}
		}
	})
	got := 0
	eng.Spawn("poll", func(p *sim.Proc) {
		for got < n {
			if pkt := dst.PollPacket(p); pkt != nil {
				got++
				dst.ReleasePacket(pkt)
			}
		}
	})
	t0 := time.Now()
	mustRun(eng.Run())
	return nsPer(t0, n)
}

// threadsCreate creates a thread and joins it: creation, a live-stack
// start and exit.
func threadsCreate(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 1, cm5.DefaultCostModel())
	body := func(threads.Ctx) {}
	t0 := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, _ int) {
		for i := 0; i < n; i++ {
			c.S.Create(c, "w", false, body).Join(c)
		}
	})
	mustRun(err)
	return nsPer(t0, n)
}

// threadsYield switches between two runnable threads by yielding.
func threadsYield(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 1, cm5.DefaultCostModel())
	t0 := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, _ int) {
		peer := c.S.Create(c, "peer", false, func(c threads.Ctx) {
			for i := 0; i < n; i++ {
				c.S.Yield(c)
			}
		})
		for i := 0; i < n; i++ {
			c.S.Yield(c)
		}
		peer.Join(c)
	})
	mustRun(err)
	return nsPer(t0, 2*n)
}

// amSmall streams small Active Messages from node 0 to a polling node 1
// and reports host ns per packet and heap allocations per packet once
// the pools are warm.
func amSmall(n int) (float64, float64) {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	received := 0
	h := u.Register("sink", func(threads.Ctx, *cm5.Packet) { received++ })
	const warm = 1000
	var m0, m1 runtime.MemStats
	var ns float64
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < warm; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			ns = nsPer(t0, n)
			runtime.ReadMemStats(&m1)
			return
		}
		for received < warm+n {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	mustRun(err)
	return ns, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// amBulk streams 1 KiB bulk transfers.
func amBulk(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	received := 0
	h := u.Register("sink", func(threads.Ctx, *cm5.Packet) { received++ })
	payload := make([]byte, 1024)
	t0 := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < n; i++ {
				ep.SendBulk(c, 1, h, [4]uint64{uint64(i)}, payload)
			}
			return
		}
		for received < n {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	mustRun(err)
	return nsPer(t0, n)
}

// reliableSendAck sends small messages through the reliable transport
// on a clean network: data, ack and the retransmit timer's arm and
// cancel per message.
func reliableSendAck(n int) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	tr := reliable.Attach(u, reliable.Options{})
	received := 0
	h := u.Register("sink", func(threads.Ctx, *cm5.Packet) { received++ })
	t0 := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < n; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			for tr.Stats().AcksReceived < uint64(n) {
				c.P.Charge(sim.Micros(2))
				ep.PollAll(c)
			}
			return
		}
		for received < n {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	mustRun(err)
	return nsPer(t0, n)
}

// callKind selects the dispatch path an rpcCalls driver exercises.
type callKind int

const (
	callInline  callKind = iota // ORPC, commits inside the handler
	callPromote                 // ORPC, over the handler budget: promoted to a thread
	callMulti                   // ORPC on 2 cores with a compatibility matrix
	callTRPC                    // a thread per call
)

// rpcCalls makes n synchronous 16-byte calls from node 0 to a polling
// node 1 and returns host ns per call.
func rpcCalls(n int, kind callKind) float64 {
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	opts := rpc.Options{Mode: rpc.ORPC}
	work := sim.Micros(1)
	switch kind {
	case callPromote:
		opts.OAM.HandlerBudget = sim.Micros(5)
		work = sim.Micros(10)
	case callMulti:
		opts.OAM.Cores = 2
	case callTRPC:
		opts.Mode = rpc.TRPC
	}
	rt := rpc.New(u, opts)
	echo := rt.Define("echo", func(e *oam.Env, _ int, arg []byte) []byte {
		e.Compute(work)
		return arg
	})
	if kind == callMulti {
		tbl := oam.NewCompatTable(1)
		tbl.Allow(0, 0)
		rt.SetCompat(rpc.CompatSpec{Table: tbl, Methods: []rpc.CompatMethod{{Name: "echo"}}})
	}
	arg := make([]byte, 16)
	done := false
	t0 := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < n; i++ {
				echo.Call(c, 1, arg)
			}
			done = true
			return
		}
		for !done {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
			c.S.Yield(c)
		}
	})
	mustRun(err)
	ns := nsPer(t0, n)
	if kind == callPromote && rt.Dispatcher().Stats().Promoted < uint64(n) {
		panic("perfbench: promote driver did not promote")
	}
	return ns
}

var marshalSink uint64

// rpcMarshal encodes and decodes a two-word argument record.
func rpcMarshal(n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		enc := rpc.NewEnc(16)
		enc.U64(uint64(i))
		enc.U64(uint64(i) * 3)
		dec := rpc.NewDec(enc.Bytes())
		marshalSink += dec.U64() + dec.U64()
	}
	return nsPer(t0, n)
}

// obsHistObserve records latencies into a materialized per-node
// histogram, the kv latency probe's hot path.
func obsHistObserve(n int) float64 {
	reg := obs.NewRegistry(4)
	h := reg.NewHistogram("lat", kvLatBounds...)
	h.Materialize()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(i&3, sim.Duration(i%200000))
	}
	return nsPer(t0, n)
}

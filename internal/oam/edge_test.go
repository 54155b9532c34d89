package oam

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestContinuationTransfersHeldLocks: a body that acquires lock A
// optimistically and then promotes while blocking on lock B must carry A
// into its thread identity (AdoptOwner) so that unlocking works.
func TestContinuationTransfersHeldLocks(t *testing.T) {
	var muA, muB *threads.Mutex
	completed := false
	r := newRig(t, Options{Strategy: Continuation}, func(e *Env, pkt *cm5.Packet) {
		e.Lock(muA)
		e.Lock(muB) // blocks: promotion happens holding A
		e.Compute(sim.Micros(1))
		completed = true
		e.Unlock(muB)
		e.Unlock(muA)
	})
	s := r.u.Scheduler(1)
	muA = threads.NewMutex(s)
	muB = threads.NewMutex(s)
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			return
		}
		muB.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		// A must still be held by the (promoted, suspended) execution.
		if !muA.Held() {
			t.Error("lock A released during continuation promotion")
		}
		muB.Unlock(c)
		for !completed {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("never completed")
	}
	if muA.Held() || muB.Held() {
		t.Fatal("locks leaked")
	}
}

// TestContinuationBufferedSendFlushOrder: messages buffered before a
// promotion must be delivered before messages sent after it.
func TestContinuationBufferedSendFlushOrder(t *testing.T) {
	var mu *threads.Mutex
	var order []uint64
	var sink am.HandlerID
	r := newRig(t, Options{Strategy: Continuation}, func(e *Env, pkt *cm5.Packet) {
		e.Send(0, sink, [4]uint64{1}, nil) // buffered (optimistic)
		e.Lock(mu)                         // promotes
		e.Unlock(mu)
		e.Send(0, sink, [4]uint64{2}, nil) // sent as thread
	})
	sink = r.u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) {
		order = append(order, pkt.W0)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			for len(order) < 2 {
				ep.Poll(c)
			}
			return
		}
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
		for len(order) < 2 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}

// TestNestedOAMDuringDrain: an optimistic body whose commit-time send
// must drain a full network dispatches nested handlers — which may
// themselves be OAM dispatches — without corrupting either execution.
func TestNestedOAMDuringDrain(t *testing.T) {
	eng := sim.New(77)
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = 2
	u := am.NewUniverse(eng, 3, cost)
	defer eng.Shutdown()
	d := NewDispatcher(Options{Strategy: Rerun})
	handled := 0
	var fwd am.HandlerID
	sink := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { handled++ })
	fwd = u.Register("fwd", func(c threads.Ctx, pkt *cm5.Packet) {
		me := c.Node().ID()
		d.Dispatch(c, u.Endpoint(me), "fwd", -1, 0, false, bodyExec(func(e *Env) {
			e.Compute(sim.Micros(1))
			e.Send(2, sink, [4]uint64{}, nil)
		}))
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		switch node {
		case 0:
			// Flood node 1 with forwarding work toward a slow node 2.
			for i := 0; i < 12; i++ {
				ep.Send(c, 1, fwd, [4]uint64{}, nil)
			}
		case 2:
			c.P.Charge(sim.Micros(400)) // slow to drain
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if handled != 12 {
		t.Fatalf("handled = %d, want 12", handled)
	}
	st := d.Stats()
	if st.Total != 12 || st.Succeeded != 12 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUnlockNotHeldPanics: Env.Unlock of a lock the procedure does not
// hold is a stub bug and must fail loudly.
func TestUnlockNotHeldPanics(t *testing.T) {
	panicked := false
	var mu *threads.Mutex
	r := newRig(t, Options{Strategy: Rerun}, func(e *Env, pkt *cm5.Packet) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Unlock(mu)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.u.Endpoint(0).Send(c, 1, r.call, [4]uint64{}, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("expected panic")
	}
}

// TestHandlerBudgetBoundary: computing exactly the budget does not abort;
// one nanosecond more does.
func TestHandlerBudgetBoundary(t *testing.T) {
	for _, over := range []bool{false, true} {
		extra := sim.Duration(0)
		if over {
			extra = 1
		}
		r := newRig(t, Options{Strategy: Rerun, HandlerBudget: sim.Micros(10)},
			func(e *Env, pkt *cm5.Packet) {
				e.Compute(sim.Micros(10) + extra)
			})
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				r.u.Endpoint(0).Send(c, 1, r.call, [4]uint64{}, nil)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.d.Stats()
		if over && st.ByReason[TooLong] != 1 {
			t.Fatalf("over budget: stats %+v", st)
		}
		if !over && st.ByReason[TooLong] != 0 {
			t.Fatalf("at budget: stats %+v", st)
		}
	}
}

// TestThreadEnvServiceAndOps: NewThreadEnv behaves pessimistically for
// every operation.
func TestThreadEnvServiceAndOps(t *testing.T) {
	eng := sim.New(7)
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	defer eng.Shutdown()
	d := NewDispatcher(Options{})
	mu := threads.NewMutex(u.Scheduler(0))
	cv := threads.NewCond(mu)
	done := false
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		e := NewThreadEnv(c, u.Endpoint(0), d)
		if e.Optimistic() {
			t.Error("thread env claims optimistic")
		}
		e.Lock(mu)
		go4 := false
		c.S.Create(c, "setter", false, func(cc threads.Ctx) {
			mu.Lock(cc)
			go4 = true
			cv.Signal(cc)
			mu.Unlock(cc)
		})
		e.Await(cv, func() bool { return go4 }) // really waits
		e.Unlock(mu)
		e.Compute(sim.Micros(5))
		e.Service()
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thread env run incomplete")
	}
}

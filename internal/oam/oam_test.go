package oam

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// rig builds a 2-node universe whose node 1 dispatches incoming "call"
// messages through a Dispatcher running body.
type oamRig struct {
	eng  *sim.Engine
	u    *am.Universe
	d    *Dispatcher
	call am.HandlerID
}

func newRig(t *testing.T, opts Options, body func(e *Env, pkt *cm5.Packet)) *oamRig {
	t.Helper()
	eng := sim.New(31)
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	r := &oamRig{eng: eng, u: u, d: NewDispatcher(opts)}
	r.call = u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
		r.d.Dispatch(c, u.Endpoint(c.Node().ID()), "call", -1, 0, false, bodyExec(func(e *Env) { body(e, pkt) }))
	})
	t.Cleanup(eng.Shutdown)
	return r
}

// testExec adapts a body and an optional settle hook to Exec.
type testExec struct {
	body   func(*Env)
	settle func(threads.Ctx, Outcome, Reason)
}

func (x testExec) Body(e *Env) { x.body(e) }

func (x testExec) Settle(c threads.Ctx, o Outcome, r Reason) {
	if x.settle != nil {
		x.settle(c, o, r)
	}
}

// bodyExec is an Exec that ignores its outcome.
func bodyExec(body func(*Env)) Exec { return testExec{body: body} }

func TestSuccessRunsInHandler(t *testing.T) {
	for _, strat := range []Strategy{Rerun, Continuation, Nack} {
		counter := 0
		wasOptimistic := false
		r := newRig(t, Options{Strategy: strat}, func(e *Env, pkt *cm5.Packet) {
			wasOptimistic = e.Optimistic()
			e.Compute(sim.Micros(1))
			counter++
		})
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				r.u.Endpoint(0).Send(c, 1, r.call, [4]uint64{}, nil)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if counter != 1 || !wasOptimistic {
			t.Fatalf("%v: counter=%d optimistic=%v", strat, counter, wasOptimistic)
		}
		st := r.d.Stats()
		if st.Total != 1 || st.Succeeded != 1 || st.Promoted != 0 {
			t.Fatalf("%v: stats %+v", strat, st)
		}
	}
}

// TestLockBusyPromotes: the server main holds the lock while polling, so
// the optimistic attempt must abort and a thread must complete the call.
func lockBusyScenario(t *testing.T, strat Strategy) (*oamRig, *Stats, *int) {
	t.Helper()
	done := new(int)
	var mu *threads.Mutex
	r := newRig(t, Options{Strategy: strat}, func(e *Env, pkt *cm5.Packet) {
		e.Lock(mu)
		e.Compute(sim.Micros(2))
		*done++
		e.Unlock(mu)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			return
		}
		// Node 1: hold the lock, poll the message in (the optimistic
		// attempt fails), then release and let the promoted thread run.
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		if *done != 0 {
			t.Error("call completed while lock was held")
		}
		mu.Unlock(c)
		for *done == 0 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	return r, &st, done
}

func TestLockBusyRerun(t *testing.T) {
	_, st, done := lockBusyScenario(t, Rerun)
	if *done != 1 {
		t.Fatalf("done = %d, want 1", *done)
	}
	if st.Total != 1 || st.Succeeded != 0 || st.Promoted != 1 || st.ByReason[LockBusy] != 1 {
		t.Fatalf("stats %+v", *st)
	}
}

func TestLockBusyContinuation(t *testing.T) {
	r, st, done := lockBusyScenario(t, Continuation)
	if *done != 1 {
		t.Fatalf("done = %d, want 1", *done)
	}
	if st.Total != 1 || st.Succeeded != 0 || st.Promoted != 1 || st.ByReason[LockBusy] != 1 {
		t.Fatalf("stats %+v", *st)
	}
	// Continuation must have adopted, not created-and-rerun.
	if ts := r.u.Scheduler(1).Stats(); ts.Adopted != 1 {
		t.Fatalf("adopted = %d, want 1 (lazy promotion)", ts.Adopted)
	}
}

// TestContinuationDoesNotReexecute: side effects of the prefix before the
// blocking point must happen exactly once under Continuation.
func TestContinuationDoesNotReexecute(t *testing.T) {
	prefixRuns := 0
	suffixRuns := 0
	var mu *threads.Mutex
	r := newRig(t, Options{Strategy: Continuation}, func(e *Env, pkt *cm5.Packet) {
		prefixRuns++ // before the blocking point
		e.Compute(sim.Micros(1))
		e.Lock(mu)
		suffixRuns++
		e.Unlock(mu)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			return
		}
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
		for suffixRuns == 0 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefixRuns != 1 || suffixRuns != 1 {
		t.Fatalf("prefix=%d suffix=%d, want 1/1 (no re-execution)", prefixRuns, suffixRuns)
	}
}

// TestRerunReexecutesPrefix: under Rerun the prefix runs twice (once
// optimistically, once in the thread) — the paper's prototype semantics.
func TestRerunReexecutesPrefix(t *testing.T) {
	prefixRuns := 0
	suffixRuns := 0
	var mu *threads.Mutex
	r := newRig(t, Options{Strategy: Rerun}, func(e *Env, pkt *cm5.Packet) {
		prefixRuns++
		e.Lock(mu)
		suffixRuns++
		e.Unlock(mu)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			return
		}
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
		for suffixRuns == 0 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefixRuns != 2 || suffixRuns != 1 {
		t.Fatalf("prefix=%d suffix=%d, want 2/1 (rerun)", prefixRuns, suffixRuns)
	}
}

// TestAbortReleasesLocks: an attempt that acquires lock A and then fails
// on lock B must release A before promoting.
func TestAbortReleasesLocks(t *testing.T) {
	var muA, muB *threads.Mutex
	completed := false
	r := newRig(t, Options{Strategy: Rerun}, func(e *Env, pkt *cm5.Packet) {
		e.Lock(muA)
		e.Lock(muB)
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
		// The aborted attempt must have released A on its way out.
		if muA.Held() {
			t.Error("lock A still held after abort")
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
		t.Fatal("call never completed")
	}
	if muA.Held() || muB.Held() {
		t.Fatal("locks leaked")
	}
}

// TestCondFalseAwait: Await aborts on a false predicate and the promoted
// thread waits on the condition variable until it holds.
func TestCondFalseAwait(t *testing.T) {
	for _, strat := range []Strategy{Rerun, Continuation} {
		var mu *threads.Mutex
		var cv *threads.Cond
		dataReady := false
		consumed := false
		r := newRig(t, Options{Strategy: strat}, func(e *Env, pkt *cm5.Packet) {
			e.Lock(mu)
			e.Await(cv, func() bool { return dataReady })
			consumed = true
			e.Unlock(mu)
		})
		s := r.u.Scheduler(1)
		mu = threads.NewMutex(s)
		cv = threads.NewCond(mu)
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			ep := r.u.Endpoint(node)
			if node == 0 {
				ep.Send(c, 1, r.call, [4]uint64{}, nil)
				return
			}
			for r.d.Stats().Total == 0 {
				ep.Poll(c)
			}
			if consumed {
				t.Errorf("%v: consumed before data ready", strat)
			}
			c.P.Charge(sim.Micros(100))
			mu.Lock(c)
			dataReady = true
			cv.Signal(c)
			mu.Unlock(c)
			for !consumed {
				c.S.Yield(c)
				ep.Poll(c)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !consumed {
			t.Fatalf("%v: never consumed", strat)
		}
		st := r.d.Stats()
		if st.ByReason[CondFalse] != 1 {
			t.Fatalf("%v: stats %+v", strat, st)
		}
	}
}

// TestTooLongBudget: with a handler budget, a long computation aborts and
// finishes as a thread.
func TestTooLongBudget(t *testing.T) {
	for _, strat := range []Strategy{Rerun, Continuation} {
		finished := false
		chunks := 0
		r := newRig(t, Options{Strategy: strat, HandlerBudget: sim.Micros(50)}, func(e *Env, pkt *cm5.Packet) {
			for i := 0; i < 10; i++ {
				e.Compute(sim.Micros(20))
				chunks++
			}
			finished = true
		})
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				r.u.Endpoint(0).Send(c, 1, r.call, [4]uint64{}, nil)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !finished {
			t.Fatalf("%v: long call never finished", strat)
		}
		st := r.d.Stats()
		if st.ByReason[TooLong] != 1 || st.Promoted != 1 {
			t.Fatalf("%v: stats %+v", strat, st)
		}
		wantChunks := 12 // rerun: 2 completed optimistic chunks + 10 in thread
		if strat == Continuation {
			wantChunks = 10 // no re-execution
		}
		if chunks != wantChunks {
			t.Fatalf("%v: chunks = %d, want %d", strat, chunks, wantChunks)
		}
	}
}

// TestNackOutcome: under Nack the dispatcher does not create a thread and
// reports that a negative acknowledgment is needed.
func TestNackOutcome(t *testing.T) {
	var mu *threads.Mutex
	var outcome Outcome
	var reason Reason
	eng := sim.New(31)
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	defer eng.Shutdown()
	d := NewDispatcher(Options{Strategy: Nack})
	mu = threads.NewMutex(u.Scheduler(1))
	call := u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
		d.Dispatch(c, u.Endpoint(1), "call", -1, 0, false, testExec{
			body: func(e *Env) {
				e.Lock(mu)
				e.Unlock(mu)
			},
			settle: func(_ threads.Ctx, o Outcome, r Reason) { outcome, reason = o, r },
		})
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, call, [4]uint64{}, nil)
			return
		}
		mu.Lock(c)
		for d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != NackNeeded || reason != LockBusy {
		t.Fatalf("outcome=%v reason=%v", outcome, reason)
	}
	st := d.Stats()
	if st.Nacked != 1 || st.Promoted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBufferedSendsAbortCleanly: messages sent before an abort must not
// appear in the network; after the rerun they appear exactly once.
func TestBufferedSendsAbortCleanly(t *testing.T) {
	var mu *threads.Mutex
	notified := 0
	var notify am.HandlerID
	r := newRig(t, Options{Strategy: Rerun}, func(e *Env, pkt *cm5.Packet) {
		e.Send(int(pkt.W0), notify, [4]uint64{}, nil) // before validation!
		e.Lock(mu)
		e.Unlock(mu)
	})
	notify = r.u.Register("notify", func(c threads.Ctx, pkt *cm5.Packet) { notified++ })
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{0}, nil)
			for notified == 0 {
				ep.Poll(c)
			}
			// Allow any (erroneous) duplicate to arrive.
			c.P.Charge(sim.Micros(200))
			ep.PollAll(c)
			return
		}
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if notified != 1 {
		t.Fatalf("notified = %d, want exactly 1 (no duplicated sends)", notified)
	}
}

// TestStrictNetAbort: with a full destination queue and strict mode, the
// send aborts with NetworkFull; the promoted thread then drains.
func TestStrictNetAbort(t *testing.T) {
	eng := sim.New(31)
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = 1
	u := am.NewUniverse(eng, 3, cost)
	defer eng.Shutdown()
	d := NewDispatcher(Options{Strategy: Rerun, StrictNetAbort: true})
	sunk := 0
	sink := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { sunk++ })
	fwd := u.Register("fwd", func(c threads.Ctx, pkt *cm5.Packet) {
		d.Dispatch(c, u.Endpoint(c.Node().ID()), "fwd", -1, 0, false, bodyExec(func(e *Env) {
			e.Send(2, sink, [4]uint64{}, nil)
		}))
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		switch node {
		case 0:
			// Fill node 2's queue, then make node 1 forward to node 2.
			ep.Send(c, 2, sink, [4]uint64{}, nil)
			ep.Send(c, 1, fwd, [4]uint64{}, nil)
		case 2:
			// Stay busy so the queue remains full for a while.
			c.P.Charge(sim.Micros(300))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sunk != 2 {
		t.Fatalf("sunk = %d, want 2", sunk)
	}
	st := d.Stats()
	if st.ByReason[NetworkFull] == 0 {
		t.Fatalf("expected a NetworkFull abort; stats %+v", st)
	}
}

// TestAbortCost: the measured cost of an abort (beyond the procedure
// itself) should be near the 7 us thread-creation cost when the promoted
// thread starts via the live stack (paper section 4.1.1).
func TestAbortCost(t *testing.T) {
	var mu *threads.Mutex
	var runs int
	var callDone sim.Time
	r := newRig(t, Options{Strategy: Rerun}, func(e *Env, pkt *cm5.Packet) {
		e.Lock(mu)
		runs++
		callDone = e.Ctx().P.Now()
		e.Unlock(mu)
	})
	mu = threads.NewMutex(r.u.Scheduler(1))
	var holdEnd sim.Time
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			ep.Send(c, 1, r.call, [4]uint64{}, nil)
			return
		}
		mu.Lock(c)
		for r.d.Stats().Total == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
		holdEnd = c.P.Now()
		for runs == 0 {
			c.S.Yield(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// From lock release to the promoted thread completing the call:
	// yield check + full context switch (52, the create's 7 was charged
	// at abort time) + lock ops. Must be at least the switch and well
	// under the 60 us create+switch plus slop.
	d := callDone.Sub(holdEnd)
	if d < sim.Micros(52) || d > sim.Micros(80) {
		t.Fatalf("post-abort completion latency = %v, want ~52-80us", d)
	}
}

func TestStatsSuccessPercent(t *testing.T) {
	st := Stats{Total: 1000, Succeeded: 995}
	if p := st.SuccessPercent(); p != 99.5 {
		t.Fatalf("SuccessPercent = %v", p)
	}
	empty := Stats{}
	if p := empty.SuccessPercent(); p != 100 {
		t.Fatalf("empty SuccessPercent = %v", p)
	}
}

func TestReasonStrings(t *testing.T) {
	if LockBusy.String() != "lock-busy" || CondFalse.String() != "cond-false" ||
		NetworkFull.String() != "network-full" || TooLong.String() != "too-long" {
		t.Fatal("reason strings wrong")
	}
	if Rerun.String() != "rerun" || Continuation.String() != "continuation" || Nack.String() != "nack" {
		t.Fatal("strategy strings wrong")
	}
}

package oam

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Reason says why an optimistic execution aborted.
type Reason uint8

const (
	// LockBusy: the procedure needed a lock that was held.
	LockBusy Reason = iota
	// CondFalse: the procedure waited on a condition that was false.
	CondFalse
	// NetworkFull: the procedure needed to send while the network was
	// busy (strict mode only; the CM-5 default drains instead).
	NetworkFull
	// TooLong: the procedure exceeded the handler time budget.
	TooLong
	numReasons
)

func (r Reason) String() string {
	switch r {
	case LockBusy:
		return "lock-busy"
	case CondFalse:
		return "cond-false"
	case NetworkFull:
		return "network-full"
	case TooLong:
		return "too-long"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// abortSignal unwinds an optimistic execution; recovered by attempt.
type abortSignal struct{ reason Reason }

// bufferedSend is an outbound message deferred until commit.
type bufferedSend struct {
	dst     int
	h       am.HandlerID
	w       [4]uint64
	payload []byte
	bulk    bool
}

// Env is the execution capability of a remote procedure body. The same
// body runs optimistically inside a handler or pessimistically as a
// thread; Env routes each operation to the right behaviour for the mode.
type Env struct {
	C  threads.Ctx
	ep *am.Endpoint
	d  *Dispatcher

	optimistic bool
	name       string
	spent      sim.Duration
	held       []*threads.Mutex
	outbox     []bufferedSend

	// onPromote, set by the Continuation dispatch path, reports the first
	// (and only) lazy promotion back to the dispatcher.
	onPromote func(Reason)
}

// continuation reports whether an abort condition should promote in place
// rather than unwind. Only executions dispatched through the lend
// protocol (runLent sets onPromote) may promote in place; multiactive
// core executions always unwind — the lend/adopt dance presumes the
// single-CPU discipline.
func (e *Env) continuation() bool {
	return e.optimistic && e.onPromote != nil
}

// promote adopts the running execution as a thread: lazy thread creation.
// Locks acquired optimistically are re-labeled as held by the new thread.
// After promote the env is in thread mode; the caller must detach (via
// the scheduler) before continuing.
func (e *Env) promote(r Reason) *threads.Thread {
	t := e.C.S.Adopt("oam/"+e.name, e.C.P)
	for _, m := range e.held {
		m.AdoptOwner(t)
	}
	e.C.T = t
	e.optimistic = false
	if e.onPromote != nil {
		e.onPromote(r)
	}
	return t
}

// flushOutbox sends messages buffered during the optimistic prefix. It
// runs right after a promotion detaches, so that messages the procedure
// sent before promoting leave the node before any it sends after —
// preserving per-destination ordering.
func (e *Env) flushOutbox() {
	out := e.outbox
	e.outbox = nil
	for i := range out {
		b := &out[i]
		if b.bulk {
			e.ep.SendBulk(e.C, b.dst, b.h, b.w, b.payload)
		} else {
			e.ep.Send(e.C, b.dst, b.h, b.w, b.payload)
		}
	}
}

// Optimistic reports whether the body is executing inside a handler. The
// generated stubs use this only for statistics; behaviour differences all
// live behind the Env operations.
func (e *Env) Optimistic() bool { return e.optimistic }

// Node returns the node this procedure executes on.
func (e *Env) Node() int { return e.ep.Node().ID() }

// Ctx returns the current execution context.
func (e *Env) Ctx() threads.Ctx { return e.C }

func (e *Env) abort(r Reason) {
	panic(abortSignal{reason: r})
}

// Lock acquires m. Optimistically it is a try-lock: failure aborts the
// execution (the paper's compiled lock check). As a thread it blocks.
func (e *Env) Lock(m *threads.Mutex) {
	if e.optimistic {
		if m.TryLock(e.C) {
			e.held = append(e.held, m)
			return
		}
		if !e.continuation() {
			e.abort(LockBusy)
		}
		// Lazy promotion: become a thread, join the lock's waiter list,
		// and give the CPU back to the poller. We resume owning the lock.
		t := e.promote(LockBusy)
		m.EnqueueWaiter(t)
		e.C.S.DetachBlocked(e.C)
		e.held = append(e.held, m)
		e.flushOutbox()
		return
	}
	m.Lock(e.C)
	e.held = append(e.held, m)
}

// Unlock releases m.
func (e *Env) Unlock(m *threads.Mutex) {
	for i := len(e.held) - 1; i >= 0; i-- {
		if e.held[i] == m {
			e.held = append(e.held[:i], e.held[i+1:]...)
			m.Unlock(e.C)
			return
		}
	}
	panic("oam: Unlock of mutex not held by this procedure")
}

// Await waits until pred holds. The caller must hold cv's mutex, and as
// usual the predicate is re-tested after every wakeup. Optimistically a
// false predicate aborts (the paper's compiled condition check); as a
// thread it waits on cv.
func (e *Env) Await(cv *threads.Cond, pred func() bool) {
	if e.optimistic {
		if pred() {
			return
		}
		if !e.continuation() {
			e.abort(CondFalse)
		}
		// Lazy promotion: become a thread and wait on the condition
		// variable exactly as Cond.Wait would — enqueue, release the
		// mutex, suspend, reacquire — then re-test in a loop.
		t := e.promote(CondFalse)
		cv.EnqueueWaiter(t)
		e.Unlock(cv.L)
		e.C.S.DetachBlocked(e.C)
		e.flushOutbox()
		cv.L.Lock(e.C)
		e.held = append(e.held, cv.L)
	}
	for !pred() {
		cv.Wait(e.C)
	}
}

// Service is a cooperative scheduling point. In thread mode it polls the
// node's network and yields to other runnable threads, so a long-running
// promoted procedure shares the processor. In optimistic mode it is a
// no-op: a handler is not schedulable — which is exactly why long
// executions must abort (the TooLong check in Compute).
func (e *Env) Service() {
	if e.optimistic {
		return
	}
	e.ep.PollAll(e.C)
	if e.C.T != nil {
		e.C.S.Yield(e.C)
	}
}

// Signal forwards to cv.Signal; usable in both modes (it never blocks).
func (e *Env) Signal(cv *threads.Cond) { cv.Signal(e.C) }

// Broadcast forwards to cv.Broadcast.
func (e *Env) Broadcast(cv *threads.Cond) { cv.Broadcast(e.C) }

// Compute charges d of CPU time to the procedure. In optimistic mode with
// a handler budget configured, exceeding the budget aborts: the "runs too
// long" check that the paper lists but leaves to future work.
func (e *Env) Compute(d sim.Duration) {
	e.C.P.Charge(d)
	if !e.optimistic {
		return
	}
	e.spent += d
	b := e.d.opts.HandlerBudget
	if e.d.opts.Adaptive && b > 0 {
		b = e.d.budgetFor(e.ep.Node().ID())
	}
	if b > 0 && e.spent > b {
		if !e.continuation() {
			e.abort(TooLong)
		}
		// Lazy promotion: keep the partial computation, requeue as a
		// thread so the node can service other messages first.
		e.promote(TooLong)
		e.C.S.DetachReady(e.C)
		e.flushOutbox()
	}
}

// Send transmits a small Active Message. In optimistic mode the message
// is buffered until the body commits, so aborts leave no trace in the
// network; with StrictNetAbort set, a full network aborts the execution
// instead of draining (the third abort reason of section 2).
func (e *Env) Send(dst int, h am.HandlerID, w [4]uint64, payload []byte) {
	e.send(dst, h, w, payload, false)
}

// SendBulk is Send for the block-transfer path.
func (e *Env) SendBulk(dst int, h am.HandlerID, w [4]uint64, payload []byte) {
	e.send(dst, h, w, payload, true)
}

func (e *Env) send(dst int, h am.HandlerID, w [4]uint64, payload []byte, bulk bool) {
	if e.optimistic {
		if e.d.opts.StrictNetAbort && e.ep.Node().NetworkFull(dst) {
			if !e.continuation() {
				e.abort(NetworkFull)
			}
			// Lazy promotion: requeue as a thread; when we run again the
			// flush and this send drain like any thread's sends.
			e.promote(NetworkFull)
			e.C.S.DetachReady(e.C)
			e.flushOutbox()
			if bulk {
				e.ep.SendBulk(e.C, dst, h, w, payload)
			} else {
				e.ep.Send(e.C, dst, h, w, payload)
			}
			return
		}
		e.outbox = append(e.outbox, bufferedSend{dst: dst, h: h, w: w, payload: payload, bulk: bulk})
		return
	}
	if bulk {
		e.ep.SendBulk(e.C, dst, h, w, payload)
	} else {
		e.ep.Send(e.C, dst, h, w, payload)
	}
}

// commit flushes buffered sends after a successful optimistic execution.
func (e *Env) commit() {
	if len(e.held) != 0 {
		panic(fmt.Sprintf("oam: procedure committed still holding %d locks", len(e.held)))
	}
	for i := range e.outbox {
		b := &e.outbox[i]
		if b.bulk {
			e.ep.SendBulk(e.C, b.dst, b.h, b.w, b.payload)
		} else {
			e.ep.Send(e.C, b.dst, b.h, b.w, b.payload)
		}
	}
	e.outbox = nil
}

// undo releases everything an aborted attempt acquired and discards its
// buffered sends, restoring the pre-attempt state.
func (e *Env) undo() {
	for i := len(e.held) - 1; i >= 0; i-- {
		e.held[i].Unlock(e.C)
	}
	e.held = nil
	e.outbox = nil
}

package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Shard is one partition of the simulation kernel: an event heap, a live
// process table, and the migrating direct-handoff loop that drives them.
// A sequential engine (New) is exactly one shard; a sharded engine
// (NewSharded) runs S of them over optimistic commit spans, each shard
// owning a disjoint subset of the simulated nodes.
//
// All Shard methods must be called from that shard's own simulation
// context (its processes and kernel callbacks), from engine setup code
// before Run, or — for the span machinery — from the engine's
// coordinator between spans. Shards never touch each other's state
// (Inject is the one cross-shard entry point).
type Shard struct {
	eng *Engine
	idx int

	now     Time
	seq     uint64
	heap    eventQueue
	free    *event // recycled events (shard-local: no locking)
	running *Proc
	// doneCh hands the kernel role back to the goroutine blocked in
	// runKernel (or, per victim, Shutdown) when the loop ends its tenure
	// on a process goroutine.
	doneCh   chan struct{}
	deadline Time // event horizon of the current sequential run
	tracer   Tracer
	probe    Probe
	procs    []*Proc // live (spawned, not yet finished) processes, unordered
	freeProc *Proc   // finished procs whose goroutine+channel await reuse
	stopped  bool    // set by Stop (sequential engine only)
	killing  bool    // set by Shutdown
	failure  error
	// kernelPanic holds a panic raised by a kernel callback (At/After fn
	// or Action). It ends the run and is re-raised from Run/RunUntil on
	// the caller's goroutine.
	kernelPanic any

	// Stats counters, cheap enough to keep always-on.
	events     uint64
	dispatches uint64
	handoffs   uint64
	// chargedTotal accumulates every completed virtual-CPU charge; the
	// virtual-time profiler checks its totals against this.
	chargedTotal Duration

	// Span plumbing (sharded engines only). The runner goroutine blocks
	// on windowCh for the next span, runs the kernel loop through it, and
	// reports completion on windowDone.
	windowCh   chan struct{}
	windowDone chan struct{}
	// trbuf buffers tracer records during parallel spans; the engine
	// flushes it in canonical order at each barrier.
	trbuf []traceRec
	// buffered reports that tracer output must be buffered (sharded
	// engine with a tracer installed).
	buffered bool

	// Span state (see optimistic.go); opt is nil on a sequential engine
	// and none of this is touched.
	opt  *optState
	inmu sync.Mutex // guards inbox/inboxSpare appends from sender shards
	// inbox holds eagerly published cross-shard arrivals awaiting
	// materialization by this shard; inboxSpare is the drain-time double
	// buffer. inboxPending mirrors len(inbox) > 0 for lock-free checks.
	inbox        []inbound
	inboxSpare   []inbound
	inboxPending atomic.Bool
	// cachedH is the last computed execution horizon (monotone within a
	// span; reset at span start). asleep marks the shard inside
	// cond.Wait — its heap is then quiescent and readable by the awake
	// shards. tentDone marks a tentative claim that this shard finished
	// the span; retracting it on a straggler drain counts a reopen.
	cachedH    Time
	asleep     bool
	tentDone   bool
	reopens    uint64
	stalls     uint64
	specEvents uint64
}

func newShard(e *Engine, idx int) *Shard {
	sh := &Shard{
		eng:    e,
		idx:    idx,
		doneCh: make(chan struct{}),
	}
	sh.heap.init(defaultEventHint)
	return sh
}

// Engine returns the engine this shard belongs to.
func (sh *Shard) Engine() *Engine { return sh.eng }

// Index returns the shard's index in [0, Engine.Shards()).
func (sh *Shard) Index() int { return sh.idx }

// Now returns the shard's current virtual time. Within a span shard
// clocks drift apart; at barriers all clocks agree.
func (sh *Shard) Now() Time { return sh.now }

// alloc takes an event from the free list, refilling it a slab at a time.
func (sh *Shard) alloc() *event {
	ev := sh.free
	if ev == nil {
		chunk := make([]event, eventChunk)
		for i := range chunk {
			chunk[i].next = sh.free
			sh.free = &chunk[i]
		}
		ev = sh.free
	}
	sh.free = ev.next
	ev.next = nil
	return ev
}

// release recycles a fired or surfaced-cancelled event. Bumping gen
// invalidates any Timer still holding the pointer.
func (sh *Shard) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.act = nil
	ev.proc = nil
	ev.kind = evFunc
	ev.class = classNormal
	ev.key = 0
	ev.cancelled = false
	ev.next = sh.free
	sh.free = ev
}

// schedule is the single entry point onto the shard's event heap.
func (sh *Shard) schedule(t Time, class uint8, key uint64, kind eventKind, fn func(), act Action, p *Proc) *event {
	if t < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, sh.now))
	}
	sh.seq++
	ev := sh.alloc()
	ev.at = t
	ev.seq = sh.seq
	ev.class = class
	ev.key = key
	ev.kind = kind
	ev.fn = fn
	ev.act = act
	ev.proc = p
	sh.heap.push(ev)
	return ev
}

// At schedules fn to run in kernel context at absolute time t. Scheduling
// in the past is a programming error. Kernel callbacks must not block or
// call process-context methods such as Charge or Park.
func (sh *Shard) At(t Time, fn func()) { sh.schedule(t, classNormal, 0, evFunc, fn, nil, nil) }

// After schedules fn to run in kernel context d from now.
func (sh *Shard) After(d Duration, fn func()) { sh.At(sh.now.Add(d), fn) }

// AtAction schedules a pre-allocated Action at absolute time t. Unlike At
// it allocates nothing beyond a pooled event, so hot paths (packet
// delivery) can schedule without producing garbage.
func (sh *Shard) AtAction(t Time, a Action) { sh.schedule(t, classNormal, 0, evAction, nil, a, nil) }

// AfterAction schedules a pre-allocated Action d from now.
func (sh *Shard) AfterAction(d Duration, a Action) { sh.AtAction(sh.now.Add(d), a) }

// AtDelivery schedules a packet-arrival Action at absolute time t under
// the canonical delivery order: at any instant, deliveries fire after
// global control transitions, before ordinary events, and among
// themselves in ascending key — (source node, flight number), packed by
// the machine layer. Cross-shard flights materialize on their destination
// heap under the same key, which is what makes sharded runs
// bit-identical to sequential ones.
func (sh *Shard) AtDelivery(t Time, key uint64, a Action) {
	sh.schedule(t, classDelivery, key, evAction, nil, a, nil)
}

// atProc schedules the resumption of p at time t without any closure.
func (sh *Shard) atProc(t Time, p *Proc) { sh.schedule(t, classNormal, 0, evProc, nil, nil, p) }

// AtTimer is At returning a cancellable handle. Timers are plain values
// (the cancellation state lives in the event, guarded by its recycle
// generation), so arming a timer costs no allocation.
func (sh *Shard) AtTimer(t Time, fn func()) Timer {
	ev := sh.schedule(t, classNormal, 0, evFunc, fn, nil, nil)
	return Timer{ev: ev, sh: sh, gen: ev.gen}
}

// AfterTimer is After returning a cancellable handle.
func (sh *Shard) AfterTimer(d Duration, fn func()) Timer {
	return sh.AtTimer(sh.now.Add(d), fn)
}

// traceRec is one buffered scheduling transition (sharded engines). The name
// is captured eagerly because pooled Procs are renamed on reuse.
type traceRec struct {
	t    Time
	kind uint8 // 0 resume, 1 yield, 2 exit — the canonical same-instant order
	name string
}

func (sh *Shard) traceResume(p *Proc) {
	if sh.buffered {
		sh.trbuf = append(sh.trbuf, traceRec{sh.now, 0, p.name})
		return
	}
	sh.tracer.Resume(sh.now, p)
}

func (sh *Shard) traceYield(p *Proc) {
	if sh.buffered {
		sh.trbuf = append(sh.trbuf, traceRec{sh.now, 1, p.name})
		return
	}
	sh.tracer.Yield(sh.now, p)
}

func (sh *Shard) traceExit(p *Proc) {
	if sh.buffered {
		sh.trbuf = append(sh.trbuf, traceRec{sh.now, 2, p.name})
		return
	}
	sh.tracer.Exit(sh.now, p)
}

// tracing reports whether scheduling transitions must be recorded.
func (sh *Shard) tracing() bool { return sh.tracer != nil || sh.buffered }

// loopOutcome says how a kernel-loop tenure on some goroutine ended.
type loopOutcome uint8

const (
	// loopEnded: the run (or span) is over — heap empty, deadline
	// passed, Stop, failure, or a kernel-callback panic. The kernel role
	// returns to the goroutine blocked in runKernel.
	loopEnded loopOutcome = iota
	// loopSelf: the caller's own resume event surfaced; it simply
	// continues as the running process. Zero channel operations.
	loopSelf
	// loopHandoff: the kernel role was handed to another process's
	// goroutine with a single channel send.
	loopHandoff
)

// loop runs the kernel on the calling goroutine: it pops and fires events
// until the run ends, the role moves to another goroutine, or — when self
// is non-nil — self's own resumption surfaces, in which case the caller
// continues straight back into process context on the live stack.
func (sh *Shard) loop(self *Proc) loopOutcome {
	for {
		if o := sh.opt; o != nil {
			// Sharded: the gate drains eager arrivals and decides whether
			// the next event is provably safe to fire, blocking mid-span
			// when it is not (see optimistic.go).
			if !o.gate(sh) {
				return loopEnded
			}
		} else {
			if sh.stopped || sh.failure != nil || sh.kernelPanic != nil || sh.heap.len() == 0 {
				return loopEnded
			}
			if sh.heap.first().at > sh.deadline {
				return loopEnded
			}
		}
		ev := sh.heap.pop()
		if ev.cancelled {
			sh.release(ev)
			continue
		}
		sh.now = ev.at
		sh.events++
		// Recycle before firing, so callbacks scheduling new events can
		// reuse the slot immediately.
		kind, fn, act, p := ev.kind, ev.fn, ev.act, ev.proc
		sh.release(ev)
		switch kind {
		case evProc, evIntProc:
			if kind == evIntProc {
				p.intTimer = Timer{}
			}
			if p.dead {
				continue
			}
			if sh.running != nil {
				panic("sim: dispatch while a process is running")
			}
			sh.dispatches++
			sh.running = p
			if sh.tracing() {
				sh.traceResume(p)
			}
			if p == self {
				return loopSelf
			}
			sh.handoffs++
			p.resume <- struct{}{}
			return loopHandoff
		case evAction:
			sh.fireCallback(nil, act)
		default:
			sh.fireCallback(fn, nil)
		}
	}
}

// fireCallback runs a kernel callback, converting a panic into a stashed
// kernelPanic so it unwinds no process goroutine; Run re-raises it.
func (sh *Shard) fireCallback(fn func(), act Action) {
	defer func() {
		if r := recover(); r != nil {
			sh.kernelPanic = r
		}
	}()
	if act != nil {
		act.Run()
	} else {
		fn()
	}
}

// runKernel starts a kernel tenure on the calling goroutine and blocks
// until the run (or span) is over, however many goroutines the loop
// migrated across in between.
func (sh *Shard) runKernel() {
	if sh.loop(nil) == loopHandoff {
		<-sh.doneCh
	}
}

// windowRunner is the per-shard worker of a sharded engine: for each
// span it runs the shard's kernel until the span gate ends its tenure,
// then reports back. It exits when the engine closes windowCh (Shutdown).
func (sh *Shard) windowRunner() {
	for range sh.windowCh {
		sh.runKernel()
		sh.windowDone <- struct{}{}
	}
}

// yieldToKernel hands control from the running process to the kernel: the
// process's own goroutine becomes the kernel and keeps firing events in
// place. It returns when the process is next dispatched — directly, when
// its own resume event surfaces during its tenure (no channel operation),
// or via a handoff from whichever goroutine holds the loop by then. If
// the engine is being shut down when control returns, the process unwinds
// via the kill sentinel, which the spawn wrapper recovers.
func (sh *Shard) yieldToKernel(p *Proc) {
	if sh.tracing() {
		sh.traceYield(p)
	}
	sh.running = nil
	switch sh.loop(p) {
	case loopSelf:
		// Resumed on the live stack; this goroutine held the kernel role
		// throughout and is the running process again.
	case loopEnded:
		sh.doneCh <- struct{}{}
		<-p.resume
	case loopHandoff:
		<-p.resume
	}
	if sh.killing {
		panic(killedSentinel{})
	}
}

// addProc registers a newly spawned process in the live table.
func (sh *Shard) addProc(p *Proc) {
	p.slot = len(sh.procs)
	sh.procs = append(sh.procs, p)
}

// removeProc drops a finished process from the live table by swapping the
// last entry into its slot — O(1), no map on the spawn/exit path.
func (sh *Shard) removeProc(p *Proc) {
	last := len(sh.procs) - 1
	moved := sh.procs[last]
	sh.procs[p.slot] = moved
	moved.slot = p.slot
	sh.procs[last] = nil
	sh.procs = sh.procs[:last]
}

// checkRunning panics unless p is the currently executing process. It
// guards the process-context-only API.
func (sh *Shard) checkRunning(p *Proc, op string) {
	if sh.running != p {
		panic(fmt.Sprintf("sim: %s called on %q which is not the running process", op, p.name))
	}
}

// shutdown kills this shard's live processes in ascending pid order and
// drains its worker pool. Part of Engine.Shutdown.
func (sh *Shard) shutdown() {
	sh.killing = true
	sh.heap.clear()
	sh.free = nil
	// Snapshot: killing procs mutates sh.procs.
	victims := make([]*Proc, len(sh.procs))
	copy(victims, sh.procs)
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, p := range victims {
		if p.dead {
			continue
		}
		sh.dispatches++
		sh.handoffs++
		sh.running = p
		if sh.tracing() {
			sh.traceResume(p)
		}
		p.resume <- struct{}{}
		<-sh.doneCh // the victim's goroutine has unwound
		sh.running = nil
	}
	// Drain the worker pool: a token with no body pending tells the
	// goroutine to exit instead of running an incarnation.
	for p := sh.freeProc; p != nil; p = p.next {
		p.resume <- struct{}{}
	}
	sh.freeProc = nil
	sh.stopped = true
}

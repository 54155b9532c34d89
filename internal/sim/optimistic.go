package sim

import (
	"sync"
	"sync/atomic"
)

// inbound is one eagerly published cross-shard arrival awaiting
// materialization by the owning shard.
type inbound struct {
	at      Time
	key     uint64
	payload any
}

// optState is the shared coordination state of an optimistic run. The
// design constraint it lives under: processes are goroutine stacks and
// application state mutates in place, so — unlike a classic Time Warp —
// no executed event can ever be undone. Speculation therefore happens in
// the scheduling layer only: a shard executes an event at t only once t
// is provably before anything another shard could still send it
// (t < min(other shards' clocks) + lookahead), and what gets optimistically
// claimed and occasionally rolled back is *quiescence* — a shard's claim
// that it is done with the span, retracted (a "reopen") when a straggler
// flight lands inside the span after all. Anti-messages are unnecessary:
// flights are only published at already-committed virtual times.
type optState struct {
	e *Engine

	// la is the current span's lookahead: a lower bound on the
	// virtual-time latency of any cross-shard flight sent within the
	// span. Constant per span (spans are cut at fault-plan edges).
	la Duration
	// specStart is spanStart + la: events at or after it ran beyond the
	// span's first lookahead, i.e. needed speculation.
	specStart Time
	// spanEnd is the span's inclusive last instant. Shrunk mid-span
	// (atomically) when an eagerly applied collective schedules a release
	// global inside the span; every such release provably lands after
	// all in-flight event executions, so the cut never invalidates one.
	spanEnd atomic.Int64
	// clocks[i] is shard i's published claim: a promise that it will not
	// execute (hence not send) anything before that instant. Monotone
	// within a span. Raised by the shard itself before each event, and on
	// a sleeping shard's behalf by whoever is awake (the sleeper's heap is
	// quiescent under mu, so its next-event time is readable).
	clocks []atomic.Int64

	// mu guards the blocking protocol below; cond broadcasts wake blocked
	// shards when traffic arrives, the span ends, or claims jump.
	mu   sync.Mutex
	cond *sync.Cond
	// sleepers counts shards inside cond.Wait. When a blocking shard
	// finds every other shard asleep, the machine is quiescent and it can
	// resolve the span exactly (see resolve).
	sleepers int
	// spanOver marks the span complete: every shard exits its window.
	spanOver bool
	// abort ends the span early (shard failure, kernel panic, shutdown).
	abort atomic.Bool

	// lastLbts is the LBTS value the most recent resolve broadcast for.
	// A repeated no-change resolve at the same LBTS may sleep without
	// re-waking the herd: claims are monotone, so every shard that was
	// runnable (and signaled) at the first broadcast still is — without
	// this, idle shards re-broadcast each other in a storm that starves
	// the one shard with work. Guarded by mu.
	lastLbts Time

	// jumps counts idle LBTS jumps (all shards blocked below their
	// horizons; claims advance to the machine-wide minimum next event
	// plus lookahead). Host-schedule dependent; diagnostic only.
	jumps uint64
}

func newOptState(e *Engine) *optState {
	o := &optState{e: e, clocks: make([]atomic.Int64, len(e.shards))}
	o.cond = sync.NewCond(&o.mu)
	o.spanOver = true // no span running yet
	for i := range e.shards {
		e.shards[i].opt = o
	}
	return o
}

// beginSpan resets the span state for [start, end] with lookahead la. The
// coordinator calls it with every shard runner idle.
func (o *optState) beginSpan(start, end Time, la Duration) {
	o.la = la
	o.specStart = start.Add(la)
	o.spanEnd.Store(int64(end))
	o.spanOver = false
	o.abort.Store(false)
	o.lastLbts = -1 << 62
	for i := range o.clocks {
		o.clocks[i].Store(int64(start))
		sh := o.e.shards[i]
		sh.cachedH = 0
		sh.tentDone = false
	}
}

// cutSpan shrinks the running span so it ends strictly before t, the
// instant of a newly scheduled global. Blocked shards re-read spanEnd on
// wake; tentative-done shards stay done (the span only shrinks).
func (o *optState) cutSpan(t Time) {
	for {
		cur := o.spanEnd.Load()
		if int64(t)-1 >= cur {
			return
		}
		if o.spanEnd.CompareAndSwap(cur, int64(t)-1) {
			return
		}
	}
}

// abortSpan ends the span immediately (failure, panic, stop): every shard
// bails out at its next gate check, blocked or not.
func (o *optState) abortSpan() {
	o.abort.Store(true)
	o.mu.Lock()
	o.cond.Broadcast()
	o.mu.Unlock()
}

// horizon returns the exclusive execution bound for shard j: one
// lookahead past the minimum of the other shards' claims (nothing can
// arrive at j before that).
func (o *optState) horizon(j int) Time {
	minPeer := maxTime
	for k := range o.clocks {
		if k == j {
			continue
		}
		if c := Time(o.clocks[k].Load()); c < minPeer {
			minPeer = c
		}
	}
	return minPeer.Add(o.la)
}

// gate is the optimistic scheduling decision, taken by each shard before
// every event: drain eagerly published arrivals, then execute the next
// event only if it is provably safe (before the horizon), otherwise block
// until the situation changes. It returns false when the span is over for
// this shard.
//
// Correctness of the fast path: cachedH was computed as min(peer clocks)
// + la at some earlier instant, after which the inbox was drained of
// everything sent before those clock readings (clock stores are ordered
// after the sender's Inject, so observing a clock value implies every
// earlier send is already in the inbox). Claims are monotone, so any
// flight sent after that instant arrives at or beyond cachedH — executing
// strictly below cachedH can never miss one.
func (o *optState) gate(sh *Shard) bool {
	for {
		if sh.failure != nil || sh.kernelPanic != nil || sh.stopped {
			o.abortSpan()
			return false
		}
		if o.abort.Load() {
			return false
		}
		if sh.inboxPending.Load() {
			sh.drainInbox(o)
		}
		if sh.heap.len() > 0 {
			nextT := sh.heap.first().at
			if nextT <= Time(o.spanEnd.Load()) {
				if nextT < sh.cachedH {
					o.clocks[sh.idx].Store(int64(nextT))
					if nextT >= o.specStart {
						sh.specEvents++
					}
					return true
				}
				h := o.horizon(sh.idx)
				if sh.inboxPending.Load() {
					// A flight landed between the drain and the clock
					// loads; it may precede h. Drain and retry.
					continue
				}
				sh.cachedH = h
				if nextT < h {
					o.clocks[sh.idx].Store(int64(nextT))
					if nextT >= o.specStart {
						sh.specEvents++
					}
					return true
				}
			}
		}
		if o.block(sh) {
			return false
		}
	}
}

// block parks the shard until it can run again or the span ends. Before
// sleeping it publishes its own highest safe claim and raises sleeping
// peers' claims on their behalf — so a lone active shard advances
// everyone's horizon with an uncontended lock instead of waking anyone.
// The last shard to block resolves the span exactly (see resolve).
// Returns true when the span is over.
func (o *optState) block(sh *Shard) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.abort.Load() || o.spanOver {
			return true
		}
		if sh.inboxPending.Load() {
			return false // outer loop drains
		}
		nextT := maxTime
		if sh.heap.len() > 0 {
			nextT = sh.heap.first().at
		}
		end := Time(o.spanEnd.Load())
		if nextT <= end {
			if h := o.horizon(sh.idx); nextT < h {
				// Runnable again; the outer loop re-derives everything
				// (including the post-load inbox re-check).
				return false
			}
		}
		o.raiseClaim(sh.idx, nextT)
		if nextT <= end && o.advanceClaims(sh.idx) {
			// Claims moved, so our horizon may now cover nextT; loop and
			// recheck. Bounded: claims only ratchet toward nextT (and
			// nextT <= end), one lookahead per pass. With nothing left to
			// run in-span there is no horizon to chase — resolve() is
			// what ends the span exactly — and an unbounded ratchet of
			// idle shards' claims toward maxTime would spin forever.
			continue
		}
		if o.sleepers == len(o.e.shards)-1 {
			if o.resolve() {
				continue // span over or claims jumped; recheck
			}
		}
		// tentDone: we are blocking with nothing left inside the span —
		// a tentative claim that we are done with it. If a straggler
		// lands in-span after this, its drain counts a reopen: the
		// optimistic analogue of a rollback.
		sh.tentDone = nextT > end
		sh.stalls++
		sh.asleep = true
		o.sleepers++
		o.cond.Wait()
		o.sleepers--
		sh.asleep = false
	}
}

// raiseClaim raises shard j's claim to min(its next event, min peer claim
// + la) — the highest instant j provably cannot act before, regardless of
// what is still in flight toward it (any such flight arrives at or after
// min peer claim + la). Reports whether the claim moved.
func (o *optState) raiseClaim(j int, nextT Time) bool {
	minPeer := maxTime
	for k := range o.clocks {
		if k == j {
			continue
		}
		if c := Time(o.clocks[k].Load()); c < minPeer {
			minPeer = c
		}
	}
	want := minPeer.Add(o.la)
	if nextT < want {
		want = nextT
	}
	if c := o.clocks[j].Load(); int64(want) > c {
		o.clocks[j].Store(int64(want))
		return true
	}
	return false
}

// advanceClaims raises sleeping peers' claims on their behalf (one pass;
// the caller loops while progress is made). A sleeper's heap is quiescent
// and safely readable here: it last changed before the sleeper released
// mu inside cond.Wait. Sleepers with undrained inboxes are skipped —
// their heap top is not their true next event.
func (o *optState) advanceClaims(self int) bool {
	progress := false
	for j, sh := range o.e.shards {
		if j == self || !sh.asleep || sh.inboxPending.Load() {
			continue
		}
		nextT := maxTime
		if sh.heap.len() > 0 {
			nextT = sh.heap.first().at
		}
		if o.raiseClaim(j, nextT) {
			progress = true
		}
	}
	return progress
}

// resolve runs when the calling shard is the only one awake: the machine
// is quiescent, so the span's LBTS — the exact minimum next-event time
// across all shards — is computable. Past the span end, the span is over;
// otherwise every claim jumps to min(its next event, LBTS + la) and the
// LBTS owner resumes. This is what spares the engine a global barrier
// per lookahead: a rendezvous only when everyone is idle.
// Returns false when the caller should sleep instead of rechecking: a
// sleeper still has undrained traffic (it must wake and drain before its
// next-event time can be trusted), or nothing changed and the woken LBTS
// owner makes the next move.
func (o *optState) resolve() bool {
	shards := o.e.shards
	for _, sh := range shards {
		if sh.asleep && sh.inboxPending.Load() {
			// The sleeper is already signaled: Inject broadcasts on the
			// false->true pending transition, and a sleeper never parks
			// with the flag up (it rechecks under mu). Re-broadcasting
			// here would wake the idle herd into a resolve storm that
			// starves the drainer of the lock. Sleep; the drain is the
			// next move.
			return false
		}
	}
	lbts := maxTime
	for _, sh := range shards {
		if sh.heap.len() > 0 && sh.heap.first().at < lbts {
			lbts = sh.heap.first().at
		}
	}
	if lbts > Time(o.spanEnd.Load()) {
		o.spanOver = true
		o.cond.Broadcast()
		return true
	}
	// Execution machine-wide resumes at LBTS, so nothing can arrive
	// anywhere before LBTS + la: jump claims.
	moved := false
	for j, sh := range shards {
		nt := maxTime
		if sh.heap.len() > 0 {
			nt = sh.heap.first().at
		}
		want := lbts.Add(o.la)
		if nt < want {
			want = nt
		}
		if c := o.clocks[j].Load(); int64(want) > c {
			o.clocks[j].Store(int64(want))
			moved = true
		}
	}
	if !moved && lbts == o.lastLbts {
		// Claims are at their caps and a broadcast already went out for
		// exactly this state: the LBTS owner is signaled and runnable
		// (monotone claims keep it so), it just has not been scheduled
		// yet. Sleep quietly instead of re-waking the herd.
		return false
	}
	// The LBTS owner is now provably runnable (lbts < every claim + la),
	// so broadcast: it may be parked without a pending signal if claims
	// drifted up after its last runnability check. When nothing moved
	// there is nothing for the *caller* to recheck — it must sleep
	// (returning true would spin it against the woken owner), and the
	// owner's own next block will resolve further.
	o.lastLbts = lbts
	o.cond.Broadcast()
	if !moved {
		return false
	}
	o.jumps++
	return true
}

// Inject publishes a cross-shard arrival into this shard's inbox. Called
// from the sending shard mid-span; the owning shard materializes the
// arrival (via the window hook's Arrive) at its next gate pass. The
// payload travels as-is — receivers cast it back.
func (sh *Shard) Inject(at Time, key uint64, payload any) {
	sh.inmu.Lock()
	wasPending := sh.inboxPending.Load()
	sh.inbox = append(sh.inbox, inbound{at: at, key: key, payload: payload})
	sh.inboxPending.Store(true)
	sh.inmu.Unlock()
	if !wasPending {
		// First item since the last drain: the owner may be asleep. The
		// broadcast is ordered after the pending store, and sleepers
		// re-check the flag under mu before waiting, so the wakeup
		// cannot be lost.
		o := sh.eng.opt
		o.mu.Lock()
		o.cond.Broadcast()
		o.mu.Unlock()
	}
}

// drainInbox materializes every pending inbound arrival onto the shard's
// own heap. Arrivals are never in the shard's past (the gate only
// executes events strictly below the horizon, and every arrival lands at
// or beyond it — AtDelivery's past-check doubles as the runtime assertion
// of that invariant). Draining an in-span arrival after tentatively
// claiming the span done is a reopen — the speculation rollback counter.
func (sh *Shard) drainInbox(o *optState) {
	sh.inmu.Lock()
	items := sh.inbox
	sh.inbox = sh.inboxSpare[:0]
	sh.inboxPending.Store(false)
	sh.inmu.Unlock()
	if len(items) == 0 {
		sh.inboxSpare = items
		return
	}
	hook := sh.eng.hook
	if hook == nil {
		panic("sim: cross-shard traffic requires a window hook")
	}
	minAt := maxTime
	for i := range items {
		if items[i].at < minAt {
			minAt = items[i].at
		}
		hook.Arrive(sh, items[i].at, items[i].key, items[i].payload)
		items[i].payload = nil
	}
	sh.inboxSpare = items[:0]
	if sh.tentDone {
		sh.tentDone = false
		if minAt <= Time(o.spanEnd.Load()) {
			sh.reopens++
		}
	}
}

// OptStats reports the speculative-execution counters of a sharded run
// (all zero for a sequential engine). Spans and SpecEvents are
// deterministic for a given workload and shard count; Reopens, Stalls,
// and Jumps depend on host scheduling and belong in benchmarks, never in
// equivalence goldens.
type OptStats struct {
	// Spans is the number of committed spans (GVT advances).
	Spans uint64
	// Reopens counts retracted span-completion claims: a shard had
	// tentatively finished its span when a straggler flight landed back
	// inside it. This is the mode's honest "rollback" counter — state is
	// never rolled back (it cannot be; see optState), quiescence claims
	// are.
	Reopens uint64
	// SpecEvents counts events executed at or beyond their span's first
	// lookahead — each would have cost a global barrier in a lockstep
	// window scheduler. The speculation win.
	SpecEvents uint64
	// Stalls counts shard blocks (condition-variable waits).
	Stalls uint64
	// Jumps counts idle LBTS jumps (see resolve).
	Jumps uint64
}

// OptStats returns the sharded-run counters; zero for sequential engines.
func (e *Engine) OptStats() OptStats {
	var s OptStats
	if e.opt == nil {
		return s
	}
	s.Spans = e.windows
	s.Jumps = e.opt.jumps
	for _, sh := range e.shards {
		s.Reopens += sh.reopens
		s.SpecEvents += sh.specEvents
		s.Stalls += sh.stalls
	}
	return s
}

// runSpans is the coordinator of a sharded run: it alternates barriers
// (the hook's merge step, trace flush, due globals) with parallel commit
// spans of spanLookaheads lookaheads each. Within a span the shards
// synchronize among themselves through clocks and horizons instead of
// returning to the coordinator. Spans are cut at global events, at
// fault-plan boundaries (WindowHook.NextBound), and at the deadline, so
// the commit sequence — where traces flush, NIC snapshots refresh, and
// globals fire — is a deterministic function of virtual state alone.
func (e *Engine) runSpans(deadline Time) {
	e.startRunners()
	o := e.opt
	for {
		e.barrier()
		if e.stopFlag.Load() || e.anyDown() {
			break
		}
		b, ok := e.nextTime()
		if !ok || b > deadline {
			break
		}
		for _, sh := range e.shards {
			if sh.now < b {
				sh.now = b
			}
		}
		e.runGlobalsAt(b)
		if e.anyDown() {
			break
		}
		la := Duration(1)
		if e.hook != nil {
			la = e.hook.Lookahead(b)
			if la < 1 {
				la = 1
			}
		}
		last := deadline
		if wl := b.Add(Duration(e.spanLookaheads)*la) - 1; wl < last {
			last = wl
		}
		if e.hook != nil {
			if nb := e.hook.NextBound(b); nb > b && nb-1 < last {
				last = nb - 1
			}
		}
		if len(e.globals) > 0 && e.globals[0].at-1 < last {
			last = e.globals[0].at - 1
		}
		if last < b {
			last = b
		}
		work := false
		for _, sh := range e.shards {
			if sh.heap.len() > 0 && sh.heap.first().at <= last {
				work = true
				break
			}
		}
		if !work {
			continue
		}
		e.windows++
		o.beginSpan(b, last, la)
		e.dispatchSpan()
	}
}

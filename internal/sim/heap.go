package sim

// eventKind discriminates what a scheduled event does when it fires.
// Typed kinds exist so that the hot paths (process resumption, packet
// delivery) need no per-event closure allocation.
type eventKind uint8

const (
	// evFunc runs a one-shot closure (the general At/After path).
	evFunc eventKind = iota
	// evProc resumes a process (Charge, Spawn, Unpark, Interrupt).
	evProc
	// evIntProc is an interruptible-charge expiry: it clears the
	// process's interrupt timer and resumes it.
	evIntProc
	// evAction runs a pre-allocated Action (closure-free callbacks).
	evAction
)

// Event classes define the canonical same-timestamp order, which must be
// identical in the sequential and sharded kernels for runs to be
// bit-identical. At one instant: global control transitions first (crash
// points, collective releases — the sharded kernel fires these between
// commit spans), then packet arrivals in (source node, flight number)
// order (cross-shard flights land on their destination heap under the
// same key), then everything else in scheduling order.
const (
	classGlobal   uint8 = 0
	classDelivery uint8 = 1
	classNormal   uint8 = 2
)

// event is a scheduled kernel action. Events fire in (at, class, key, seq)
// order: timestamp, canonical class, canonical class key, then scheduling
// order — which makes runs deterministic and shard-count-independent.
// Cancelled events are unlinked immediately when the cancelling Timer
// can reach the owning shard, and otherwise stay in the queue as
// tombstones dropped when they surface.
//
// Events are pooled: after firing (or surfacing cancelled) they return to
// the shard's free list and gen is bumped, which invalidates any Timer
// still holding the pointer.
// Field order is deliberate: the comparator fields (at, class, key, seq)
// and the list link share the first cache line, so calendar-queue walks
// and compares touch one line per event.
type event struct {
	at        Time
	next      *event // calendar-bucket link / free-list link
	key       uint64 // canonical order within a class (0 for classNormal)
	seq       uint64
	kind      eventKind
	class     uint8
	cancelled bool
	gen       uint64 // recycle generation; Timers capture it to stay valid
	fn        func()
	act       Action
	proc      *Proc
}

// eventLess is the canonical total order on events — (at, class, key,
// seq) — shared by the per-bucket heaps of the calendar queue (see
// calqueue.go) and the reference binary heap below. Any priority queue
// implementing exactly this order yields the same pop sequence, which is
// the invariant that lets the queue implementation change under the
// golden equivalence hashes.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by eventLess. It is hand-rolled
// rather than using container/heap to avoid the interface indirection on
// the simulation hot path. Entries are pointers so that a scheduled
// event can be cancelled in place (interrupt support). The calendar
// queue uses one of these per bucket; it also survives standalone as the
// reference ordering for the queue-equivalence property tests.
type eventHeap struct {
	ev []*event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool { return eventLess(h.ev[i], h.ev[j]) }

func (h *eventHeap) push(e *event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev[last] = nil // release for GC
	h.ev = h.ev[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}

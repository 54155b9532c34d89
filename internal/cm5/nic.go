package cm5

// nic is a node's network interface: a bounded FIFO input queue plus a
// count of slots reserved by packets still in flight toward this node.
// Reserving at injection time gives lossless bounded buffering: a sender
// that cannot reserve a slot observes "network full" (and may block, drain,
// or abort — policy belongs to the layers above).
type nic struct {
	queue    []*Packet // FIFO; head at index 0 of the ring
	head     int
	count    int
	reserved int
	cap      int
}

// nicInitialRing bounds the first ring allocation: the ring starts
// small and doubles with occupancy, so memory tracks what a node
// actually buffers, not the configured capacity (deep-queue cost models
// would otherwise charge every node the worst case up front).
const nicInitialRing = 64

// newNIC builds a NIC with the given capacity. The ring itself is lazy —
// allocated by the first deliver and grown geometrically — so a node
// that sends, computes, or just exists never pays queue memory for
// packets it never receives.
func newNIC(capacity int) *nic {
	if capacity < 1 {
		panic("cm5: NIC capacity must be positive")
	}
	return &nic{cap: capacity}
}

// full reports whether a new injection toward this NIC would exceed the
// buffer (queued plus in-flight reservations).
func (n *nic) full() bool { return n.count+n.reserved >= n.cap }

// reserve claims a slot for an in-flight packet. Callers must check full
// first; over-reservation is a programming error.
func (n *nic) reserve() {
	if n.full() {
		panic("cm5: NIC reservation overflow")
	}
	n.reserved++
}

// forceReserve claims a slot without the capacity check. Used when a
// cross-shard flight arrives on its destination shard: its admission was
// decided at injection time against the sender's snapshot view, which
// near saturation can admit slightly more than cap, so the ring grows
// instead of panicking (occupancy above cap is transient and bounded by
// one commit span's cross-shard traffic).
func (n *nic) forceReserve() { n.reserved++ }

// deliver converts a reservation into a queued packet, growing the ring
// if force-reserved flights pushed occupancy past the nominal capacity.
func (n *nic) deliver(p *Packet) {
	if n.reserved <= 0 {
		panic("cm5: delivery without reservation")
	}
	n.reserved--
	if n.queue == nil {
		sz := n.cap
		if sz > nicInitialRing {
			sz = nicInitialRing
		}
		n.queue = make([]*Packet, sz)
	}
	if n.count == len(n.queue) {
		grown := make([]*Packet, 2*len(n.queue))
		for i := 0; i < n.count; i++ {
			grown[i] = n.queue[(n.head+i)%len(n.queue)]
		}
		n.queue = grown
		n.head = 0
	}
	n.queue[(n.head+n.count)%len(n.queue)] = p
	n.count++
}

// abandon releases a reservation without queueing anything: the in-flight
// packet was discarded by the fault layer.
func (n *nic) abandon() {
	if n.reserved <= 0 {
		panic("cm5: abandon without reservation")
	}
	n.reserved--
}

// pop removes and returns the packet at the head of the queue, or nil.
func (n *nic) pop() *Packet {
	if n.count == 0 {
		return nil
	}
	p := n.queue[n.head]
	n.queue[n.head] = nil
	n.head = (n.head + 1) % len(n.queue)
	n.count--
	return p
}

// pending reports the number of queued (already delivered) packets.
func (n *nic) pending() int { return n.count }

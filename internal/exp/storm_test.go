package exp

import "testing"

// TestKernelStormDisabledZeroAllocs re-states the kernel allocation
// budget on a whole-stack storm, now that every layer carries probe hooks:
// with no collector attached the probes are nil, the hot path never
// branches into obs, and the steady-state window must not allocate.
func TestKernelStormDisabledZeroAllocs(t *testing.T) {
	sa := KernelStorm(2_000, 10_000)
	if sa.AllocsPerPacket >= 0.01 {
		t.Fatalf("uninstrumented hot path allocates %.4f objects/packet, want 0", sa.AllocsPerPacket)
	}
}

// TestKernelStormObserved checks the storm with a live metrics sink: the
// sink sees every packet and handler run (so the budget covers real work,
// not a detached collector), the observed counters agree with the storm's
// own accounting, and the instrumented hot path stays allocation-free.
func TestKernelStormObserved(t *testing.T) {
	warmup, packets := 1_000, 5_000
	sa, c := KernelStormObserved(warmup, packets)
	total := uint64(warmup + packets)
	if sa.Packets != uint64(packets) {
		t.Fatalf("packets = %d, want %d", sa.Packets, packets)
	}
	if sa.AllocsPerPacket >= 0.05 {
		t.Errorf("live metrics sink allocates %.4f objects/packet, want < 0.05", sa.AllocsPerPacket)
	}
	reg := c.Registry()
	if reg == nil {
		t.Fatal("observed storm has no metrics registry")
	}
	for _, name := range []string{"cm5/packets_sent", "cm5/packets_delivered", "am/handlers_run"} {
		if got := reg.CounterTotal(name); got != total {
			t.Errorf("%s = %d, want %d", name, got, total)
		}
	}
}

// TestOptimisticBenchPass: the sharded ring storm runs, matches the
// sequential pass bit-for-bit (KernelStormOptimistic panics otherwise),
// and reproduces its deterministic counters exactly. Spans, SpecEvents,
// and Events are functions of virtual state alone, so they are pinned; a
// change to the span protocol or the storm moves them.
func TestOptimisticBenchPass(t *testing.T) {
	ob := KernelStormOptimistic(8, 40_000, 2)
	const (
		wantSpans      = 2_292
		wantSpecEvents = 1_276_672
		wantEvents     = 1_320_024
	)
	if ob.Spans != wantSpans || ob.SpecEvents != wantSpecEvents || ob.Events != wantEvents {
		t.Errorf("storm counters: spans=%d specEvents=%d events=%d, want %d/%d/%d",
			ob.Spans, ob.SpecEvents, ob.Events, wantSpans, wantSpecEvents, wantEvents)
	}
}

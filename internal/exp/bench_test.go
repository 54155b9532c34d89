package exp

import (
	"runtime"
	"testing"
)

// TestKernelStormDisabledZeroAllocs re-states the kernel allocation
// budget from the bench side, now that every layer carries probe hooks:
// with no collector attached the probes are nil, the hot path never
// branches into obs, and the steady-state window must not allocate.
func TestKernelStormDisabledZeroAllocs(t *testing.T) {
	kb := KernelStorm(2_000, 10_000)
	if kb.AllocsPerPacket >= 0.01 {
		t.Fatalf("uninstrumented hot path allocates %.4f objects/packet, want 0", kb.AllocsPerPacket)
	}
}

// TestKernelStormObserved checks the instrumentation-overhead pass: the
// live metrics sink sees every packet and handler run (so the overhead
// number measures real work, not a detached collector), and the observed
// counters agree with the storm's own accounting.
func TestKernelStormObserved(t *testing.T) {
	warmup, packets := 1_000, 5_000
	kb, c := KernelStormObserved(warmup, packets)
	total := uint64(warmup + packets)
	if kb.Packets != uint64(packets) {
		t.Fatalf("packets = %d, want %d", kb.Packets, packets)
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
	t.Logf("observed storm: %.0f ns/event, %.3f allocs/packet", kb.NsPerEvent, kb.AllocsPerPacket)
}

// TestOptimisticBenchPass: the bench report's sharded ring storm runs,
// matches the sequential pass bit-for-bit (KernelStormOptimistic panics
// otherwise), and reproduces its deterministic counters exactly. Spans,
// SpecEvents, and Events are functions of virtual state alone, so they
// are pinned; a change to the span protocol or the storm moves them.
// Speedup numbers are only validity-checked, never asserted.
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
	wantValid := runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() >= 2
	if ob.SpeedupValid != wantValid {
		t.Errorf("speedup_valid = %v, want %v (GOMAXPROCS=%d, NumCPU=%d)",
			ob.SpeedupValid, wantValid, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if ob.Overhead.WindowWallNs <= 0 || ob.Overhead.ShardBusyNs <= 0 {
		t.Errorf("span overhead breakdown not populated: %+v", ob.Overhead)
	}
}

package exp

import "testing"

// TestKernelScaleBudget runs the quick scale sweep and asserts its
// budgets: per-event wall cost within the
// documented memory-hierarchy cap from N=128 to N=65536, algorithmic
// flatness (scans/pop, allocs/event) at every point, and per-node memory
// under the caps both touched and idle.
func TestKernelScaleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep builds 65536-node machines")
	}
	sb := KernelScale(true)
	if len(sb.Points) != len(ScaleNodeCounts) {
		t.Fatalf("points = %d, want %d", len(sb.Points), len(ScaleNodeCounts))
	}
	for _, p := range sb.Points {
		if p.ScansPerPop > ScaleScansPerPopMax {
			t.Errorf("N=%d: %.2f scans/pop > %.1f — bucket width unmatched to event spacing",
				p.Nodes, p.ScansPerPop, float64(ScaleScansPerPopMax))
		}
		if p.AllocsPerEvent > ScaleAllocsPerEventMax {
			t.Errorf("N=%d: %.3f allocs/event > %.2f — steady-state tick is no longer allocation-free",
				p.Nodes, p.AllocsPerEvent, float64(ScaleAllocsPerEventMax))
		}
	}
	last := sb.Points[len(sb.Points)-1]
	if last.BytesPerNode > ScaleBytesPerNodeCap {
		t.Errorf("N=%d: %.0f bytes/node > %d cap", last.Nodes, last.BytesPerNode, ScaleBytesPerNodeCap)
	}
	if sb.IdleBytesPerNode > ScaleIdleBytesPerNodeCap {
		t.Errorf("idle machine: %.1f bytes/node > %d cap — something materializes untouched nodes",
			sb.IdleBytesPerNode, ScaleIdleBytesPerNodeCap)
	}
	if !sb.ScaleValid {
		t.Skipf("ns/event ratio not asserted: %s", sb.Warning)
	}
	if sb.NsPerEventRatio > ScaleNsPerEventRatioMax {
		t.Errorf("ns/event ratio %.2f > %.1f from N=%d to N=%d",
			sb.NsPerEventRatio, float64(ScaleNsPerEventRatioMax), sb.Points[0].Nodes, last.Nodes)
	}
}

package exp

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/sim"
)

// TestKVQuickGrid runs the quick service grid end to end: every cell
// already passes kv.CheckInvariants inside KV, so this asserts the
// grid-level facts — real traffic in every cell, a latency distribution
// behind every quantile, and AM rows that never promoted.
func TestKVQuickGrid(t *testing.T) {
	rows, err := KV(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty grid")
	}
	// Open-loop arrivals are a pure function of (seed, client, shape):
	// every system in a scenario/rate group must see the same offered
	// load, or the comparison is between different workloads.
	arrivals := map[string]uint64{}
	sawLossy := false
	for _, r := range rows {
		gk := fmt.Sprintf("%s@%g", r.Scenario, r.RateX)
		if want, seen := arrivals[gk]; seen && r.Arrivals != want {
			t.Fatalf("%s/%v: %d arrivals, other systems in the group saw %d — the load is not open-loop",
				r.Scenario, r.System, r.Arrivals, want)
		}
		arrivals[gk] = r.Arrivals
		if r.Arrivals == 0 || r.OK == 0 {
			t.Fatalf("%s/%v: no traffic (%d arrivals, %d ok)", r.Scenario, r.System, r.Arrivals, r.OK)
		}
		if r.P999 == 0 {
			t.Fatalf("%s/%v: empty latency histogram", r.Scenario, r.System)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 {
			t.Fatalf("%s/%v: quantiles not monotone: %v %v %v", r.Scenario, r.System, r.P50, r.P99, r.P999)
		}
		if r.System == apps.AM && r.Promoted != 0 {
			t.Fatalf("%s/AM: promoted %d times; the AM rows must have no abort points", r.Scenario, r.Promoted)
		}
		if r.Scenario == "lossy" {
			sawLossy = true
			if r.FaultHash == 0 {
				t.Fatalf("lossy/%v: zero fault hash under 1%% drop", r.System)
			}
		}
	}
	if !sawLossy {
		t.Fatal("quick grid lost its lossy scenario")
	}
}

// TestKVShardInvariance re-runs one steady cell at shard counts 1, 2
// and 4 through the harness knobs (Shards is a package variable the CLI
// sets) and requires bit-identical books and hashes.
func TestKVShardInvariance(t *testing.T) {
	run := func(shards int) KVRow {
		saved := Shards
		defer func() { Shards = saved }()
		Shards = shards
		row, err := kvCell("inv", apps.ORPC, 2, kvShape(nil), 24, sim.Micros(8000))
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	base := run(1)
	for _, shards := range shardCounts[1:] {
		if got := run(shards); got != base {
			t.Fatalf("shards=%d diverged:\n got %+v\nwant %+v", shards, got, base)
		}
	}
}

// TestKVSaturationQuick checks the bench pass finds the knee and the
// goodput gap on the quick sweep — the numbers CI asserts against.
func TestKVSaturationQuick(t *testing.T) {
	sat, err := KVSaturationBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Valid {
		t.Fatalf("quick sweep found no knee: %+v", sat)
	}
	if sat.GoodputRatioAtMax <= 1 {
		t.Fatalf("ORPC goodput did not beat TRPC beyond the knee: ratio %.3f", sat.GoodputRatioAtMax)
	}
	if sat.P999At70PctKneeUs <= 0 {
		t.Fatalf("no p999 below the knee: %+v", sat)
	}
}

// TestKVMultiactiveQuick checks the multiactive bench pass on the quick
// cell: everything it reports is virtual time, so the assertions are
// deterministic on any host.
func TestKVMultiactiveQuick(t *testing.T) {
	m, err := KVMultiactiveBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid {
		t.Fatalf("multiactive pass measured no goodput: %+v", m)
	}
	if m.SpeedupAtMax < 1.3 {
		t.Fatalf("multiactive goodput speedup %.2fx < 1.3x: %+v", m.SpeedupAtMax, m)
	}
	if m.P999RatioAtMax >= 1 {
		t.Fatalf("multiactive did not shorten the tail: p999 ratio %.2f", m.P999RatioAtMax)
	}
	for i, cores := range m.Cores {
		if cores > 1 {
			if m.CompatAdmitted[i] == 0 {
				t.Fatalf("cores=%d admitted no compatible handlers", cores)
			}
			if m.OccupancyFrac[i] <= 0 || m.OccupancyFrac[i] > 1 {
				t.Fatalf("cores=%d occupancy %.3f outside (0, 1]", cores, m.OccupancyFrac[i])
			}
		} else if m.OccupancyFrac[i] != 0 || m.CompatAdmitted[i] != 0 {
			t.Fatalf("single-active cell reported multiactive activity: %+v", m)
		}
		if m.GoodputPerMs[i] < m.GoodputPerMs[0] {
			t.Fatalf("goodput fell below single-active at cores=%d: %+v", cores, m)
		}
	}
}

// TestKVMultiactiveShardInvariance re-runs the 2-core cell at shard
// counts 1, 2 and 4 and requires bit-identical books — the multiactive
// extension of TestKVShardInvariance.
func TestKVMultiactiveShardInvariance(t *testing.T) {
	run := func(shards int) KVRow {
		saved := Shards
		defer func() { Shards = saved }()
		Shards = shards
		row, err := kvCell("inv", apps.ORPC, 2, kvShape(func(c *kv.Config) {
			c.Cores = 2
			c.ZipfS = 1.1
		}), 24, sim.Micros(8000))
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	base := run(1)
	if base.OK == 0 {
		t.Fatal("no traffic in the multiactive invariance cell")
	}
	for _, shards := range shardCounts[1:] {
		if got := run(shards); got != base {
			t.Fatalf("shards=%d diverged:\n got %+v\nwant %+v", shards, got, base)
		}
	}
}

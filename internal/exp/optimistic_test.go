package exp

import (
	"reflect"
	"testing"
)

// optimisticShards is the width the optimistic suite adds to the
// sharded-equivalence sweep: an odd count, so contiguous node blocks have
// unequal sizes on the four-node applications and shards reach span
// boundaries at different virtual times.
const optimisticShards = 3

// TestOptimisticEquivalenceApps: for all four applications, a run on
// speculative commit spans at uneven shard widths is indistinguishable
// from the sequential one — same result struct, same Charged(), and a
// canonical schedule trace that hashes identically — and the engine
// really speculated: it committed spans and ran events past a span's
// first lookahead.
func TestOptimisticEquivalenceApps(t *testing.T) {
	for _, app := range []string{"triangle", "tsp", "sor", "water"} {
		seq := runAppAtShards(t, app, 1)
		if seq.traceLen == 0 {
			t.Fatalf("%s: sequential run produced an empty schedule trace", app)
		}
		for _, s := range []int{optimisticShards} {
			got := runAppAtShards(t, app, s)
			if got.res != seq.res {
				t.Errorf("%s: optimistic result at shards=%d differs from sequential:\n got %+v\nwant %+v",
					app, s, got.res, seq.res)
			}
			if got.charged != seq.charged {
				t.Errorf("%s: optimistic Charged() at shards=%d = %v, want %v",
					app, s, got.charged, seq.charged)
			}
			if got.traceHash != seq.traceHash || got.traceLen != seq.traceLen {
				t.Errorf("%s: optimistic schedule trace at shards=%d (hash %#x, %d bytes) differs from sequential (hash %#x, %d bytes)",
					app, s, got.traceHash, got.traceLen, seq.traceHash, seq.traceLen)
			}
			if got.opt.Spans == 0 {
				t.Errorf("%s: shards=%d committed no spans: %+v", app, s, got.opt)
			}
			if got.opt.SpecEvents == 0 {
				t.Errorf("%s: shards=%d executed no speculative events: %+v", app, s, got.opt)
			}
		}
	}
}

// TestOptimisticEquivalenceChaos: the full quick chaos sweep — loss,
// duplication, a mid-run crash, and a permanent partition — produces
// byte-identical rows (including the fault-trace hashes) at uneven shard
// widths. Spans are cut at fault-plan edges (see cm5.Machine.NextBound),
// so speculation crosses slow windows and partitions without perturbing a
// single fault decision.
func TestOptimisticEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep twice")
	}
	savedShards, savedWorkers := Shards, Workers
	defer func() { Shards, Workers = savedShards, savedWorkers }()
	Workers = 1

	Shards = 1
	seq, err := Chaos(Scale{Quick: true})
	if err != nil {
		t.Fatalf("sequential chaos sweep: %v", err)
	}
	for _, s := range []int{optimisticShards} {
		Shards = s
		rows, err := Chaos(Scale{Quick: true})
		if err != nil {
			t.Fatalf("optimistic chaos sweep (shards=%d): %v", s, err)
		}
		for i, r := range rows {
			if !r.OK {
				t.Errorf("optimistic chaos row %d (shards=%d): wrong answer", i, s)
			}
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("optimistic chaos row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}

// TestOptimisticEquivalenceSched: the control-plane chaos grid — event
// record and fault-trace hashes included — is byte-identical at uneven
// shard widths.
func TestOptimisticEquivalenceSched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sched sweep twice")
	}
	savedShards, savedWorkers := Shards, Workers
	defer func() { Shards, Workers = savedShards, savedWorkers }()
	Workers = 1

	Shards = 1
	seq, err := Sched(Scale{Quick: true})
	if err != nil {
		t.Fatalf("sequential sched sweep: %v", err)
	}
	for _, s := range []int{optimisticShards} {
		Shards = s
		rows, err := Sched(Scale{Quick: true})
		if err != nil {
			t.Fatalf("optimistic sched sweep (shards=%d): %v", s, err)
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("optimistic sched row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}

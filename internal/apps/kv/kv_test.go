package kv_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/cm5"
	"repro/internal/sim"
)

func smallCfg(sys apps.System) kv.Config {
	return kv.Config{
		System:   sys,
		Seed:     7,
		Clients:  16,
		Duration: sim.Micros(5000),
	}
}

// TestRunAllSystems: the same workload completes under all three
// communication systems with the invariants intact and real goodput.
func TestRunAllSystems(t *testing.T) {
	for _, sys := range apps.Systems {
		res, st, err := kv.Run(smallCfg(sys))
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if st.Arrivals == 0 || st.OK == 0 {
			t.Fatalf("%v: no traffic: %d arrivals, %d ok", sys, st.Arrivals, st.OK)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: elapsed %v", sys, res.Elapsed)
		}
		if sys == apps.AM && st.Promoted != 0 {
			t.Fatalf("AM promoted %d dispatches; its handlers must have no abort points", st.Promoted)
		}
		var grants uint64
		for _, s := range st.PerServer {
			grants += s.Grants
		}
		if grants == 0 {
			t.Fatalf("%v: no lock traffic exercised", sys)
		}
	}
}

// TestDedupUnderFaults: packet loss forces idempotent retries whose
// first attempt already executed; the server dedup cache must absorb
// the re-executions so at-most-once application (Applied == VerSum)
// survives. The run is long and lossy enough that retries demonstrably
// happened.
func TestDedupUnderFaults(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Duration = sim.Micros(10000)
	// Loss heavy enough, and a deadline tight enough, that the reliable
	// transport cannot always recover a reply before the client retries.
	cfg.Fault = &cm5.FaultPlan{Seed: 3, DropProb: 0.25}
	cfg.CallTimeout = sim.Micros(400)
	_, st, err := kv.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.CheckInvariants(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fault.Lost() == 0 {
		t.Fatal("fault plan injected no losses")
	}
	if st.Timeouts == 0 {
		t.Fatal("no call timeouts: the dedup path was never stressed")
	}
	var hits uint64
	for _, s := range st.PerServer {
		hits += s.DedupHits
	}
	if hits == 0 {
		t.Fatal("no dedup hits: no retry re-executed on the server")
	}
}

// TestShardedEquivalence is the acceptance gate: the full results —
// store answer, per-server lease records, fault trace, and every client
// ledger — are bit-identical at shard counts 1, 2, and 4, on a faulty
// network with skewed bursty load.
func TestShardedEquivalence(t *testing.T) {
	base := kv.Config{
		System:   apps.ORPC,
		Seed:     11,
		Clients:  16,
		Duration: sim.Micros(8000),
		Mode:     kv.Bursty,
		ZipfS:    0.9,
		Fault:    &cm5.FaultPlan{Seed: 5, DropProb: 0.02, DupProb: 0.01},
	}
	type fingerprint struct {
		answer, rec, fault uint64
		st                 kv.Stats
	}
	var want *fingerprint
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Shards = shards
		res, st, err := kv.Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := &fingerprint{res.Answer, st.RecordHash, st.FaultHash, st}
		if want == nil {
			want = got
			continue
		}
		if got.answer != want.answer || got.rec != want.rec || got.fault != want.fault {
			t.Fatalf("shards=%d diverged: answer %016x/%016x record %016x/%016x fault %016x/%016x",
				shards, got.answer, want.answer, got.rec, want.rec, got.fault, want.fault)
		}
		for i := range want.st.PerClient {
			if got.st.PerClient[i] != want.st.PerClient[i] {
				t.Fatalf("shards=%d: client %d ledger diverged: %+v vs %+v",
					shards, i, got.st.PerClient[i], want.st.PerClient[i])
			}
		}
		for i := range want.st.PerServer {
			if got.st.PerServer[i] != want.st.PerServer[i] {
				t.Fatalf("shards=%d: server %d ledger diverged: %+v vs %+v",
					shards, i, got.st.PerServer[i], want.st.PerServer[i])
			}
		}
	}
}

// TestLeaseLifecycle: with a hold longer than the TTL, leases expire on
// the server and the late unlocks fail — and both sides agree on how
// often.
func TestLeaseLifecycle(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Duration = sim.Micros(10000)
	cfg.Keys = 4 // force lock collisions
	cfg.LockTTL = sim.Micros(300)
	cfg.LockHold = sim.Micros(1000) // dwell past the TTL: every lease expires
	_, st, err := kv.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.CheckInvariants(&st); err != nil {
		t.Fatal(err)
	}
	var grants, releases, expiries uint64
	for _, s := range st.PerServer {
		grants += s.Grants
		releases += s.Releases
		expiries += s.Expiries
	}
	if grants == 0 {
		t.Fatal("no leases granted")
	}
	if expiries == 0 {
		t.Fatal("no lease expired despite a hold past the TTL")
	}
	var unlockFails uint64
	for _, c := range st.PerClient {
		unlockFails += c.UnlockFails
	}
	if unlockFails == 0 {
		t.Fatal("no unlock failed despite server-side expiries")
	}
}

package kv_test

import (
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// TestMultiactiveRun: with Cores > 1 the service still satisfies every
// invariant, and the compatibility matrix actually admits concurrent
// handlers (reads overlap; disjoint-key writers overlap).
func TestMultiactiveRun(t *testing.T) {
	for _, cores := range []int{2, 4} {
		cfg := smallCfg(apps.ORPC)
		cfg.Cores = cores
		cfg.ZipfS = 0.9
		var rt *rpc.Runtime
		cfg.Observe = func(_ *am.Universe, r *rpc.Runtime) { rt = r }
		_, st, err := kv.Run(cfg)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if st.Arrivals == 0 || st.OK == 0 {
			t.Fatalf("cores=%d: no traffic: %d arrivals, %d ok", cores, st.Arrivals, st.OK)
		}
		ds := rt.Dispatcher().Stats()
		if ds.CompatAdmitted == 0 {
			t.Fatalf("cores=%d: no dispatch was compat-admitted: %v", cores, ds)
		}
		if ds.CompatAdmitted+ds.CompatQueued != ds.Total {
			t.Fatalf("cores=%d: admitted %d + queued %d != total %d",
				cores, ds.CompatAdmitted, ds.CompatQueued, ds.Total)
		}
	}
}

// TestMultiactiveShardedEquivalence: the cores 2/4 equivalence golden —
// multiactive results are bit-identical across shard counts, exactly like
// the single-active gate above.
func TestMultiactiveShardedEquivalence(t *testing.T) {
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
	for _, cores := range []int{2, 4} {
		var want *fingerprint
		for _, shards := range []int{1, 2, 4} {
			cfg := base
			cfg.Cores = cores
			cfg.Shards = shards
			res, st, err := kv.Run(cfg)
			if err != nil {
				t.Fatalf("cores=%d shards=%d: %v", cores, shards, err)
			}
			if err := kv.CheckInvariants(&st); err != nil {
				t.Fatalf("cores=%d shards=%d: %v", cores, shards, err)
			}
			got := &fingerprint{res.Answer, st.RecordHash, st.FaultHash, st}
			if want == nil {
				want = got
				continue
			}
			if got.answer != want.answer || got.rec != want.rec || got.fault != want.fault {
				t.Fatalf("cores=%d shards=%d diverged: answer %016x/%016x record %016x/%016x fault %016x/%016x",
					cores, shards, got.answer, want.answer, got.rec, want.rec, got.fault, want.fault)
			}
			for i := range want.st.PerClient {
				if got.st.PerClient[i] != want.st.PerClient[i] {
					t.Fatalf("cores=%d shards=%d: client %d ledger diverged: %+v vs %+v",
						cores, shards, i, got.st.PerClient[i], want.st.PerClient[i])
				}
			}
			for i := range want.st.PerServer {
				if got.st.PerServer[i] != want.st.PerServer[i] {
					t.Fatalf("cores=%d shards=%d: server %d ledger diverged: %+v vs %+v",
						cores, shards, i, got.st.PerServer[i], want.st.PerServer[i])
				}
			}
		}
	}
}

// TestMultiactiveAdaptive: the adaptive controller engages under
// multiactive load and its decisions replay bit-identically.
func TestMultiactiveAdaptive(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Cores = 2
	cfg.Adaptive = true
	cfg.RateX = 3
	cfg.Duration = sim.Micros(8000)
	run := func(shards int) (uint64, oam.Stats) {
		c := cfg
		c.Shards = shards
		var rt *rpc.Runtime
		c.Observe = func(_ *am.Universe, r *rpc.Runtime) { rt = r }
		res, st, err := kv.Run(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res.Answer, rt.Dispatcher().Stats()
	}
	a1, d1 := run(1)
	a2, d2 := run(2)
	if a1 != a2 || d1 != d2 {
		t.Fatalf("adaptive run diverged across shards: answer %016x/%016x stats %v vs %v", a1, a2, d1, d2)
	}
}

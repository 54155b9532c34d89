package exp

import (
	"reflect"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// shardCounts is the sweep of the sharded-equivalence suite: the
// sequential kernel plus two genuinely parallel widths.
var shardCounts = []int{1, 2, 4}

// appRecord captures everything the equivalence contract pins for one
// run: the application's own result (answer, virtual elapsed, every
// statistic), the engine's charged virtual CPU time, and the FNV hash of
// the canonical schedule trace (every process resume/yield/exit with its
// timestamp — a byte-exact transcript of the schedule).
type appRecord struct {
	res       apps.Result
	charged   sim.Duration
	traceHash uint64
	traceLen  int
	opt       sim.OptStats
}

// runAppAtShards runs one app under ORPC at the given shard count with a
// canonical tracer attached.
func runAppAtShards(t *testing.T, app string, shards int) appRecord {
	t.Helper()
	tr := sim.NewCanonicalTracer()
	var eng *sim.Engine
	observe := func(u *am.Universe, _ *rpc.Runtime) {
		eng = u.Machine().Engine()
		eng.SetTracer(tr)
	}
	var res apps.Result
	var err error
	switch app {
	case "triangle":
		res, err = triangle.Run(apps.ORPC, 4, triangle.Config{
			Side: 5, Empty: -1, Seed: 101, Shards: shards, Observe: observe})
	case "tsp":
		res, err = tsp.Run(apps.ORPC, 3, tsp.Config{
			Cities: 9, Seed: 102, Shards: shards, Observe: observe})
	case "sor":
		res, err = sor.Run(apps.ORPC, 4, sor.Config{
			Rows: 24, Cols: 16, Iters: 4, Seed: 11, Shards: shards, Observe: observe})
	case "water":
		res, err = water.Run(apps.ORPC, 4, true, water.Config{
			Mols: 64, Iters: 2, Seed: 103, Shards: shards, Observe: observe})
	default:
		t.Fatalf("unknown app %q", app)
	}
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", app, shards, err)
	}
	if eng == nil {
		t.Fatalf("%s (shards=%d): Observe hook never ran", app, shards)
	}
	if eng.Shards() != shards {
		t.Fatalf("%s: engine has %d shards, want %d", app, eng.Shards(), shards)
	}
	text := tr.Text()
	return appRecord{res: res, charged: eng.Charged(), traceHash: tr.Hash(), traceLen: len(text), opt: eng.OptStats()}
}

// TestShardedEquivalenceApps: for all four applications, a sharded run is
// indistinguishable from the sequential one — same result struct (answer,
// elapsed virtual time, every counter), same Charged(), and a canonical
// schedule trace that hashes identically.
func TestShardedEquivalenceApps(t *testing.T) {
	for _, app := range []string{"triangle", "tsp", "sor", "water"} {
		seq := runAppAtShards(t, app, 1)
		if seq.traceLen == 0 {
			t.Fatalf("%s: sequential run produced an empty schedule trace", app)
		}
		for _, s := range shardCounts[1:] {
			got := runAppAtShards(t, app, s)
			if got.res != seq.res {
				t.Errorf("%s: result at shards=%d differs from sequential:\n got %+v\nwant %+v",
					app, s, got.res, seq.res)
			}
			if got.charged != seq.charged {
				t.Errorf("%s: Charged() at shards=%d = %v, want %v", app, s, got.charged, seq.charged)
			}
			if got.traceHash != seq.traceHash || got.traceLen != seq.traceLen {
				t.Errorf("%s: schedule trace at shards=%d (hash %#x, %d bytes) differs from sequential (hash %#x, %d bytes)",
					app, s, got.traceHash, got.traceLen, seq.traceHash, seq.traceLen)
			}
		}
	}
}

// TestShardedEquivalenceChaos: the full quick chaos sweep — loss,
// duplication, a mid-run crash, and a permanent partition — produces
// byte-identical rows (including the fault-trace hashes) at every shard
// count.
func TestShardedEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep three times")
	}
	savedShards, savedWorkers := Shards, Workers
	defer func() { Shards, Workers = savedShards, savedWorkers }()
	Workers = 1

	var seq []ChaosRow
	for _, s := range shardCounts {
		Shards = s
		rows, err := Chaos(Scale{Quick: true})
		if err != nil {
			t.Fatalf("chaos sweep (shards=%d): %v", s, err)
		}
		for i, r := range rows {
			if !r.OK {
				t.Errorf("chaos row %d (shards=%d): wrong answer", i, s)
			}
		}
		if s == 1 {
			seq = rows
			continue
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("chaos row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}

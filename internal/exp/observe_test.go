package exp

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
)

// traceGoldenTSP pins the FNV-1a hash of the quick TSP trace (4 nodes,
// ORPC, seed 102): the trace is a byte-exact transcript of the schedule,
// so any change to event order or timing anywhere in the stack shows up
// here. Re-record deliberately when the kernel or cost model changes.
const traceGoldenTSP uint64 = 0x5e6f7a6957a7db81

// observedTSP runs the quick 4-node TSP under ORPC with every sink on.
func observedTSP(t *testing.T) (*obs.Collector, apps.Result) {
	t.Helper()
	c, res, err := RunObserved(
		ObserveSpec{App: "tsp", Sys: apps.ORPC, Nodes: 4, Quick: true},
		obs.Options{Trace: true, Metrics: true, Profile: true})
	if err != nil {
		t.Fatalf("RunObserved: %v", err)
	}
	return c, res
}

// TestTraceGoldenTSP: the trace JSON is structurally valid, shows every
// kind of event the acceptance criteria name, and is byte-identical run
// to run (pinned by hash).
func TestTraceGoldenTSP(t *testing.T) {
	c1, res := observedTSP(t)
	var b1 bytes.Buffer
	if err := c1.WriteTrace(&b1); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	cats := map[string]bool{}
	aborts := 0
	flights := 0
	for _, ev := range doc.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
		if cat, ok := ev["cat"].(string); ok {
			cats[cat] = true
		}
		if ph := ev["ph"]; ph == "i" && strings.HasPrefix(ev["name"].(string), "abort: ") {
			aborts++
		} else if ph == "b" && ev["cat"] == "flight" {
			flights++
		}
	}
	if res.Nodes != 4 || len(pids) != 4 {
		t.Errorf("want one track per node (4), got pids %v", pids)
	}
	for _, want := range []string{"cpu", "handler", "oam", "rpc", "flight", "thread"} {
		if !cats[want] {
			t.Errorf("trace has no %q events", want)
		}
	}
	if aborts == 0 {
		t.Error("trace shows no OAM aborts with reason tags")
	}
	if flights == 0 {
		t.Error("trace shows no packet flights")
	}

	// Determinism: an identical second run renders byte-identical output,
	// and the bytes match the recorded golden hash.
	c2, _ := observedTSP(t)
	var b2 bytes.Buffer
	if err := c2.WriteTrace(&b2); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same seed produced different trace bytes")
	}
	h := fnv.New64a()
	h.Write(b1.Bytes())
	if got := h.Sum64(); got != traceGoldenTSP {
		t.Errorf("trace hash %#x, want golden %#x (re-record if the kernel changed deliberately)", got, traceGoldenTSP)
	}
}

// TestObservedSchedTrace: the control-plane probe feeds the collector —
// the trace grows a lazily-named "sched" track carrying lease spans and
// heartbeat instants, and the metrics registry counts placements and
// accepted completions. TestTraceGoldenTSP above doubles as the proof
// that the lazy track metadata changes nothing for apps without a
// scheduler.
func TestObservedSchedTrace(t *testing.T) {
	c, res, err := RunObserved(
		ObserveSpec{App: "sched", Nodes: 4, Quick: true},
		obs.Options{Trace: true, Metrics: true})
	if err != nil {
		t.Fatalf("RunObserved: %v", err)
	}
	if res.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", res.Nodes)
	}
	var b bytes.Buffer
	if err := c.WriteTrace(&b); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	s := b.String()
	for _, want := range []string{
		`"name":"sched"`,     // the lazily-emitted track metadata
		`"cat":"lease"`,      // lease lifetime async spans
		`"name":"heartbeat"`, // accepted-heartbeat instants
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	reg := c.Registry()
	if got := reg.CounterTotal("sched/leases_placed"); got != 8 {
		t.Errorf("sched/leases_placed = %d, want 8 (one per quick job on a clean network)", got)
	}
	if got := reg.CounterTotal("sched/completions_accepted"); got != 8 {
		t.Errorf("sched/completions_accepted = %d, want 8", got)
	}
	if reg.CounterTotal("sched/heartbeats") == 0 {
		t.Error("no heartbeats counted")
	}
	if got := reg.CounterTotal("sched/agent_dead"); got != 0 {
		t.Errorf("sched/agent_dead = %d on a clean network", got)
	}
}

// TestProfileMatchesCharged: the virtual-time profiler attributes every
// charged microsecond — its total equals the engine's own counter
// exactly, and the rendered table is deterministic.
func TestProfileMatchesCharged(t *testing.T) {
	c1, _ := observedTSP(t)
	if got, want := c1.Profile().Total(), c1.EngineCharged(); got != want {
		t.Errorf("profile total %v != engine charged %v", got, want)
	}
	if c1.Profile().Total() == 0 {
		t.Error("profile attributed no time")
	}

	var p1, p2, m1, m2 bytes.Buffer
	if err := c1.WriteProfile(&p1, 0); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	if err := c1.WriteMetrics(&m1); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	c2, _ := observedTSP(t)
	if err := c2.WriteProfile(&p2, 0); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	if err := c2.WriteMetrics(&m2); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if p1.String() != p2.String() {
		t.Error("profile output not deterministic")
	}
	if m1.String() != m2.String() {
		t.Error("metrics output not deterministic")
	}
}

// TestObservedAllApps: every registered app runs observed and the
// collected metrics agree with the run's own result counters.
func TestObservedAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every app")
	}
	for _, app := range ObservedApps() {
		c, res, err := RunObserved(
			ObserveSpec{App: app, Sys: apps.ORPC, Nodes: 4, Quick: true},
			obs.Options{Metrics: true})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.Elapsed == 0 {
			t.Errorf("%s: no elapsed time", app)
		}
		reg := c.Registry()
		if reg == nil || reg.Nodes() != res.Nodes {
			t.Fatalf("%s: registry nodes != %d", app, res.Nodes)
		}
		var buf bytes.Buffer
		if err := reg.Write(&buf); err != nil {
			t.Fatalf("%s: Write: %v", app, err)
		}
		if !strings.Contains(buf.String(), "am/handlers_run") {
			t.Errorf("%s: metrics missing handler counter:\n%s", app, buf.String())
		}
	}
}

// TestRunObservedErrors: unknown apps and impossible sizes are rejected.
func TestRunObservedErrors(t *testing.T) {
	if _, _, err := RunObserved(ObserveSpec{App: "nosuch"}, obs.Options{}); err == nil {
		t.Error("unknown app did not error")
	}
	if _, _, err := RunObserved(ObserveSpec{App: "tsp", Nodes: 1}, obs.Options{}); err == nil {
		t.Error("1-node tsp did not error")
	}
}

// TestObservedKVMultiactive: with Cores > 1 the observed kv run populates
// the multiactive probe tracks — the cores-busy and compat-queue gauges in
// the metrics registry and their counter tracks in the trace.
func TestObservedKVMultiactive(t *testing.T) {
	old := Cores
	Cores = 2
	defer func() { Cores = old }()
	c, res, err := RunObserved(
		ObserveSpec{App: "kv", Sys: apps.ORPC, Nodes: 8, Quick: true},
		obs.Options{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Fatal("no elapsed time")
	}
	var reg bytes.Buffer
	if err := c.Registry().Write(&reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oam/cores_busy", "oam/compat_queue"} {
		if !strings.Contains(reg.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, reg.String())
		}
	}
	var tr bytes.Buffer
	if err := c.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), `"cores_busy"`) {
		t.Error("trace missing the cores_busy counter track")
	}
	if !json.Valid(tr.Bytes()) {
		t.Error("trace is not valid JSON")
	}
}

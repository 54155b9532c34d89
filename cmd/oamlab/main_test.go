package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeTable1 golden-checks the header of a cheap experiment.
func TestSmokeTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "Table 1") {
		t.Errorf("missing table title:\n%s", got)
	}
	if !strings.Contains(errb.String(), "[table1 done in ") {
		t.Errorf("missing completion line:\n%s", errb.String())
	}
}

// TestSmokeCSV: CSV mode emits a comma-joined header row.
func TestSmokeCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "-csv", "abortcost"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Case,Cost (us)") {
		t.Errorf("missing CSV header:\n%s", out.String())
	}
}

// TestSmokeProfiles: -cpuprofile and -memprofile write non-empty pprof
// files covering the run.
func TestSmokeProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "-cpuprofile", cpu, "-memprofile", mem, "table1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestSmokeProfileBadPath: an unwritable profile path fails cleanly.
func TestSmokeProfileBadPath(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "-cpuprofile", t.TempDir() + "/no/such/dir/cpu.pprof", "table1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cpuprofile") {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestSmokeUnknownExperiment: bad names exit 2 without output.
func TestSmokeUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "nosuch"`) {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestUnknownListsSubcommands: the unknown-name diagnostic names every
// registered subcommand (including trace and metrics) so a typo is
// self-correcting.
func TestUnknownListsSubcommands(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	diag := errb.String()
	for _, name := range subcommands {
		if !strings.Contains(diag, name) {
			t.Errorf("diagnostic does not list subcommand %q:\n%s", name, diag)
		}
	}
}

// TestSmokeKV runs the key-value service grid at quick scale and
// golden-checks the table header and that every system shows up.
func TestSmokeKV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "kv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"KV service under open-loop load", "steady", "lossy", "AM", "ORPC", "TRPC", "p999(us)"} {
		if !strings.Contains(got, want) {
			t.Errorf("kv output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(errb.String(), "[kv done in ") {
		t.Errorf("missing completion line:\n%s", errb.String())
	}
}

// TestCommandTable: the subcommand table is internally consistent —
// groups are non-empty and expand to runnable members, every
// non-group, non-observed entry has a runner, and names are unique.
func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("duplicate subcommand %q", c.name)
		}
		seen[c.name] = true
		if c.about == "" {
			t.Errorf("subcommand %q has no description", c.name)
		}
		isGroup := c.name == "all" || c.name == "micro"
		isObserved := c.name == "trace" || c.name == "metrics"
		if (c.run == nil) != (isGroup || isObserved) {
			t.Errorf("subcommand %q: runner/group mismatch", c.name)
		}
	}
	for _, g := range []string{"all", "micro"} {
		members := group(g)
		if len(members) == 0 {
			t.Fatalf("group %q is empty", g)
		}
		for _, m := range members {
			if m.run == nil {
				t.Errorf("group %q contains non-runnable %q", g, m.name)
			}
		}
	}
	for _, name := range []string{"kv", "sched"} {
		c := findCommand(name)
		if c == nil || c.run == nil {
			t.Fatalf("subcommand %q not registered", name)
		}
		if !c.all {
			t.Errorf("subcommand %q not in the all group", name)
		}
	}
}

// TestUsageListsSubcommands: -help usage is generated from the command
// table, so it names every subcommand with its description.
func TestUsageListsSubcommands(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-help"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	usage := errb.String()
	for _, c := range commands {
		if !strings.Contains(usage, c.name) || !strings.Contains(usage, c.about) {
			t.Errorf("usage does not describe subcommand %q:\n%s", c.name, usage)
		}
	}
}

// TestSmokeTrace: the trace subcommand writes a valid Chrome trace-event
// JSON file with one track per node and events from every layer.
func TestSmokeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "trace", "tsp", "-p", "4", "-o", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	pids := map[float64]bool{}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if pid, ok := e["pid"].(float64); ok {
			pids[pid] = true
		}
		if cat, ok := e["cat"].(string); ok {
			cats[cat] = true
		}
	}
	if len(pids) != 4 || !pids[0] || !pids[1] || !pids[2] || !pids[3] {
		t.Errorf("want one track per node, pids {0,1,2,3}; got %v", pids)
	}
	for _, want := range []string{"cpu", "handler", "oam", "rpc", "flight", "thread"} {
		if !cats[want] {
			t.Errorf("no %q events in the trace", want)
		}
	}
	if !strings.Contains(errb.String(), "perfetto") {
		t.Errorf("missing Perfetto pointer:\n%s", errb.String())
	}
}

// TestSmokeMetrics: the metrics subcommand prints the instrument
// registry and the virtual-time profile.
func TestSmokeMetrics(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "metrics", "triangle", "-p", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"counter am/handlers_run", "gauge", "hist", "virtual CPU profile:"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics output missing %q:\n%s", want, got)
		}
	}
}

// TestObserveBadApp: trace with a bogus app fails with a diagnostic.
func TestObserveBadApp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"trace", "nosuch"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `unknown app "nosuch"`) {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestSmokeChaos runs the fault-injection sweep at quick scale and
// golden-checks both tables' headers and that every row validated.
func TestSmokeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep simulates several lossy runs")
	}
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "chaos"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"Chaos sweep",
		"Drop%  Crashes",
		"Retx",
		"GaveUp",
		"Per-node fault and recovery counters",
		"(crashed)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "NO") {
		t.Errorf("a chaos row failed validation:\n%s", got)
	}
}

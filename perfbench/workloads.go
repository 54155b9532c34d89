package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/cm5"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// workload is one named input set. prepare builds its cells from the
// instance seed, runs the reference solves its checks need and one
// warm-up cell; parent is the set-up span. paperSeed is the seed the
// paper's experiments use, selected by seed 0 on the command line.
type workload struct {
	name      string
	paperSeed int64
	prepare   func(seed int64, rec *spanRecorder, parent int) (*plan, error)
}

var workloads = []workload{
	{"tsp-switch", 102, prepareTSP},
	{"triangle-rpc", 101, prepareTriangle},
	{"kv-overload", 17, prepareKV},
	{"quick-suite", 0, prepareQuickSuite},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// instanceSeed maps the command-line seed to the instance seed.
func (w *workload) instanceSeed(seed int64) int64 {
	if seed == 0 {
		return w.paperSeed
	}
	return seed
}

// hook is the Observe callback every app cell installs: it keeps the
// universe and RPC runtime so the layers' public counters can be read
// after the run, and attaches the collector on traced passes.
type hook struct {
	col *obs.Collector
	u   *am.Universe
	rt  *rpc.Runtime
}

func (h *hook) observe(u *am.Universe, rt *rpc.Runtime) {
	h.u, h.rt = u, rt
	if h.col != nil {
		h.col.Attach(u, rt)
	}
}

// appSig is the canonical text of an apps.Result's checked outputs.
func appSig(r apps.Result) string {
	return fmt.Sprintf("elapsed=%d answer=%d oams=%d successes=%d threads=%d",
		int64(r.Elapsed), r.Answer, r.OAMs, r.Successes, r.ThreadsCreated)
}

// goldenCheck compares a cell's outputs with the pinned golden for the
// instance seed, when one is pinned.
func goldenCheck(workload string, seed int64, name, sig string) error {
	g, ok := goldens[workload]
	if !ok || g.seed != seed {
		return nil
	}
	want, ok := g.cells[name]
	if !ok {
		return fmt.Errorf("no golden pinned for cell %s", name)
	}
	if sig != want {
		return fmt.Errorf("outputs differ from the pinned golden:\n  got  %s\n  want %s", sig, want)
	}
	return nil
}

// tspSlaves is the Figure 2 machine size of the tsp-switch cells.
const tspSlaves = 32

func prepareTSP(s int64, rec *spanRecorder, parent int) (*plan, error) {
	sp := rec.begin("reference solve", parent)
	ref := tsp.NewProblem(12, s).SolveSeq()
	rec.end(sp)

	// Warm-up: the same code path on a 10-city instance.
	sp = rec.begin("warm-up", parent)
	warm := tsp.NewProblem(10, s).SolveSeq()
	res, err := tsp.Run(apps.ORPC, tspSlaves, tsp.Config{Cities: 10, Seed: s})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if res.Answer != uint64(warm.Best) {
		return nil, fmt.Errorf("warm-up: answer %d, sequential %d", res.Answer, warm.Best)
	}

	p := &plan{width: 1}
	for _, sys := range apps.Systems {
		sys := sys
		name := fmt.Sprintf("tsp/%v/%d", sys, tspSlaves)
		p.cells = append(p.cells, cell{
			name: name,
			run: func(col *obs.Collector) (cellOut, error) {
				h := &hook{col: col}
				res, err := tsp.Run(sys, tspSlaves, tsp.Config{Cities: 12, Seed: s, Observe: h.observe})
				if err != nil {
					return cellOut{}, err
				}
				return cellOut{sig: appSig(res), c: h.counters(res)}, nil
			},
			check: func(o cellOut) error {
				if o.c.answer != uint64(ref.Best) {
					return fmt.Errorf("tour length %d, sequential solve %d", o.c.answer, ref.Best)
				}
				return goldenCheck("tsp-switch", s, name, o.sig)
			},
		})
	}
	return p, nil
}

// triangleNodes is the Figure 1 machine size of the triangle-rpc cell.
const triangleNodes = 32

func prepareTriangle(s int64, rec *spanRecorder, parent int) (*plan, error) {
	cfg := triangle.Config{Side: 6, Empty: -1, Seed: s}
	sp := rec.begin("reference solve", parent)
	ref := cfg.BoardCounts()
	rec.end(sp)

	sp = rec.begin("warm-up", parent)
	wcfg := triangle.Config{Side: 5, Empty: -1, Seed: s}
	warm := wcfg.BoardCounts()
	res, err := triangle.Run(apps.ORPC, triangleNodes, wcfg)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if res.Answer != warm.Solutions {
		return nil, fmt.Errorf("warm-up: %d solutions, sequential %d", res.Answer, warm.Solutions)
	}

	name := fmt.Sprintf("triangle/ORPC/%d", triangleNodes)
	return &plan{width: 1, cells: []cell{{
		name: name,
		run: func(col *obs.Collector) (cellOut, error) {
			h := &hook{col: col}
			c := cfg
			c.Observe = h.observe
			res, err := triangle.Run(apps.ORPC, triangleNodes, c)
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{sig: appSig(res), c: h.counters(res)}, nil
		},
		check: func(o cellOut) error {
			if o.c.answer != ref.Solutions {
				return fmt.Errorf("%d solutions, sequential solve %d", o.c.answer, ref.Solutions)
			}
			return goldenCheck("triangle-rpc", s, name, o.sig)
		},
	}}}, nil
}

// kvLatBounds are the latency buckets of the benchmark's kv probe, the
// service's SLO levels.
var kvLatBounds = []sim.Duration{
	sim.Micros(10), sim.Micros(30), sim.Micros(100), sim.Micros(300),
	sim.Micros(1000), sim.Micros(3000), sim.Micros(10000), sim.Micros(30000),
	sim.Micros(100000),
}

// kvProbe records request latencies (arrival to answer, so a client's
// backlog counts) and forwards to the collector on traced passes.
type kvProbe struct {
	h   *obs.Histogram
	col *obs.Collector
}

func (p *kvProbe) RequestDone(t sim.Time, client int, op kv.Op, out kv.Outcome, lat sim.Duration) {
	if out != kv.OutcomeDrop {
		p.h.Observe(client, lat)
	}
	if p.col != nil {
		p.col.RequestDone(t, client, op, out, lat)
	}
}

func (p *kvProbe) ServerShed(t sim.Time, server, depth int) {
	if p.col != nil {
		p.col.ServerShed(t, server, depth)
	}
}

// kvCellSpec is one kv-overload cell.
type kvCellSpec struct {
	name  string
	shape func(*kv.Config)
}

const (
	kvServers = 4
	kvClients = 48
)

func kvSpecs() []kvCellSpec {
	steady := func(sys apps.System, rateX float64) func(*kv.Config) {
		return func(c *kv.Config) { c.System, c.RateX = sys, rateX }
	}
	readHeavy := func(cores int) func(*kv.Config) {
		return func(c *kv.Config) {
			c.System, c.RateX, c.Cores = apps.ORPC, 2, cores
			c.ZipfS = 1.1
			c.MixGet, c.MixPut, c.MixCas = 900, 60, 40
			c.WorkGet = sim.Micros(8)
			c.HandlerBudget = sim.Micros(24)
		}
	}
	return []kvCellSpec{
		{"kv/steady-0.5x/ORPC", steady(apps.ORPC, 0.5)},
		{"kv/steady-0.5x/TRPC", steady(apps.TRPC, 0.5)},
		{"kv/steady-2x/ORPC", steady(apps.ORPC, 2)},
		{"kv/steady-2x/TRPC", steady(apps.TRPC, 2)},
		{"kv/zipf-read/cores1", readHeavy(1)},
		{"kv/zipf-read/cores4", readHeavy(4)},
		{"kv/zipf-write/cores4", func(c *kv.Config) {
			c.System, c.RateX, c.Cores = apps.ORPC, 1, 4
			c.ZipfS = 1.1
			c.MixGet, c.MixPut, c.MixCas = 200, 600, 100
		}},
		{"kv/lossy/ORPC", func(c *kv.Config) {
			c.System, c.RateX = apps.ORPC, 1
			c.Fault = &cm5.FaultPlan{Seed: 42, DropProb: 0.01, DupProb: 0.005}
		}},
	}
}

// runKV runs one kv cell.
func runKV(seed int64, dur sim.Duration, shape func(*kv.Config), col *obs.Collector) (cellOut, *kv.Stats, error) {
	h := &hook{col: col}
	reg := obs.NewRegistry(kvServers + kvClients)
	probe := &kvProbe{h: reg.NewHistogram("kv/latency", kvLatBounds...), col: col}
	probe.h.Materialize()
	cfg := kv.Config{Servers: kvServers, Clients: kvClients, Seed: seed, Duration: dur, Observe: h.observe, Probe: probe}
	shape(&cfg)
	res, st, err := kv.Run(cfg)
	if err != nil {
		return cellOut{}, nil, err
	}
	p50, p99, p999 := probe.h.Percentiles()
	var fault uint64
	if cfg.Fault != nil {
		fault = st.FaultHash
	}
	sig := fmt.Sprintf("%s arrivals=%d ok=%d drops=%d shed_gu=%d timeout_gu=%d sheds=%d p50=%d p99=%d p999=%d rec=%016x fault=%016x",
		appSig(res), st.Arrivals, st.OK, st.Drops, st.ShedGiveUps, st.TimeoutGiveUps, st.Sheds,
		int64(p50), int64(p99), int64(p999), st.RecordHash, fault)
	c := h.counters(res)
	c.addKV(&st)
	return cellOut{sig: sig, c: c}, &st, nil
}

// checkKV replays the service's own invariants and its arrival ledger.
func checkKV(st *kv.Stats) error {
	if err := kv.CheckInvariants(st); err != nil {
		return err
	}
	if st.Arrivals != st.OK+st.Drops+st.ShedGiveUps+st.TimeoutGiveUps {
		return fmt.Errorf("ledger: %d arrivals != %d ok + %d drops + %d shed give-ups + %d timeout give-ups",
			st.Arrivals, st.OK, st.Drops, st.ShedGiveUps, st.TimeoutGiveUps)
	}
	return nil
}

// kvDuration is the arrival window of every kv-overload cell.
const kvDuration = sim.Duration(12 * sim.Millisecond)

func prepareKV(s int64, rec *spanRecorder, parent int) (*plan, error) {
	// Warm-up: the lossy cell, which passes through every layer the
	// other cells use (reliable transport and fault plan included).
	specs := kvSpecs()
	sp := rec.begin("warm-up", parent)
	_, st, err := runKV(s, kvDuration, specs[len(specs)-1].shape, nil)
	if err == nil {
		err = checkKV(st)
	}
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Each cell's stats, kept from its run for its check. Arrival
	// schedules are a pure function of (seed, client, load), so the ORPC
	// and TRPC cells at one rate must see identical arrivals.
	stats := make(map[string]*kv.Stats)
	p := &plan{width: 1}
	for _, spec := range specs {
		spec := spec
		p.cells = append(p.cells, cell{
			name: spec.name,
			run: func(col *obs.Collector) (cellOut, error) {
				out, st, err := runKV(s, kvDuration, spec.shape, col)
				stats[spec.name] = st
				return out, err
			},
			check: func(o cellOut) error {
				st := stats[spec.name]
				if err := checkKV(st); err != nil {
					return err
				}
				if peer, ok := kvPeer[spec.name]; ok && stats[peer] != nil && st.Arrivals != stats[peer].Arrivals {
					return fmt.Errorf("arrivals %d differ from %s's %d", st.Arrivals, peer, stats[peer].Arrivals)
				}
				return goldenCheck("kv-overload", s, spec.name, o.sig)
			},
		})
	}
	return p, nil
}

// kvPeer pairs each TRPC steady cell with the ORPC cell offered the same
// arrivals.
var kvPeer = map[string]string{
	"kv/steady-0.5x/TRPC": "kv/steady-0.5x/ORPC",
	"kv/steady-2x/TRPC":   "kv/steady-2x/ORPC",
}

// quickExperiment is one member of oamlab's "all" group at quick scale.
type quickExperiment struct {
	name string
	run  func(s exp.Scale) ([]*exp.Table, error)
}

func one(t *exp.Table, err error) ([]*exp.Table, error) { return []*exp.Table{t}, err }

func fig(t *exp.Table, _ []exp.FigRow, err error) ([]*exp.Table, error) {
	return []*exp.Table{t}, err
}

// quickSuite lists the "all" group in oamlab's order.
var quickSuite = []quickExperiment{
	{"table1", func(exp.Scale) ([]*exp.Table, error) { return one(exp.Table1Table(), nil) }},
	{"bulk", func(exp.Scale) ([]*exp.Table, error) { return one(exp.BulkTable(), nil) }},
	{"abortcost", func(exp.Scale) ([]*exp.Table, error) { return one(exp.AbortCostTable(), nil) }},
	{"fig1", func(s exp.Scale) ([]*exp.Table, error) { return fig(exp.Fig1Triangle(s)) }},
	{"fig2", func(s exp.Scale) ([]*exp.Table, error) { return fig(exp.Fig2TSP(s)) }},
	{"table2", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.Table2(s)) }},
	{"fig3", func(s exp.Scale) ([]*exp.Table, error) { return fig(exp.Fig3SOR(s)) }},
	{"fig4", func(s exp.Scale) ([]*exp.Table, error) { return fig(exp.Fig4Water(s)) }},
	{"table3", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.Table3(s)) }},
	{"ablation", func(exp.Scale) ([]*exp.Table, error) { return one(exp.AblationTable(), nil) }},
	{"appablation", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.AppAblationTable(s.Quick)) }},
	{"schedpolicy", func(exp.Scale) ([]*exp.Table, error) { return one(exp.SchedPolicyTable(), nil) }},
	{"budget", func(exp.Scale) ([]*exp.Table, error) { return one(exp.BudgetTable(), nil) }},
	{"buffering", func(exp.Scale) ([]*exp.Table, error) { return one(exp.BufferingTable(), nil) }},
	{"interrupts", func(exp.Scale) ([]*exp.Table, error) { return one(exp.InterruptsTable(), nil) }},
	{"sorsizes", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.SORSizesTable(s.Quick)) }},
	{"chaos", func(s exp.Scale) ([]*exp.Table, error) {
		a, err := exp.ChaosTable(s)
		if err != nil {
			return nil, err
		}
		b, err := exp.ChaosNodeTable(s)
		return []*exp.Table{a, b}, err
	}},
	{"sched", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.SchedTable(s)) }},
	{"kv", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.KVTable(s)) }},
	{"kvmulti", func(s exp.Scale) ([]*exp.Table, error) { return one(exp.KVMultiactiveTable(s.Quick)) }},
}

// tableHash is the FNV-1a hash of the tables' printed bytes.
func tableHash(ts []*exp.Table) uint64 {
	var buf bytes.Buffer
	for _, t := range ts {
		t.Print(&buf)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// prepareQuickSuite builds the quick suite. Its experiments keep the
// paper's fixed configurations and seeds, so the workload seed does not
// change its inputs and its pinned table hashes apply on every seed.
func prepareQuickSuite(_ int64, rec *spanRecorder, parent int) (*plan, error) {
	// Warm-up: the Figure 1 experiment, which runs app cells through
	// the harness on every worker.
	scale := exp.Scale{Quick: true}
	sp := rec.begin("warm-up", parent)
	_, _, err := exp.Fig1Triangle(scale)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p := &plan{events: quickSuiteEvents, width: exp.Workers}
	for _, e := range quickSuite {
		e := e
		name := "exp/" + e.name
		p.cells = append(p.cells, cell{
			name: name,
			run: func(*obs.Collector) (cellOut, error) {
				ts, err := e.run(scale)
				if err != nil {
					return cellOut{}, err
				}
				return cellOut{sig: fmt.Sprintf("tables=%016x", tableHash(ts))}, nil
			},
			check: func(o cellOut) error { return goldenCheck("quick-suite", 0, name, o.sig) },
		})
	}
	return p, nil
}

package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/sim"
)

// Scale selects full paper-size experiments or quick reduced ones.
type Scale struct {
	// Quick shrinks the problem sizes and node counts so the whole suite
	// runs in seconds (for tests and default benchmarks).
	Quick bool
	// MaxP caps the largest machine size (0 = the scale's default).
	MaxP int
}

func (s Scale) procs(def []int) []int {
	max := s.MaxP
	if max == 0 {
		if s.Quick {
			max = 16
		} else {
			max = def[len(def)-1]
		}
	}
	var out []int
	for _, p := range def {
		if p <= max {
			out = append(out, p)
		}
	}
	return out
}

// FigRow is one curve point of a runtime/speedup figure.
type FigRow struct {
	System   string
	Nodes    int
	Runtime  sim.Duration
	Speedup  float64
	OAMs     uint64
	SuccPct  float64
	LiveStk  float64
	Threads  uint64
	BulkSent uint64
}

// figTable renders curve points in the two-panel spirit of the figures:
// runtime and speedup per system and node count.
func figTable(title string, rows []FigRow, notes ...string) *Table {
	t := &Table{
		Title: title,
		Columns: []string{"System", "P", "Runtime(s)", "Speedup",
			"OAMs", "Succ%", "LiveStack%", "Threads"},
		Notes: notes,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.System, itoa(r.Nodes), seconds(r.Runtime), f2(r.Speedup),
			u64(r.OAMs), f1(r.SuccPct), f1(r.LiveStk), u64(r.Threads),
		})
	}
	return t
}

// Fig1Triangle reproduces Figure 1: the Triangle puzzle on 1..128
// processors under AM, ORPC, and TRPC.
func Fig1Triangle(s Scale) (*Table, []FigRow, error) {
	cfg := triangle.Config{Side: 6, Empty: -1, Seed: 101, Shards: Shards}
	if s.Quick {
		cfg.Side = 5
	}
	seq := triangle.SeqTime(cfg.BoardCounts())
	procs := s.procs([]int{1, 2, 4, 8, 16, 32, 64, 128})
	// Each (system, P) cell is an independent simulation with its own
	// engine; fan out across the worker pool and merge by index so row
	// order matches the sequential loops exactly.
	rows := make([]FigRow, len(apps.Systems)*len(procs))
	err := forEach(len(rows), func(i int) error {
		sys, p := apps.Systems[i/len(procs)], procs[i%len(procs)]
		res, err := triangle.Run(sys, p, cfg)
		if err != nil {
			return err
		}
		rows[i] = FigRow{
			System: sys.String(), Nodes: p,
			Runtime: res.Elapsed, Speedup: res.Speedup(seq),
			OAMs: res.OAMs, SuccPct: res.SuccessPercent(),
			LiveStk: res.LiveStackPct, Threads: res.ThreadsCreated,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := figTable(
		fmt.Sprintf("Figure 1: Triangle puzzle (side %d, seq %.1fs)", cfg.Side, seq.Seconds()),
		rows,
		"paper: ORPC and AM ~3x faster than TRPC (2.9x and 3.2x at 128)",
	)
	return t, rows, nil
}

// Fig2TSP reproduces Figure 2 (runtime/speedup vs slaves) and its data
// also feeds Table 2.
func Fig2TSP(s Scale) (*Table, []FigRow, error) {
	cfg := tsp.Config{Cities: 12, Seed: 102, Shards: Shards}
	slavesList := []int{1, 2, 4, 8, 16, 32, 64, 127}
	if s.Quick {
		cfg.Cities = 10
	}
	slavesList = s.procs(slavesList)
	seq := tsp.SeqTime(tsp.NewProblem(cfg.Cities, cfg.Seed).SolveSeq())
	rows := make([]FigRow, len(apps.Systems)*len(slavesList))
	err := forEach(len(rows), func(i int) error {
		sys, sl := apps.Systems[i/len(slavesList)], slavesList[i%len(slavesList)]
		res, err := tsp.Run(sys, sl, cfg)
		if err != nil {
			return err
		}
		rows[i] = FigRow{
			System: sys.String(), Nodes: sl,
			Runtime: res.Elapsed, Speedup: res.Speedup(seq),
			OAMs: res.OAMs, SuccPct: res.SuccessPercent(),
			LiveStk: res.LiveStackPct, Threads: res.ThreadsCreated,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := figTable(
		fmt.Sprintf("Figure 2: TSP (%d cities, seq %.1fs); P = number of slaves", cfg.Cities, seq.Seconds()),
		rows,
		"paper: all systems equal to 16 slaves; TRPC collapses at 64; ORPC survives to 127",
	)
	return t, rows, nil
}

// Table2 reproduces Table 2: the percentage of TSP GetJob OAMs that
// succeeded, against slave count.
func Table2(s Scale) (*Table, error) {
	_, rows, err := Fig2TSP(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 2: Optimistic Active Message successes in TSP (ORPC)",
		Columns: []string{"# Slaves", "# OAMs", "Successes", "% Successes"},
		Notes: []string{
			"paper: ~100% through 64 slaves, 0.0% at 127 (master queue always locked)",
		},
	}
	for _, r := range rows {
		if r.System != apps.ORPC.String() {
			continue
		}
		succ := uint64(float64(r.OAMs)*r.SuccPct/100 + 0.5)
		t.Rows = append(t.Rows, []string{itoa(r.Nodes), u64(r.OAMs), u64(succ), f1(r.SuccPct)})
	}
	return t, nil
}

// Fig3SOR reproduces Figure 3: SOR on 1..128 processors.
func Fig3SOR(s Scale) (*Table, []FigRow, error) {
	cfg := sor.DefaultConfig()
	if s.Quick {
		cfg = sor.Config{Rows: 66, Cols: 16, Iters: 30, Eps: 1e-9, Seed: 11}
	}
	cfg.Shards = Shards
	seqr := sor.SolveSeq(cfg)
	procs := s.procs([]int{1, 2, 4, 8, 16, 32, 64, 128})
	variants := []struct {
		name string
		run  func(p int) (apps.Result, error)
	}{
		{"AM", func(p int) (apps.Result, error) { return sor.Run(apps.AM, p, cfg) }},
		{"ORPC", func(p int) (apps.Result, error) { return sor.Run(apps.ORPC, p, cfg) }},
		{"TRPC", func(p int) (apps.Result, error) { return sor.Run(apps.TRPC, p, cfg) }},
		// The paper's suggested extension: ORPC with sender-specified
		// data destinations, which should match AM.
		{"ORPC-ssd", func(p int) (apps.Result, error) { return sor.RunSenderSpecified(p, cfg) }},
	}
	rows := make([]FigRow, len(variants)*len(procs))
	err := forEach(len(rows), func(i int) error {
		v, p := variants[i/len(procs)], procs[i%len(procs)]
		res, err := v.run(p)
		if err != nil {
			return err
		}
		if res.Answer != seqr.Checksum {
			return fmt.Errorf("sor/%v/%d: wrong grid", v.name, p)
		}
		rows[i] = FigRow{
			System: v.name, Nodes: p,
			Runtime: res.Elapsed, Speedup: res.Speedup(seqr.Time),
			OAMs: res.OAMs, SuccPct: res.SuccessPercent(),
			LiveStk: res.LiveStackPct, Threads: res.ThreadsCreated,
			BulkSent: res.BulkSent,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := figTable(
		fmt.Sprintf("Figure 3: SOR (%dx%d grid, %d iters, seq %.1fs)",
			cfg.Rows, cfg.Cols, cfg.Iters, seqr.Time.Seconds()),
		rows,
		"paper: ORPC ~8% faster than TRPC at 128; AM faster by one data copy; no ORPC aborts",
		"ORPC-ssd = sender-specified destinations, the paper's suggested fix; matches AM",
	)
	return t, rows, nil
}

// WaterVariant names one of the five Figure 4 configurations.
type WaterVariant struct {
	Name    string
	Sys     apps.System
	Barrier bool
}

// WaterVariants lists the five configurations of Figure 4.
var WaterVariants = []WaterVariant{
	{"AM w/barrier", apps.AM, true},
	{"ORPC w/barrier", apps.ORPC, true},
	{"TRPC w/barrier", apps.TRPC, true},
	{"ORPC", apps.ORPC, false},
	{"TRPC", apps.TRPC, false},
}

// Fig4Water reproduces Figure 4 (five variants) and feeds Table 3. Per
// the paper, the first iteration is discarded: the steady per-iteration
// time is (T(iters) - T(1)) / (iters - 1).
func Fig4Water(s Scale) (*Table, []FigRow, error) {
	cfg := water.DefaultConfig()
	cfg.Seed = 103
	cfg.Shards = Shards
	procs := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if s.Quick {
		cfg.Mols = 64
	}
	procs = s.procs(procs)
	seq := water.SolveSeq(water.Config{Mols: cfg.Mols, Iters: 1, Seed: cfg.Seed})
	rows := make([]FigRow, len(WaterVariants)*len(procs))
	err := forEach(len(rows), func(i int) error {
		v, p := WaterVariants[i/len(procs)], procs[i%len(procs)]
		resN, err := water.Run(v.Sys, p, v.Barrier, cfg)
		if err != nil {
			return err
		}
		one := cfg
		one.Iters = 1
		res1, err := water.Run(v.Sys, p, v.Barrier, one)
		if err != nil {
			return err
		}
		perIter := (resN.Elapsed - res1.Elapsed) / sim.Duration(cfg.Iters-1)
		rows[i] = FigRow{
			System: v.Name, Nodes: p,
			Runtime: perIter,
			Speedup: float64(seq.TimePerIter) / float64(perIter),
			OAMs:    resN.OAMs, SuccPct: resN.SuccessPercent(),
			LiveStk: resN.LiveStackPct, Threads: resN.ThreadsCreated,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := figTable(
		fmt.Sprintf("Figure 4: Water (%d molecules, per-iteration, seq %.1fs/iter)",
			cfg.Mols, seq.TimePerIter.Seconds()),
		rows,
		"paper: all variants within ~1% at 128 except barrier-free ORPC ~10% slower",
	)
	return t, rows, nil
}

// Table3 reproduces Table 3: OAM success percentage in barrier-free
// ORPC Water, against machine size.
func Table3(s Scale) (*Table, error) {
	cfg := water.DefaultConfig()
	cfg.Seed = 103
	procs := []int{2, 4, 8, 16, 32, 64, 128}
	if s.Quick {
		cfg.Mols = 64
	}
	procs = s.procs(procs)
	t := &Table{
		Title:   "Table 3: Optimistic Active Message successes in Water (ORPC, no barriers)",
		Columns: []string{"# Processors", "# OAMs", "Successes", "% Successes"},
		Notes: []string{
			"paper: 100% at 2-16 processors, 99.6-99.8% at 32-128",
		},
	}
	t.Rows = make([][]string, len(procs))
	err := forEach(len(procs), func(i int) error {
		p := procs[i]
		res, err := water.Run(apps.ORPC, p, false, cfg)
		if err != nil {
			return err
		}
		t.Rows[i] = []string{
			itoa(p), u64(res.OAMs), u64(res.Successes), f1(res.SuccessPercent()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

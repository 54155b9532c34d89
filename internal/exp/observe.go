package exp

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/sched"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ObserveSpec selects one observed application run.
type ObserveSpec struct {
	App   string      // triangle | tsp | sor | water | sched | kv
	Sys   apps.System // communication system (default ORPC)
	Nodes int         // machine size (0 = the app's default)
	Quick bool        // shrink the problem like the quick figure runs
}

// ParseSystem maps a -sys flag value to an apps.System.
func ParseSystem(s string) (apps.System, error) {
	switch s {
	case "", "orpc", "ORPC":
		return apps.ORPC, nil
	case "am", "AM":
		return apps.AM, nil
	case "trpc", "TRPC":
		return apps.TRPC, nil
	}
	return 0, fmt.Errorf("unknown system %q (am, orpc, trpc)", s)
}

// ObservedApps lists the applications RunObserved accepts, sorted.
func ObservedApps() []string {
	names := make([]string, 0, len(observedRuns))
	for n := range observedRuns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// observedRuns maps app name to a runner that wires the collector in
// (Attach for the universe/RPC layers, plus app-specific probes where the
// app defines one). Seeds and sizes match the corresponding figure
// experiments, so a trace shows the same schedule the figures measure.
var observedRuns = map[string]func(spec ObserveSpec, c *obs.Collector) (apps.Result, error){
	"triangle": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		cfg := triangle.Config{Side: 6, Empty: -1, Seed: 101, Observe: c.Attach}
		if spec.Quick {
			cfg.Side = 5
		}
		return triangle.Run(spec.Sys, spec.Nodes, cfg)
	},
	"tsp": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		cfg := tsp.Config{Cities: 12, Seed: 102, Observe: c.Attach}
		if spec.Quick {
			cfg.Cities = 10
		}
		// -p counts processors; the master occupies node 0.
		return tsp.Run(spec.Sys, spec.Nodes-1, cfg)
	},
	"sor": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		cfg := sor.DefaultConfig()
		if spec.Quick {
			cfg = sor.Config{Rows: 66, Cols: 16, Iters: 30, Eps: 1e-9, Seed: 11}
		}
		cfg.Observe = c.Attach
		return sor.Run(spec.Sys, spec.Nodes, cfg)
	},
	"water": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		cfg := water.DefaultConfig()
		cfg.Seed = 103
		if spec.Quick {
			cfg.Mols = 64
		}
		cfg.Observe = c.Attach
		return water.Run(spec.Sys, spec.Nodes, false, cfg)
	},
	"sched": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		// The control plane always runs ORPC; spec.Sys is ignored. The
		// collector doubles as the control-plane probe, so the trace grows
		// a "sched" track of heartbeats, outages, and lease spans.
		cfg := sched.Config{Jobs: 16, Seed: 104, Observe: c.Attach, Probe: c}
		if spec.Quick {
			cfg.Jobs = 8
		}
		res, _, err := sched.Run(spec.Nodes-1, cfg)
		return res, err
	},
	"kv": func(spec ObserveSpec, c *obs.Collector) (apps.Result, error) {
		// -p counts total nodes; a quarter (at least one) serve, the rest
		// are clients. The collector doubles as the service probe, so the
		// trace grows a "kv" track of sheds and failed arrivals and the
		// metrics report carries the SLO latency histogram.
		servers := spec.Nodes / 4
		if servers < 1 {
			servers = 1
		}
		cfg := kv.Config{
			System:  spec.Sys,
			Seed:    105,
			Servers: servers,
			Clients: spec.Nodes - servers,
			Cores:   Cores,
			Observe: c.Attach,
			Probe:   c,
		}
		if spec.Quick {
			cfg.Duration = sim.Micros(5000)
		}
		res, _, err := kv.Run(cfg)
		return res, err
	},
}

// RunObserved runs one application with an obs.Collector attached and
// returns the collector (holding whichever sinks opts selected) alongside
// the application result.
func RunObserved(spec ObserveSpec, opts obs.Options) (*obs.Collector, apps.Result, error) {
	run, ok := observedRuns[spec.App]
	if !ok {
		return nil, apps.Result{}, fmt.Errorf("unknown app %q (have %v)", spec.App, ObservedApps())
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	if (spec.App == "tsp" || spec.App == "sched" || spec.App == "kv") && spec.Nodes < 2 {
		return nil, apps.Result{}, fmt.Errorf("%s needs at least 2 nodes (a master and a worker)", spec.App)
	}
	c := obs.New(opts)
	res, err := run(spec, c)
	if err != nil {
		return nil, apps.Result{}, err
	}
	return c, res, nil
}

package exp

import (
	"fmt"

	"repro/internal/apps/sched"
	"repro/internal/cm5"
	"repro/internal/sim"
)

// SchedRow is one cell of the control-plane chaos grid: a scheduler run
// under one fault mix at one (lease timeout, heartbeat period) point,
// with its event record replayed through sched.CheckInvariants. A row
// only exists if the safety contract held and every job's completion was
// accepted — a violation fails the whole sweep instead of producing a
// row.
type SchedRow struct {
	Fault       string // fault-mix name
	Jobs        int
	Lease       sim.Duration // lease timeout
	Beat        sim.Duration // heartbeat period
	Elapsed     sim.Duration
	Placements  uint64
	Migrations  uint64 // reclaims off declared-dead agents
	Expiries    uint64 // lease-timeout reclaims
	PlaceFails  uint64 // reclaims after failed/refused placement calls
	Dead        uint64 // detector death verdicts
	Recovered   uint64 // declared-dead agents readmitted
	StaleComps  uint64 // completions fenced off (wrong epoch or agent)
	DupComps    uint64 // re-deliveries of accepted completions
	Retransmits uint64
	GiveUps     uint64 // runners that could not report their completion
	Events      int    // control-plane event record length
	RecordHash  uint64 // FNV of the event record; shard-count invariant
	FaultHash   uint64 // fault-trace hash; 0 for the clean mix
}

// schedMix is one named fault scenario of the grid. The job table is
// per-mix: the fault-free and lossy mixes run a generated batch of short
// jobs, while the crash and flap mixes run fewer, longer jobs so the
// fault window is guaranteed to catch live leases.
type schedMix struct {
	name  string
	specs []sched.JobSpec
	plan  func() *cm5.FaultPlan // fresh per cell; nil result = clean network
}

// schedMixes builds the fault dimension of the grid for a given agent
// count. Every mix leaves a recovery path — surviving agents hold enough
// inventory and every partition heals — so the sweep checks liveness
// (all jobs complete), not only safety.
func schedMixes(agents int, quick bool) []schedMix {
	batch := sched.GenJobs(10, 5)
	if quick {
		batch = batch[:8]
	}
	long := make([]sched.JobSpec, 6)
	for i := range long {
		long[i] = sched.JobSpec{CPU: 2, Mem: 2, Dur: sim.Micros(4000)}
	}
	// One 6 ms job per agent: long enough that the flap window catches
	// live leases, short enough that a migrated job's effective runtime
	// (compute plus per-slice switch costs and heartbeat wakes) clears
	// the tightest lease timeout of the grid once it runs alone.
	wide := []sched.JobSpec{
		{CPU: 4, Mem: 4, Dur: sim.Micros(6000)},
		{CPU: 4, Mem: 4, Dur: sim.Micros(6000)},
		{CPU: 4, Mem: 4, Dur: sim.Micros(6000)},
	}
	from, to := sim.Time(2*sim.Millisecond), sim.Time(14*sim.Millisecond)
	return []schedMix{
		{"clean", batch, func() *cm5.FaultPlan { return nil }},
		{"lossy", batch, func() *cm5.FaultPlan {
			return &cm5.FaultPlan{Seed: 42, DropProb: 0.02, DupProb: 0.01}
		}},
		{"crash", long, func() *cm5.FaultPlan {
			// The last agent fail-stops while holding leases; its jobs
			// must migrate to the survivors.
			return &cm5.FaultPlan{Seed: 9, Crashes: []cm5.Crash{
				{Node: agents, At: sim.Time(2 * sim.Millisecond)}}}
		}},
		{"flap", wide, func() *cm5.FaultPlan {
			// Agent 1 is cut off from the scheduler in both directions for
			// a window, then heals: declared dead mid-window, readmitted
			// after, and its pre-partition lease's completion fenced off.
			return &cm5.FaultPlan{Seed: 11, Partitions: []cm5.Partition{
				{Src: 1, Dst: 0, From: from, To: to},
				{Src: 0, Dst: 1, From: from, To: to},
			}}
		}},
	}
}

// Sched sweeps the control-plane chaos grid: fault mix x lease timeout x
// heartbeat period. Every cell runs the full scheduler control plane
// (leases, heartbeats, failure detection, migration, epoch fencing) and
// then replays its event record through sched.CheckInvariants, asserting
// placed-exactly-once, monotonic lease epochs, no placement on
// detector-declared-dead agents, and — since every mix leaves a recovery
// path — that all jobs eventually completed. Any violation fails the
// sweep.
func Sched(scale Scale) ([]SchedRow, error) {
	agents := 3
	if scale.MaxP > 0 && agents+1 > scale.MaxP {
		agents = scale.MaxP - 1
		if agents < 2 {
			agents = 2 // the crash mix needs a survivor
		}
	}
	leases := []sim.Duration{sim.Micros(10000), sim.Micros(20000)}
	beats := []sim.Duration{sim.Micros(250), sim.Micros(500)}
	if scale.Quick {
		beats = beats[1:]
	}
	mixes := schedMixes(agents, scale.Quick)

	type cell struct {
		mix   int
		lease sim.Duration
		beat  sim.Duration
	}
	var cells []cell
	for mi := range mixes {
		for _, l := range leases {
			for _, b := range beats {
				cells = append(cells, cell{mi, l, b})
			}
		}
	}

	rows := make([]SchedRow, len(cells))
	err := forEach(len(cells), func(i int) error {
		cl := cells[i]
		mx := mixes[cl.mix]
		label := fmt.Sprintf("sched %s lease=%v hb=%v", mx.name, cl.lease, cl.beat)
		plan := mx.plan()
		cfg := sched.Config{
			Specs: mx.specs, Seed: 5, Shards: Shards, Cores: Cores,
			Fault:          plan,
			LeaseTimeout:   cl.lease,
			HeartbeatEvery: cl.beat,
		}
		res, st, err := sched.Run(agents, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if ierr := sched.CheckInvariants(st.Record, len(mx.specs), agents, true); ierr != nil {
			return fmt.Errorf("%s: %w", label, ierr)
		}
		if st.Accepted != uint64(len(mx.specs)) {
			return fmt.Errorf("%s: accepted %d completions, want %d",
				label, st.Accepted, len(mx.specs))
		}
		rows[i] = SchedRow{
			Fault: mx.name, Jobs: len(mx.specs),
			Lease: cl.lease, Beat: cl.beat,
			Elapsed:    res.Elapsed,
			Placements: st.Placements, Migrations: st.Migrations,
			Expiries: st.Expiries, PlaceFails: st.PlaceFails,
			Dead: st.DeadDeclared, Recovered: st.Recovered,
			StaleComps: st.StaleCompletions, DupComps: st.DupCompletions,
			Retransmits: st.Rel.Retransmits, GiveUps: st.CompleteGiveUps,
			Events:     len(st.Record),
			RecordHash: st.RecordHash,
		}
		if plan != nil {
			rows[i].FaultHash = st.FaultHash
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SchedTable formats the control-plane chaos grid.
func SchedTable(scale Scale) (*Table, error) {
	rows, err := Sched(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Scheduler control plane under chaos: fault mix x lease timeout x heartbeat period, invariants replay-checked",
		Columns: []string{"Fault", "Jobs", "Lease(ms)", "HB(us)", "Elapsed(ms)",
			"Placed", "Migr", "Expire", "PFail", "Dead", "Recov",
			"Stale", "Dup", "Retx", "GiveUp", "Events", "RecHash", "FaultHash"},
		Notes: []string{
			"every cell's event record passed CheckInvariants: placed-exactly-once,",
			"monotonic lease epochs, no placement on dead agents, all jobs completed",
			"crash kills the last agent at 2 ms; flap partitions agent 1 for [2 ms, 14 ms)",
			"RecHash (control-plane event record) and FaultHash (fault trace) are",
			"bit-identical at any shard count; FaultHash is 0 for the clean mix",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Fault, itoa(r.Jobs),
			f1(float64(r.Lease) / 1e6), f1(float64(r.Beat) / 1e3),
			fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6),
			u64(r.Placements), u64(r.Migrations), u64(r.Expiries), u64(r.PlaceFails),
			u64(r.Dead), u64(r.Recovered), u64(r.StaleComps), u64(r.DupComps),
			u64(r.Retransmits), u64(r.GiveUps), itoa(r.Events),
			fmt.Sprintf("%016x", r.RecordHash),
			fmt.Sprintf("%016x", r.FaultHash),
		})
	}
	return t, nil
}

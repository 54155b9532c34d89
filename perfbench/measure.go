package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/obs"
)

// cell is one simulated run of a workload: run executes it (attaching
// col, when non-nil, through the app's Observe hook) and returns its
// virtual outputs and layer counters; check validates them.
type cell struct {
	name  string
	run   func(col *obs.Collector) (cellOut, error)
	check func(cellOut) error
}

// cellOut is what one cell run leaves behind.
type cellOut struct {
	// sig is the canonical text of the cell's virtual-time outputs. It
	// must equal the pinned golden on the paper seed and must repeat
	// exactly on every pass.
	sig string
	c   counters
}

// plan is a prepared workload: its cells plus the failures recorded
// against it so far.
type plan struct {
	cells []cell
	// events, when positive, is the pass's simulated event total for
	// workloads whose engines the benchmark cannot reach (see
	// quickSuiteEvents); otherwise events are summed from the cells.
	events uint64
	// width is how many cells the workload runs at once.
	width    int
	failures []string
	sigs     map[string]string // first pass's outputs, by cell
}

// cellTime is one cell's host cost in one pass.
type cellTime struct {
	wall, cpu float64
}

// measurement is one measured phase: whole passes over the plan's cells
// until the time budget is spent.
type measurement struct {
	plan     *plan
	passWall []float64
	passCPU  []float64
	events   uint64 // per pass (deterministic)
	cells    [][]cellTime
	cellEvs  []uint64 // per cell, first pass
	counters counters // one pass's layer counters (deterministic)
	gc       gcDelta  // over the whole phase
	passes   int

	attempted, failed int
}

// gcDelta is the allocator and collector activity of a phase.
type gcDelta struct {
	allocBytes, allocs, cycles uint64
	gcCPU, totalCPU            float64
}

type gcPoint struct {
	ms           runtime.MemStats
	gcCPU, total float64
}

func readGC() gcPoint {
	var p gcPoint
	runtime.ReadMemStats(&p.ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	p.gcCPU, p.total = s[0].Value.Float64(), s[1].Value.Float64()
	return p
}

// measure runs whole passes over p's cells for about budget seconds
// (at least one pass); traced passes attach an obs collector to every
// cell. A failing cell stops the phase after its pass.
func measure(p *plan, budget float64, traced bool, rec *spanRecorder) *measurement {
	m := &measurement{plan: p, cells: make([][]cellTime, len(p.cells))}
	phase := "plain"
	if traced {
		phase = "traced"
	}
	g0 := readGC()
	start := time.Now()
	// Start another pass only while it would end no more than half a
	// pass past the budget, so a run's length stays near the budget
	// whatever the pass length.
	var last float64
	for m.passes == 0 || time.Since(start).Seconds()+last/2 < budget {
		ps := rec.begin(fmt.Sprintf("%s/pass#%d", phase, m.passes), -1)
		t0, c0 := time.Now(), cpuSeconds()
		var events uint64
		var sum counters
		failedBefore := m.failed
		for i, c := range p.cells {
			var col *obs.Collector
			if traced {
				col = obs.New(obs.Options{Metrics: true, Profile: true})
			}
			cs := rec.begin("run "+c.name, ps)
			w0, u0 := time.Now(), cpuSeconds()
			out, err := c.run(col)
			m.cells[i] = append(m.cells[i], cellTime{time.Since(w0).Seconds(), cpuSeconds() - u0})
			rec.end(cs)
			vs := rec.begin("verify "+c.name, ps)
			m.attempted++
			if err == nil {
				err = c.check(out)
			}
			if err == nil {
				err = p.repeatCheck(c.name, out.sig)
			}
			rec.end(vs)
			if err != nil {
				m.failed++
				p.failures = append(p.failures, fmt.Sprintf("%s: %v", c.name, err))
			}
			events += out.c.events
			sum.add(out.c)
			if m.passes == 0 {
				m.cellEvs = append(m.cellEvs, out.c.events)
			}
		}
		last = time.Since(t0).Seconds()
		m.passWall = append(m.passWall, last)
		m.passCPU = append(m.passCPU, cpuSeconds()-c0)
		rec.end(ps)
		if m.passes == 0 {
			m.events, m.counters = events, sum
			if p.events > 0 {
				m.events = p.events
			}
		}
		m.passes++
		if m.failed > failedBefore {
			break
		}
	}
	g1 := readGC()
	m.gc = gcDelta{
		allocBytes: g1.ms.TotalAlloc - g0.ms.TotalAlloc,
		allocs:     g1.ms.Mallocs - g0.ms.Mallocs,
		cycles:     uint64(g1.ms.NumGC - g0.ms.NumGC),
		gcCPU:      g1.gcCPU - g0.gcCPU,
		totalCPU:   g1.total - g0.total,
	}
	return m
}

// repeatCheck asserts that a cell's virtual outputs are the same on
// every pass of the run.
func (p *plan) repeatCheck(name, sig string) error {
	if p.sigs == nil {
		p.sigs = make(map[string]string)
	}
	first, ok := p.sigs[name]
	if !ok {
		p.sigs[name] = sig
		return nil
	}
	if sig != first {
		return fmt.Errorf("outputs changed between passes:\n  first %s\n  now   %s", first, sig)
	}
	return nil
}

func (m *measurement) result() result {
	return result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
}

func (m *measurement) wallS() float64 { return median(m.passWall) }
func (m *measurement) cpuS() float64  { return median(m.passCPU) }

// eventsPerS is the median over passes of simulated events per host
// second.
func (m *measurement) eventsPerS() float64 {
	rates := make([]float64, len(m.passWall))
	for i, w := range m.passWall {
		rates[i] = float64(m.events) / w
	}
	return median(rates)
}

// passSummary is one phase in the run report.
type passSummary struct {
	Phase  string        `json:"phase"`
	WallS  []float64     `json:"pass_wall_s"`
	CPUS   []float64     `json:"pass_cpu_s"`
	Events uint64        `json:"events_per_pass"`
	Cells  []cellSummary `json:"cells"`
}

type cellSummary struct {
	Name    string    `json:"name"`
	WallS   float64   `json:"median_wall_s"`
	CPUS    float64   `json:"median_cpu_s"`
	Walls   []float64 `json:"wall_s"`
	Events  uint64    `json:"events"`
	Outputs string    `json:"outputs"`
}

func (m *measurement) summary(phase string) passSummary {
	ps := passSummary{Phase: phase, WallS: m.passWall, CPUS: m.passCPU, Events: m.events}
	for i, c := range m.plan.cells {
		var walls, cpus []float64
		for _, t := range m.cells[i] {
			walls = append(walls, t.wall)
			cpus = append(cpus, t.cpu)
		}
		ps.Cells = append(ps.Cells, cellSummary{
			Name: c.name, WallS: median(walls), CPUS: median(cpus), Walls: walls,
			Events: m.cellEvs[i], Outputs: m.plan.sigs[c.name],
		})
	}
	return ps
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one timed region of the run, in nanoseconds since the run
// began. Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; the run report writes them out
// at exit.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func (r *spanRecorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNs: time.Since(r.origin).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	r.spans[i].EndNs = time.Since(r.origin).Nanoseconds()
}

package oam

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/threads"
)

// recProbe records every dispatch probe hook. Each Settled is paired with
// its node's innermost open Attempt; a strategy that differs between the
// two counts as a mismatch.
type recProbe struct {
	open       map[int][]Strategy
	attempts   []Strategy
	settled    []Strategy
	mismatches int
	occupancy  int // CoreOccupancy calls
	depth      int // CompatQueueDepth calls
}

func newRecProbe() *recProbe { return &recProbe{open: map[int][]Strategy{}} }

func (p *recProbe) Attempt(_ sim.Time, node int, _ string, s Strategy) {
	p.open[node] = append(p.open[node], s)
	p.attempts = append(p.attempts, s)
}

func (p *recProbe) Settled(_ sim.Time, node int, _ string, _ Outcome, _ Reason, s Strategy) {
	open := p.open[node]
	if len(open) == 0 || open[len(open)-1] != s {
		p.mismatches++
	}
	if len(open) > 0 {
		p.open[node] = open[:len(open)-1]
	}
	p.settled = append(p.settled, s)
}

func (p *recProbe) CoreOccupancy(sim.Time, int, int)    { p.occupancy++ }
func (p *recProbe) CompatQueueDepth(sim.Time, int, int) { p.depth++ }

// count returns how many of ss equal s.
func count(ss []Strategy, s Strategy) int {
	n := 0
	for _, x := range ss {
		if x == s {
			n++
		}
	}
	return n
}

// TestDispatchContract pins what every dispatch promises, at one core and
// at two, under each strategy. Odd tags overrun the handler budget and
// abort; even tags commit inside the handler.
func TestDispatchContract(t *testing.T) {
	const calls = 6
	for _, cores := range []int{1, 2} {
		for _, strat := range []Strategy{Rerun, Continuation, Nack} {
			t.Run(fmt.Sprintf("cores=%d/%v", cores, strat), func(t *testing.T) {
				tab := NewCompatTable(1)
				tab.Allow(0, 0)
				p := newRecProbe()
				r := newMultiRig(t, tab, Options{Strategy: strat, Cores: cores, HandlerBudget: sim.Micros(10)},
					func(e *Env, tag uint64) {
						if tag%2 == 1 {
							e.Compute(sim.Micros(15))
							return
						}
						e.Compute(sim.Micros(5))
					})
				r.d.SetProbe(p)
				_, err := r.u.SPMD(func(c threads.Ctx, node int) {
					if node == 0 {
						for tag := uint64(1); tag <= calls; tag++ {
							r.send(c, 0, tag, tag)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				st := r.d.Stats()

				// Settle runs exactly once per dispatch, on the server node.
				for tag := uint64(1); tag <= calls; tag++ {
					if r.settles[tag] != 1 {
						t.Errorf("tag %d settled %d times, want 1", tag, r.settles[tag])
					}
				}
				if r.offNode != 0 {
					t.Errorf("%d settles ran off the server node", r.offNode)
				}

				// Settled outcomes, Total and the outcome counters agree.
				var byOutcome [3]uint64
				for _, o := range r.outcomes {
					byOutcome[o]++
				}
				if st.Total != calls || st.Succeeded+st.Promoted+st.Nacked != st.Total ||
					byOutcome[Completed] != st.Succeeded || byOutcome[Promoted] != st.Promoted ||
					byOutcome[NackNeeded] != st.Nacked {
					t.Errorf("settled %v disagree with stats %v", byOutcome, st)
				}
				if st.ByReason[TooLong] != calls/2 || st.Succeeded != calls/2 {
					t.Errorf("want %d commits and %d budget aborts: stats %v", calls/2, calls/2, st)
				}
				if len(p.attempts) != calls || len(p.settled) != calls || p.mismatches != 0 {
					t.Errorf("probe: %d attempts, %d settled, %d strategy mismatches",
						len(p.attempts), len(p.settled), p.mismatches)
				}

				// One core: the poller runs every execution inline, with no
				// admission step, counters or tracks.
				if cores == 1 && (st.CompatAdmitted != 0 || st.CompatQueued != 0 || p.occupancy != 0 || p.depth != 0) {
					t.Errorf("one-core dispatch touched admission: stats %v, %d occupancy and %d depth events",
						st, p.occupancy, p.depth)
				}
				if cores == 2 && (st.CompatAdmitted+st.CompatQueued != st.Total || p.occupancy == 0) {
					t.Errorf("multiactive admission unaccounted: stats %v, %d occupancy events", st, p.occupancy)
				}

				// The strategy that ran is the one both hooks report; on a
				// core worker Continuation runs as Rerun.
				ran := strat
				if strat == Continuation && cores > 1 {
					ran = Rerun
				}
				if count(p.attempts, ran) != calls || count(p.settled, ran) != calls {
					t.Errorf("probe strategies attempts=%v settled=%v, want all %v", p.attempts, p.settled, ran)
				}
				wantAdopted := uint64(0)
				if ran == Continuation {
					wantAdopted = calls / 2
				}
				if adopted := r.u.Scheduler(1).Stats().Adopted; adopted != wantAdopted {
					t.Errorf("adopted %d threads, want %d", adopted, wantAdopted)
				}
			})
		}
	}
}

// TestProbeReportsAdaptedStrategy: once the adaptive controller switches a
// Rerun dispatcher to Continuation, Attempt and Settled of each dispatch
// both name the strategy that actually ran.
func TestProbeReportsAdaptedStrategy(t *testing.T) {
	const calls = ctlWindow + 8
	p := newRecProbe()
	r := newMultiRig(t, nil, Options{Strategy: Rerun, HandlerBudget: sim.Micros(10), Adaptive: true},
		func(e *Env, tag uint64) { e.Compute(sim.Micros(15)) })
	r.d.SetProbe(p)
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			for tag := uint64(1); tag <= calls; tag++ {
				r.send(c, 0, tag, tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.settled) != calls || p.mismatches != 0 {
		t.Fatalf("%d settled, %d Attempt/Settled strategy mismatches", len(p.settled), p.mismatches)
	}
	// The first window aborts every dispatch, so the controller prefers
	// lazy promotion from then on.
	if count(p.settled, Rerun) != ctlWindow || count(p.settled, Continuation) != calls-ctlWindow {
		t.Fatalf("settled strategies %v: want %d rerun, then continuation", p.settled, ctlWindow)
	}
}

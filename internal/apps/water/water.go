// Package water implements the Water experiment of section 4.2.4: an
// n-body molecular-dynamics application (512 molecules) in the
// message-passing formulation of Romein's Amoeba version. Each iteration
// has two communication phases separated by local computation: first
// every processor broadcasts the positions of its molecules to every
// other processor; then each processor queues acceleration updates for
// non-local molecules and sends one message per destination processor
// (lower-numbered owners send to higher-numbered ones under the
// owner-computes-half rule — "approximately half of them"). The remote
// procedures that store positions and updates can block when the previous
// iteration's data has not been consumed yet, which is what makes the
// (barrier-free) ORPC version abort occasionally — Table 3.
//
// Substitution note: SPLASH Water's intra-molecular physics is replaced
// by a Lennard-Jones point-molecule model with identical communication
// structure and calibrated per-pair compute cost; see DESIGN.md.
package water

import (
	"math"
	"math/rand"

	"repro/internal/am"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// Compute-cost calibration. The paper's sequential program takes 24 s per
// iteration at 512 molecules; with all 512*511/2 pairs computed that is
// ~183 us per pair interaction on the 32 MHz node.
var (
	// CostPair is charged per pairwise force evaluation.
	CostPair = sim.Micros(183)
	// CostMol is charged per molecule integration step.
	CostMol = sim.Micros(12)
)

// Config parameterizes a run. The paper's experiment: 512 molecules,
// five iterations (the first discarded as cache warm-up).
type Config struct {
	Mols  int
	Iters int
	Seed  int64
	// Shards selects the engine's shard count: 0 or 1 sequential,
	// negative auto (one per CPU), clamped to the node count. Results are
	// bit-identical at any value; only wall-clock time changes.
	Shards int
	// Cores gives each simulated node this many cores (default 1).
	// Values > 1 route sync ORPC dispatches through the multiactive path
	// (oam.Options.Cores); Water declares no compatibility matrix, so
	// handlers still serialize and results are unchanged.
	Cores int
	// Observe, if non-nil, is called once the universe (and, for the RPC
	// variants, the runtime — nil under AM) is built but before the SPMD
	// program starts, so an observer can attach its probes.
	Observe func(*am.Universe, *rpc.Runtime)
}

// DefaultConfig returns the paper's problem size.
func DefaultConfig() Config { return Config{Mols: 512, Iters: 5, Seed: 9} }

const dt = 1e-4

// state is a complete system state: flattened [n][3] arrays.
type state struct {
	n   int
	pos []float64
	vel []float64
}

// newState places molecules on a jittered cubic lattice with zero
// initial velocities; deterministic in the seed.
func newState(n int, seed int64) *state {
	rng := rand.New(rand.NewSource(seed))
	s := &state{n: n, pos: make([]float64, 3*n), vel: make([]float64, 3*n)}
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := 1.2
	i := 0
	for x := 0; x < side && i < n; x++ {
		for y := 0; y < side && i < n; y++ {
			for z := 0; z < side && i < n; z++ {
				s.pos[3*i+0] = float64(x)*spacing + 0.05*rng.Float64()
				s.pos[3*i+1] = float64(y)*spacing + 0.05*rng.Float64()
				s.pos[3*i+2] = float64(z)*spacing + 0.05*rng.Float64()
				i++
			}
		}
	}
	return s
}

// pairForce computes the Lennard-Jones force of molecule j on molecule i
// (softened to keep five iterations stable for any seed).
func pairForce(pos []float64, i, j int, f *[3]float64) {
	var d [3]float64
	r2 := 1e-4 // softening
	for k := 0; k < 3; k++ {
		d[k] = pos[3*i+k] - pos[3*j+k]
		r2 += d[k] * d[k]
	}
	inv2 := 1.0 / r2
	inv6 := inv2 * inv2 * inv2
	// 24(2/r^12 - 1/r^6)/r^2, sigma = epsilon = 1.
	mag := 24 * (2*inv6*inv6 - inv6) * inv2
	if mag > 1e4 {
		mag = 1e4 // clamp: keeps any initial overlap from exploding
	}
	for k := 0; k < 3; k++ {
		f[k] = mag * d[k]
	}
}

// halfShell visits the partners of molecule i under SPLASH Water's
// cyclic half-shell rule: i interacts with i+1 .. i+n/2 (mod n), with the
// diametrically opposite partner claimed only by the lower index so each
// pair is computed exactly once. The rule balances load across a
// contiguous molecule partition and makes each processor's phase-2
// updates go to the cyclically following owners — "approximately half of
// them", as the paper says.
func halfShell(i, n int, visit func(j int)) {
	half := n / 2
	for k := 1; k <= half; k++ {
		if k == half && n%2 == 0 && i >= half {
			break
		}
		visit((i + k) % n)
	}
}

// shellSize reports how many partners halfShell visits for molecule i.
func shellSize(i, n int) int {
	half := n / 2
	if n%2 == 0 && i >= half {
		return half - 1
	}
	return half
}

// accumulateOwned computes the force phase for molecules [lo,hi): for
// every owned i and every half-shell partner j, the force on i
// accumulates into acc, and the reaction on j accumulates into upd (the
// caller routes non-local parts to their owners). onRow, if non-nil, is
// called once per owned molecule with the number of pairs evaluated —
// the compute/poll hook.
func accumulateOwned(pos []float64, lo, hi, n int, acc, upd []float64, onRow func(pairs int)) {
	var f [3]float64
	for i := lo; i < hi; i++ {
		halfShell(i, n, func(j int) {
			pairForce(pos, i, j, &f)
			for k := 0; k < 3; k++ {
				acc[3*i+k] += f[k]
				upd[3*j+k] -= f[k]
			}
		})
		if onRow != nil {
			onRow(shellSize(i, n))
		}
	}
}

// integrate advances molecules [lo,hi) one leapfrog step.
func integrate(s *state, lo, hi int, acc []float64) {
	for i := lo; i < hi; i++ {
		for k := 0; k < 3; k++ {
			s.vel[3*i+k] += dt * acc[3*i+k]
			s.pos[3*i+k] += dt * s.vel[3*i+k]
		}
	}
}

// checksum fingerprints molecules [lo,hi). Values are quantized (1e-6
// grid) before fingerprinting: different partitionings sum forces in
// different orders, so trajectories agree only to rounding error, which
// the quantization absorbs. Within one partitioning the computation is
// bit-reproducible, and across partitionings the quantized fingerprints
// must match.
func checksum(s *state, lo, hi int) uint64 {
	q := func(v float64) uint64 { return uint64(int64(math.Round(v * 1e6))) }
	var sum uint64
	for i := lo; i < hi; i++ {
		for k := 0; k < 3; k++ {
			sum += q(s.pos[3*i+k]) * uint64(3*i+k+1)
			sum += q(s.vel[3*i+k]) * uint64(1_000_003*(3*i+k)+7)
		}
	}
	return sum
}

// SeqResult reports a sequential run.
type SeqResult struct {
	Checksum uint64
	// TimePerIter is the simulated sequential time of one iteration (the
	// Figure 4 normalization baseline; the paper's is 24 s).
	TimePerIter sim.Duration
	Time        sim.Duration
}

// SolveSeq runs the simulation sequentially.
func SolveSeq(cfg Config) SeqResult {
	s := newState(cfg.Mols, cfg.Seed)
	acc := make([]float64, 3*cfg.Mols)
	upd := make([]float64, 3*cfg.Mols)
	for it := 0; it < cfg.Iters; it++ {
		for i := range acc {
			acc[i] = 0
			upd[i] = 0
		}
		accumulateOwned(s.pos, 0, cfg.Mols, cfg.Mols, acc, upd, nil)
		for i := range acc {
			acc[i] += upd[i]
		}
		integrate(s, 0, cfg.Mols, acc)
	}
	pairs := cfg.Mols * (cfg.Mols - 1) / 2
	perIter := sim.Duration(pairs)*CostPair + sim.Duration(cfg.Mols)*CostMol
	return SeqResult{
		Checksum:    checksum(s, 0, cfg.Mols),
		TimePerIter: perIter,
		Time:        sim.Duration(cfg.Iters) * perIter,
	}
}

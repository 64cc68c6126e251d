// Transient solution of a CTMC with a DETERMINISTIC periodic jump.
//
// Real scrubbing hardware runs every Tsc seconds on the clock; the paper
// approximates it with an exponential transition of rate 1/Tsc. This
// module evaluates the exact periodic policy: evolve the chain's fault
// transitions for one period, apply the scrub map (each state's probability
// mass moves to its post-scrub state), repeat. Comparing the two policies
// quantifies the modeling error of the paper's approximation
// (bench_periodic_vs_exponential).
#ifndef RSMEM_MARKOV_PERIODIC_H
#define RSMEM_MARKOV_PERIODIC_H

#include <span>
#include <vector>

#include "markov/ctmc.h"

namespace rsmem::markov {

// Applies jumps at times period, 2*period, ... If a query time coincides
// with a jump instant, the jump is applied first (the scrub completes at
// that instant). jump_map[s] gives the post-jump state of state s; fixed
// points (jump_map[s] == s) are allowed and typical for fault-free and
// absorbing states.
//
// Both walks solve through `ws` (reused buffers, cached Poisson windows).
// With the default StepPolicy each cycle is one solve_into, bitwise
// identical to chaining solve() cycle by cycle; when the policy allows
// and the cycle count amortises it, whole cycles advance through a dense
// exp(Q*period) StepOperator instead (~1e-13 relative).
//
// Throws std::invalid_argument on a size mismatch, an out-of-range map
// entry, a non-positive or non-finite period, or a negative or non-finite
// time.
std::vector<double> solve_with_periodic_jump(
    const Ctmc& chain, std::span<const double> pi0,
    std::span<const std::size_t> jump_map, double period, double t,
    const TransientSolver& solver, SolverWorkspace& ws,
    const StepPolicy& policy = {});

// Occupancy of `state` at each (sorted, ascending) time in `times`.
// Solved incrementally: the distribution at the last completed scrub cycle
// is carried forward across query times (mid-cycle queries advance a
// scratch copy), so the whole curve costs O(total cycles + points) solves
// instead of the O(cycles^2) of restarting from pi(0) per point. Results
// are bitwise identical to that from-scratch evaluation.
std::vector<double> occupancy_with_periodic_jump(
    const Ctmc& chain, std::size_t state,
    std::span<const std::size_t> jump_map, double period,
    std::span<const double> times, const TransientSolver& solver,
    SolverWorkspace& ws, const StepPolicy& policy = {});

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_PERIODIC_H

// Bit Error Rate evaluation of the memory-system Markov chains.
//
// Paper eq. (1):   BER(t) = m * (n-k)/k * P_Fail(t)
// where P_Fail(t) is the transient probability of the absorbing Fail state.
// The same scaling is applied to the simplex and the duplex chain (the
// duplex tracks one codeword pair, whose unrecoverable-state probability
// plays the role of P_S(n) in the paper's formula).
#ifndef RSMEM_MODELS_BER_H
#define RSMEM_MODELS_BER_H

#include <span>
#include <vector>

#include "markov/ctmc.h"
#include "markov/state_space.h"
#include "models/chain_cache.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::models {

// The paper's BER scale factor m*(n-k)/k. For RS(18,16) over GF(2^8) this is
// exactly 1, so the reported BER equals the word-failure probability.
double ber_scale(unsigned n, unsigned k, unsigned m);

struct BerCurve {
  std::vector<double> times_hours;
  std::vector<double> fail_probability;  // P_Fail(t)
  std::vector<double> ber;               // scaled per eq. (1)
};

// Evaluates P_Fail over `times_hours` (finite, sorted ascending) on an
// already-built chain whose fail state is `fail_packed`, solving through
// `ws` (TransientSolver::occupancy_curve). With the default StepPolicy the
// curve is bitwise identical to solving step by step from scratch; a
// nonzero policy.max_dense_states enables dense step operators (~1e-13
// relative). If the fail state is unreachable the probabilities are
// identically zero.
BerCurve ber_curve(const markov::StateSpace& space,
                   markov::PackedState fail_packed, double scale,
                   std::span<const double> times_hours,
                   const markov::TransientSolver& solver,
                   markov::SolverWorkspace& ws,
                   const markov::StepPolicy& policy = {});

// Convenience wrappers that build the chain from the model parameters and
// solve on a call-local workspace.
BerCurve simplex_ber_curve(const SimplexParams& params,
                           std::span<const double> times_hours,
                           const markov::TransientSolver& solver);
BerCurve duplex_ber_curve(const DuplexParams& params,
                          std::span<const double> times_hours,
                          const markov::TransientSolver& solver);

// Engine variants: the chain comes from `cache` instead of a per-call
// build, and the curve solves through the caller's workspace and policy.
// Bitwise identical to the wrappers above at the default StepPolicy.
BerCurve simplex_ber_curve(const SimplexParams& params,
                           std::span<const double> times_hours,
                           const markov::TransientSolver& solver,
                           ChainCache& cache, markov::SolverWorkspace& ws,
                           const markov::StepPolicy& policy = {});
BerCurve duplex_ber_curve(const DuplexParams& params,
                          std::span<const double> times_hours,
                          const markov::TransientSolver& solver,
                          ChainCache& cache, markov::SolverWorkspace& ws,
                          const markov::StepPolicy& policy = {});

// Evenly spaced time grid helper: `points` samples in [0, t_end_hours].
// Throws std::invalid_argument unless points >= 2 and t_end_hours is
// finite and positive.
std::vector<double> time_grid_hours(double t_end_hours, std::size_t points);

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_BER_H

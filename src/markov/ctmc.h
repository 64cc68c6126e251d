// Continuous-time Markov chain representation.
//
// A chain is its infinitesimal generator Q (sparse, row-oriented: Q[i][j] is
// the rate from state i to state j for i != j, and Q[i][i] = -sum of the
// row's off-diagonal entries) plus an initial state index. Absorbing states
// (the paper's Fail state) simply have an all-zero row.
#ifndef RSMEM_MARKOV_CTMC_H
#define RSMEM_MARKOV_CTMC_H

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr_matrix.h"

namespace rsmem::markov {

class SolverWorkspace;

// Controls the dense step-operator optimisation in the workspace grid
// paths. Chains with at most max_dense_states states may be advanced
// through a dense exp(Q dt) operator when one step width repeats often
// enough to amortise its construction (more repeats than states). The
// default 0 disables dense stepping, keeping results bitwise identical to
// the per-step solver path; the sweep engine passes a nonzero bound and
// accepts ~1e-13 relative agreement instead.
struct StepPolicy {
  std::size_t max_dense_states = 0;
};

class Ctmc {
 public:
  // Throws std::invalid_argument if Q is not square, has negative
  // off-diagonal entries, rows that do not sum to ~0, or the initial index
  // is out of range.
  Ctmc(linalg::CsrMatrix generator, std::size_t initial_state);

  std::size_t num_states() const { return generator_.rows(); }
  std::size_t initial_state() const { return initial_state_; }
  const linalg::CsrMatrix& generator() const { return generator_; }

  // Point-mass initial distribution.
  std::vector<double> initial_distribution() const;

  // Largest exit rate, max_i |Q[i][i]| (uniformization constant bound).
  double max_exit_rate() const { return generator_.max_abs_diagonal(); }

  bool is_absorbing(std::size_t state) const;

 private:
  linalg::CsrMatrix generator_;
  std::size_t initial_state_;
};

// Throws std::invalid_argument unless `times` is finite, non-negative and
// non-decreasing: the query grids every transient walk accepts.
void check_query_times(std::span<const double> times);

// Interface shared by the transient solvers. solve_into is the one
// operation a solver implements; solve() and the occupancy walk are built
// on it.
class TransientSolver {
 public:
  virtual ~TransientSolver() = default;

  // Writes pi(t), with pi(0) = pi0, into `out` (size num_states) using the
  // workspace's buffers and cached Poisson windows.
  virtual void solve_into(const Ctmc& chain, std::span<const double> pi0,
                          double t, SolverWorkspace& ws,
                          std::span<double> out) const = 0;

  // Returns pi(t): solve_into on a call-local workspace.
  std::vector<double> solve(const Ctmc& chain, std::span<const double> pi0,
                            double t) const;

  // Convenience: start from the chain's own initial state.
  std::vector<double> solve(const Ctmc& chain, double t) const;

  // Probability of occupying `state` at each time in `times` (finite and
  // non-decreasing), solved incrementally through solve_into. With the
  // default StepPolicy every point is bitwise identical to chaining
  // solve() step by step; a nonzero policy.max_dense_states lets repeated
  // step widths run through a dense StepOperator (~1e-13 relative).
  std::vector<double> occupancy_curve(const Ctmc& chain, std::size_t state,
                                      std::span<const double> times,
                                      SolverWorkspace& ws,
                                      const StepPolicy& policy = {}) const;
};

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_CTMC_H

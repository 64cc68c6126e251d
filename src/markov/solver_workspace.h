// Reusable scratch state for the transient solvers.
//
// Sweeps solve the same small chain at hundreds of (rate, time) points; a
// solve() on a fresh workspace pays a Poisson-window recomputation and a
// handful of vector allocations per call. A SolverWorkspace owns those
// buffers and memoizes Poisson windows by their exact (lambda,
// truncation_error, tail_floor) key -- scrub-cycle grids share a single
// Delta-t, so a whole occupancy curve reuses one window.
//
// Thread rule (mirrors rs::DecoderWorkspace): a workspace is NOT
// synchronized. Use one workspace per thread; concurrent calls into the
// same workspace are a data race.
#ifndef RSMEM_MARKOV_SOLVER_WORKSPACE_H
#define RSMEM_MARKOV_SOLVER_WORKSPACE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "markov/uniformization.h"

namespace rsmem::markov {

class SolverWorkspace {
 public:
  SolverWorkspace() = default;
  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  // Cached Poisson window for the exact key (lambda, truncation_error,
  // tail_floor). The first request computes poisson_window(); later
  // requests with a bitwise-equal key return the cached copy. The returned
  // reference stays valid until the next poisson() or clear() call.
  const PoissonWindow& poisson(double lambda, double truncation_error,
                               double tail_floor);

  std::size_t window_cache_size() const { return windows_.size(); }
  std::uint64_t window_cache_hits() const { return hits_; }
  std::uint64_t window_cache_misses() const { return misses_; }

  // Uniformization terms summed by solves on this workspace, and the terms
  // their windows offered; the early stop makes the first the smaller.
  std::uint64_t terms_summed() const { return terms_summed_; }
  std::uint64_t terms_offered() const { return terms_offered_; }
  void record_terms(std::size_t summed, std::size_t offered) {
    terms_summed_ += summed;
    terms_offered_ += offered;
  }

  // Drops cached windows, zeroes the counters and releases buffer
  // capacity.
  void clear();

  // Scratch buffers, resized on demand by the solvers. Exposed directly:
  // the workspace *is* the scratch arena, and the solvers' solve_into
  // overrides document which buffers they use.
  std::vector<double> v;   // uniformization: current pi0 * P^k iterate
  std::vector<double> qv;  // uniformization: v * Q staging
  // Uniformization early stop: states reachable from supp(pi0) (flags, and
  // the same states in breadth-first order).
  std::vector<unsigned char> reach_flags;
  std::vector<std::size_t> reached;
  // Dormand-Prince stages and step candidates.
  std::vector<double> k1, k2, k3, k4, k5, k6, k7, tmp, y5;
  // Grid / periodic propagation (occupancy curves, cycle anchors).
  std::vector<double> pi_a, pi_b, jump_tmp;

 private:
  struct WindowEntry {
    double lambda;
    double truncation_error;
    double tail_floor;
    std::uint64_t last_use;
    PoissonWindow window;
  };
  // A sweep touches only a few distinct q*t products; keep the cache small
  // and evict least-recently-used beyond that.
  static constexpr std::size_t kMaxWindows = 64;

  std::vector<WindowEntry> windows_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t terms_summed_ = 0;
  std::uint64_t terms_offered_ = 0;
};

// Dense one-step propagator M = exp(Q * dt), stored row-major so that
// row i is e_i advanced by dt with `solver`. Advancing a distribution is
// then an n x n streaming product instead of a full uniformization sum --
// worth building once the same dt repeats more often than the chain has
// states (n basis solves to build vs one solve saved per step). Every
// entry is a clamped probability (>= 0), so the product has no
// cancellation and far-tail Fail masses stay accurate; results agree with
// per-step solves to solver accuracy (~1e-13 relative), not bitwise, which
// is why dense stepping is opt-in via StepPolicy.
class StepOperator {
 public:
  StepOperator(const Ctmc& chain, double dt, const TransientSolver& solver,
               SolverWorkspace& ws);

  double dt() const { return dt_; }
  std::size_t num_states() const { return n_; }

  // out = in * M. `in` and `out` must not alias and must have size n.
  void advance(std::span<const double> in, std::span<double> out) const;

 private:
  double dt_;
  std::size_t n_;
  std::vector<double> matrix_;  // row-major n x n
};

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_SOLVER_WORKSPACE_H

// Transient CTMC solution by uniformization (Jensen's method).
//
// pi(t) = sum_k PoissonPmf(k; q t) * pi0 * P^k,  P = I + Q/q,
// with q >= max_i |Q[i][i]|. Poisson weights are computed from the mode
// outward in a numerically stable way (a simplified Fox-Glynn scheme), so
// large q*t products -- e.g. 48 h of scrubbing every 900 s -- remain
// accurate. This is the project's substitute for the NASA SURE solver used
// by the paper (see DESIGN.md section 2).
#ifndef RSMEM_MARKOV_UNIFORMIZATION_H
#define RSMEM_MARKOV_UNIFORMIZATION_H

#include "markov/ctmc.h"

namespace rsmem::markov {

// Default pmf floor for the right-tail extension of poisson_window; see
// the PoissonWindow comment below.
inline constexpr double kPoissonTailFloor = 1e-320;

class UniformizationSolver final : public TransientSolver {
 public:
  // `truncation_error` bounds the total discarded Poisson mass.
  explicit UniformizationSolver(double truncation_error = 1e-14);

  // Uses ws.v / ws.qv for the propagation iterates and ws.poisson() for
  // the window, writing pi(t) into `out`.
  void solve_into(const Ctmc& chain, std::span<const double> pi0, double t,
                  SolverWorkspace& ws, std::span<double> out) const override;

 private:
  double truncation_error_;
};

// Poisson(lambda) pmf weights covering all but `truncation_error` of the
// mass, then extended to the right until the pmf drops below `tail_floor`.
// The extension matters for the paper's Figs. 8-10: the Fail probability of
// a slow chain is carried entirely by the far Poisson tail (k >= n-k+1
// jumps while lambda*t ~ 1e-6), far below any sensible mass-based cutoff.
// Because every uniformization term is non-negative there is no
// cancellation, so those tail terms are accurate down to the underflow
// limit (~1e-300) -- which is how the paper's SURE plots reach 1e-200.
// Returned as {first_k, weights}: weights[i] = pmf(first_k + i).
struct PoissonWindow {
  std::size_t first_k = 0;
  std::vector<double> weights;
};
PoissonWindow poisson_window(double lambda, double truncation_error,
                             double tail_floor = kPoissonTailFloor);

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_UNIFORMIZATION_H

// Transient CTMC solution by uniformization (Jensen's method).
//
// pi(t) = sum_k PoissonPmf(k; q t) * pi0 * P^k,  P = I + Q/q,
// with q >= max_i |Q[i][i]|. Poisson weights are computed from the mode
// outward in a numerically stable way (a simplified Fox-Glynn scheme), so
// large q*t products -- e.g. 48 h of scrubbing every 900 s -- remain
// accurate. The sum stops early once no remaining term can change a bit of
// the result (see PoissonWindow). This is the project's substitute for the
// NASA SURE solver used by the paper (see DESIGN.md section 2).
#ifndef RSMEM_MARKOV_UNIFORMIZATION_H
#define RSMEM_MARKOV_UNIFORMIZATION_H

#include "markov/ctmc.h"

namespace rsmem::markov {

// Default pmf floor for the right-tail extension of poisson_window; see
// the PoissonWindow comment below. The floor bounds how many terms a solve
// may sum, not how many it does: the early stop usually ends the sum long
// before the floor.
inline constexpr double kPoissonTailFloor = 1e-320;

class UniformizationSolver final : public TransientSolver {
 public:
  // `truncation_error` bounds the total discarded Poisson mass.
  explicit UniformizationSolver(double truncation_error = 1e-14);

  // Uses ws.v / ws.qv for the propagation iterates, ws.reach_flags /
  // ws.reached for the states pi0 can reach, and ws.poisson() for the
  // window, writing pi(t) into `out`. Sums the window only as far as a
  // term can still change `out` (see PoissonWindow) and records the terms
  // it summed in ws.terms_summed().
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
// Returned as {first_k, weights, tail}: weights[i] = pmf(first_k + i), and
// tail[i] = sum of weights[j] for j > i (so tail.back() == 0).
//
// Early stop. Most of the window cannot change the result, so solve_into
// stops after term k once every state i reachable from supp(pi0) in the
// generator's sparsity graph has
//   out[i] != 0  and  tail[k] * ||pi0||_1 < 2^-56 * |out[i]|.
// That is bit for bit the full sum:
//  * P is non-negative and stochastic, so every omitted term obeys
//    |w_j v_j[i]| <= w_j ||pi0||_1, and together they stay below 2^-56
//    |out[i]|: under half an ulp, with a factor-4 margin for the rounding
//    of the suffix sums, of ||pi0||_1 and of the iterates. Under
//    round-to-nearest each omitted addition leaves out[i] unchanged, with
//    or without FMA contraction, and the final clamp sees the same value.
//  * States pi0 cannot reach hold exact zeros in every iterate, so their
//    omitted terms add +-0 to +0.
//  * A reachable state whose out[i] is still 0 (not reached yet, or its
//    mass underflowed) blocks the stop, so slow chains keep the whole
//    window and their far-tail masses -- down to an underflow to 0 -- are
//    unchanged.
// (Fox & Glynn, "Computing Poisson probabilities", CACM 31(4), 1988, cut
// the window by mass; this cut is per state and exact.)
struct PoissonWindow {
  std::size_t first_k = 0;
  std::vector<double> weights;
  std::vector<double> tail;
};
PoissonWindow poisson_window(double lambda, double truncation_error,
                             double tail_floor = kPoissonTailFloor);

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_UNIFORMIZATION_H

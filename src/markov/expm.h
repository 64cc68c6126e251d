// Transient CTMC solution via the dense matrix exponential,
// pi(t) = pi0 * expm(Q t), computed with scaling-and-squaring on a Pade
// approximant. O(n^3) per solve -- only sensible for the paper's small
// chains -- but numerically independent from both uniformization and RK45,
// so the three-way agreement tests pin all solvers hard.
#ifndef RSMEM_MARKOV_EXPM_H
#define RSMEM_MARKOV_EXPM_H

#include "linalg/dense_matrix.h"
#include "markov/ctmc.h"

namespace rsmem::markov {

// expm(A) by [6/6] Pade with scaling and squaring.
linalg::DenseMatrix expm(const linalg::DenseMatrix& a);

class ExpmSolver final : public TransientSolver {
 public:
  ExpmSolver() = default;

  // Builds the dense exp(Q t) per call; the workspace is unused.
  void solve_into(const Ctmc& chain, std::span<const double> pi0, double t,
                  SolverWorkspace& ws, std::span<double> out) const override;
};

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_EXPM_H

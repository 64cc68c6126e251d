// Transient CTMC solution by direct integration of the Kolmogorov forward
// equations  d pi / dt = pi Q  with an adaptive Dormand-Prince RK45 scheme.
//
// Slower than uniformization but derived from entirely different numerics;
// the test suite requires the two solvers to agree, which guards both
// implementations.
#ifndef RSMEM_MARKOV_RK45_H
#define RSMEM_MARKOV_RK45_H

#include "markov/ctmc.h"

namespace rsmem::markov {

class Rk45Solver final : public TransientSolver {
 public:
  explicit Rk45Solver(double rel_tol = 1e-10, double abs_tol = 1e-14);

  // The integration state (y, the seven stages, the step candidate) lives
  // in ws.v / ws.k1..k7 / ws.tmp / ws.y5.
  void solve_into(const Ctmc& chain, std::span<const double> pi0, double t,
                  SolverWorkspace& ws, std::span<double> out) const override;

 private:
  double rel_tol_;
  double abs_tol_;
};

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_RK45_H

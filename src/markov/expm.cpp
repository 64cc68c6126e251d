#include "markov/expm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsmem::markov {

namespace {

using linalg::DenseMatrix;
using linalg::LuFactorization;

// One-norm (max column sum).
double norm1(const DenseMatrix& a) {
  double best = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) sum += std::fabs(a.at(r, c));
    best = std::max(best, sum);
  }
  return best;
}

DenseMatrix add_scaled(const DenseMatrix& a, const DenseMatrix& b,
                       double sb) {
  DenseMatrix c(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      c.at(r, k) = a.at(r, k) + sb * b.at(r, k);
    }
  }
  return c;
}

}  // namespace

DenseMatrix expm(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("expm: matrix must be square");
  }
  const std::size_t n = a.rows();

  // Scale so |A/2^s| is comfortably inside the Pade radius.
  const double nrm = norm1(a);
  int s = 0;
  if (nrm > 0.5) {
    s = static_cast<int>(std::ceil(std::log2(nrm / 0.5)));
  }
  DenseMatrix x = a;
  const double scale = std::pow(2.0, -s);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) x.at(r, c) *= scale;
  }

  // [6/6] Pade: N = sum c_k X^k (even+odd split), D with alternating signs.
  constexpr double kC[] = {1.0,
                           0.5,
                           5.0 / 44.0,
                           1.0 / 66.0,
                           1.0 / 792.0,
                           1.0 / 15840.0,
                           1.0 / 665280.0};
  DenseMatrix power = DenseMatrix::identity(n);
  DenseMatrix num(n, n);
  DenseMatrix den(n, n);
  for (int k = 0; k <= 6; ++k) {
    if (k > 0) power = DenseMatrix::mul(power, x);
    num = add_scaled(num, power, kC[k]);
    den = add_scaled(den, power, (k % 2 == 0) ? kC[k] : -kC[k]);
  }

  // Solve den * R = num column-wise.
  const LuFactorization lu{den};
  DenseMatrix r(n, n);
  std::vector<double> col(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i) col[i] = num.at(i, c);
    const std::vector<double> sol = lu.solve(col);
    for (std::size_t i = 0; i < n; ++i) r.at(i, c) = sol[i];
  }

  for (int i = 0; i < s; ++i) r = DenseMatrix::mul(r, r);
  return r;
}

void ExpmSolver::solve_into(const Ctmc& chain, std::span<const double> pi0,
                            double t, SolverWorkspace& /*ws*/,
                            std::span<double> out) const {
  if (pi0.size() != chain.num_states()) {
    throw std::invalid_argument("ExpmSolver: pi0 size mismatch");
  }
  if (out.size() != chain.num_states()) {
    throw std::invalid_argument("ExpmSolver: output size mismatch");
  }
  if (t < 0.0) throw std::invalid_argument("ExpmSolver: negative time");
  if (t == 0.0) {
    std::copy(pi0.begin(), pi0.end(), out.begin());
    return;
  }

  DenseMatrix qt = chain.generator().to_dense();
  for (std::size_t r = 0; r < qt.rows(); ++r) {
    for (std::size_t c = 0; c < qt.cols(); ++c) qt.at(r, c) *= t;
  }
  // pi(t) = pi0 * exp(Q t)  (row vector times matrix).
  const std::vector<double> pi = expm(qt).apply_transpose(pi0);
  for (std::size_t i = 0; i < pi.size(); ++i) out[i] = std::max(pi[i], 0.0);
}

}  // namespace rsmem::markov

#include "markov/rk45.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/solver_workspace.h"

namespace rsmem::markov {

namespace {

// Dormand-Prince RK5(4) coefficients.
constexpr double kA21 = 1.0 / 5.0;
constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0, kA43 = 32.0 / 9.0;
constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                 kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                 kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                 kA65 = -5103.0 / 18656.0;
constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                 kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                 kB6 = 11.0 / 84.0;
// Embedded 4th-order weights.
constexpr double kE1 = 5179.0 / 57600.0, kE3 = 7571.0 / 16695.0,
                 kE4 = 393.0 / 640.0, kE5 = -92097.0 / 339200.0,
                 kE6 = 187.0 / 2100.0, kE7 = 1.0 / 40.0;

}  // namespace

Rk45Solver::Rk45Solver(double rel_tol, double abs_tol)
    : rel_tol_(rel_tol), abs_tol_(abs_tol) {
  if (rel_tol <= 0.0 || abs_tol <= 0.0) {
    throw std::invalid_argument("Rk45Solver: tolerances must be positive");
  }
}

void Rk45Solver::solve_into(const Ctmc& chain, std::span<const double> pi0,
                            double t, SolverWorkspace& ws,
                            std::span<double> out) const {
  if (pi0.size() != chain.num_states()) {
    throw std::invalid_argument("Rk45Solver: pi0 size mismatch");
  }
  if (out.size() != chain.num_states()) {
    throw std::invalid_argument("Rk45Solver: output size mismatch");
  }
  if (t < 0.0) throw std::invalid_argument("Rk45Solver: negative time");

  const std::size_t n = pi0.size();
  std::vector<double>& y = ws.v;
  y.assign(pi0.begin(), pi0.end());
  if (t == 0.0) {
    std::copy(y.begin(), y.end(), out.begin());
    return;
  }

  const linalg::CsrMatrix& gen = chain.generator();
  const double q = chain.max_exit_rate();
  if (q == 0.0) {
    std::copy(y.begin(), y.end(), out.begin());
    return;
  }

  const auto deriv = [&](const std::vector<double>& x, std::vector<double>& dx) {
    gen.apply_transpose(x, dx);
  };

  std::vector<double>&k1 = ws.k1, &k2 = ws.k2, &k3 = ws.k3, &k4 = ws.k4,
                     &k5 = ws.k5, &k6 = ws.k6, &k7 = ws.k7;
  std::vector<double>&tmp = ws.tmp, &y5 = ws.y5;
  k1.resize(n);
  k2.resize(n);
  k3.resize(n);
  k4.resize(n);
  k5.resize(n);
  k6.resize(n);
  k7.resize(n);
  tmp.resize(n);
  y5.resize(n);

  double time = 0.0;
  double h = std::min(t, 0.1 / q);  // initial step ~ a tenth of a transition
  const double h_min = t * 1e-14;
  constexpr int kMaxSteps = 50'000'000;

  deriv(y, k1);
  for (int step = 0; step < kMaxSteps && time < t; ++step) {
    h = std::min(h, t - time);

    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + h * kA21 * k1[i];
    deriv(tmp, k2);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (kA31 * k1[i] + kA32 * k2[i]);
    }
    deriv(tmp, k3);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (kA41 * k1[i] + kA42 * k2[i] + kA43 * k3[i]);
    }
    deriv(tmp, k4);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (kA51 * k1[i] + kA52 * k2[i] + kA53 * k3[i] +
                           kA54 * k4[i]);
    }
    deriv(tmp, k5);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (kA61 * k1[i] + kA62 * k2[i] + kA63 * k3[i] +
                           kA64 * k4[i] + kA65 * k5[i]);
    }
    deriv(tmp, k6);
    for (std::size_t i = 0; i < n; ++i) {
      y5[i] = y[i] + h * (kB1 * k1[i] + kB3 * k3[i] + kB4 * k4[i] +
                          kB5 * k5[i] + kB6 * k6[i]);
    }
    deriv(y5, k7);

    // Error estimate: |y5 - y4|.
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double y4i = y[i] + h * (kE1 * k1[i] + kE3 * k3[i] + kE4 * k4[i] +
                                     kE5 * k5[i] + kE6 * k6[i] + kE7 * k7[i]);
      const double sc =
          abs_tol_ + rel_tol_ * std::max(std::fabs(y[i]), std::fabs(y5[i]));
      const double e = (y5[i] - y4i) / sc;
      err += e * e;
    }
    err = std::sqrt(err / static_cast<double>(n));

    if (err <= 1.0) {
      time += h;
      y.swap(y5);
      k1.swap(k7);  // FSAL: last stage is the next step's first stage
    }
    const double factor =
        err > 0.0 ? 0.9 * std::pow(err, -0.2) : 5.0;
    h *= std::clamp(factor, 0.2, 5.0);
    if (h < h_min && time < t) {
      throw std::runtime_error("Rk45Solver: step size underflow");
    }
  }
  if (time < t) {
    throw std::runtime_error("Rk45Solver: max step count exceeded");
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = std::max(y[i], 0.0);
}

}  // namespace rsmem::markov

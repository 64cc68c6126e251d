#include "markov/uniformization.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/solver_workspace.h"

namespace rsmem::markov {

namespace {

// log Gamma(x) without glibc lgamma()'s write to the global `signgam`,
// which is a data race when solver workers evaluate Poisson windows
// concurrently. Gamma is positive over our domain (x >= 1), so the sign
// output is discarded.
double log_gamma_threadsafe(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Marks the states reachable from supp(pi0) along the generator's stored
// entries; `reached` lists them in breadth-first order. Only these states
// can ever hold nonzero mass.
void mark_reachable(const linalg::CsrMatrix& gen, std::span<const double> pi0,
                    std::vector<unsigned char>& flags,
                    std::vector<std::size_t>& reached) {
  const std::size_t n = pi0.size();
  flags.assign(n, 0);
  reached.clear();
  reached.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pi0[i] != 0.0) {
      flags[i] = 1;
      reached.push_back(i);
    }
  }
  const std::span<const std::size_t> rows = gen.row_pointers();
  const std::span<const std::size_t> cols = gen.col_indices();
  for (std::size_t head = 0; head < reached.size(); ++head) {
    const std::size_t s = reached[head];
    for (std::size_t p = rows[s]; p < rows[s + 1]; ++p) {
      if (flags[cols[p]] == 0) {
        flags[cols[p]] = 1;
        reached.push_back(cols[p]);
      }
    }
  }
}

// The early-stop test of the PoissonWindow comment: `bound` is the weight
// left in the window times ||pi0||_1 (never negative, so a zero out[i]
// fails the test). Walks the deepest states first -- the ones pi0 reaches
// last are the ones still at zero -- and exits at the first failure.
bool rest_is_negligible(double bound, std::span<const double> out,
                        std::span<const std::size_t> reached) {
  for (auto it = reached.rbegin(); it != reached.rend(); ++it) {
    if (!(bound < 0x1p-56 * std::fabs(out[*it]))) return false;
  }
  return true;
}

}  // namespace

UniformizationSolver::UniformizationSolver(double truncation_error)
    : truncation_error_(truncation_error) {
  if (truncation_error <= 0.0 || truncation_error >= 1.0) {
    throw std::invalid_argument(
        "UniformizationSolver: truncation_error must be in (0,1)");
  }
}

PoissonWindow poisson_window(double lambda, double truncation_error,
                             double tail_floor) {
  if (!std::isfinite(lambda) || lambda < 0.0) {
    throw std::invalid_argument("poisson_window: lambda must be finite, >= 0");
  }
  if (lambda == 0.0) {
    return {0, {1.0}, {0.0}};
  }
  const std::size_t mode = static_cast<std::size_t>(std::floor(lambda));
  const double log_pmf_mode = -lambda +
                              static_cast<double>(mode) * std::log(lambda) -
      log_gamma_threadsafe(static_cast<double>(mode) + 1.0);
  const double pmf_mode = std::exp(log_pmf_mode);

  // Walk outward from the mode with the ratio recurrences
  //   pmf(k+1) = pmf(k) * lambda / (k+1),  pmf(k-1) = pmf(k) * k / lambda
  // until the captured mass reaches 1 - truncation_error.
  std::vector<double> right{pmf_mode};  // pmf(mode), pmf(mode+1), ...
  std::vector<double> left;             // pmf(mode-1), pmf(mode-2), ...
  double total = pmf_mode;
  double right_pmf = pmf_mode;
  std::size_t right_k = mode;
  double left_pmf = pmf_mode;
  std::size_t left_k = mode;

  while (total < 1.0 - truncation_error) {
    // Prefer extending the side with the larger next term.
    const double next_right =
        right_pmf * lambda / static_cast<double>(right_k + 1);
    const double next_left =
        left_k > 0 ? left_pmf * static_cast<double>(left_k) / lambda : -1.0;
    if (next_right >= next_left) {
      right.push_back(next_right);
      right_pmf = next_right;
      ++right_k;
      total += next_right;
    } else {
      left.push_back(next_left);
      left_pmf = next_left;
      --left_k;
      total += next_left;
    }
    if (right_k > mode + 40 && next_right < 1e-300 &&
        (left_k == 0 || next_left < 1e-300)) {
      break;  // ran off the representable range; mass captured is maximal
    }
  }

  // Tail extension: keep appending right-side weights until they underflow
  // below tail_floor, so far-tail transition counts (the only path to Fail
  // in slow chains) contribute their exact positive mass.
  while (right_pmf >= tail_floor) {
    const double next = right_pmf * lambda / static_cast<double>(right_k + 1);
    if (next < tail_floor) break;
    right.push_back(next);
    right_pmf = next;
    ++right_k;
  }

  PoissonWindow window;
  window.first_k = left_k;
  window.weights.reserve(left.size() + right.size());
  for (auto it = left.rbegin(); it != left.rend(); ++it) {
    window.weights.push_back(*it);
  }
  for (const double w : right) window.weights.push_back(w);
  // Suffix sums, accumulated from the smallest weight up.
  window.tail.assign(window.weights.size(), 0.0);
  for (std::size_t i = window.weights.size() - 1; i > 0; --i) {
    window.tail[i - 1] = window.tail[i] + window.weights[i];
  }
  return window;
}

void UniformizationSolver::solve_into(const Ctmc& chain,
                                      std::span<const double> pi0, double t,
                                      SolverWorkspace& ws,
                                      std::span<double> out) const {
  if (pi0.size() != chain.num_states()) {
    throw std::invalid_argument("UniformizationSolver: pi0 size mismatch");
  }
  if (out.size() != chain.num_states()) {
    throw std::invalid_argument("UniformizationSolver: output size mismatch");
  }
  if (t < 0.0) {
    throw std::invalid_argument("UniformizationSolver: negative time");
  }
  const double q = chain.max_exit_rate();
  if (t == 0.0 || q == 0.0) {
    std::copy(pi0.begin(), pi0.end(), out.begin());
    return;
  }

  const PoissonWindow& window =
      ws.poisson(q * t, truncation_error_, kPoissonTailFloor);
  const std::size_t last_k = window.first_k + window.weights.size() - 1;

  const linalg::CsrMatrix& gen = chain.generator();
  mark_reachable(gen, pi0, ws.reach_flags, ws.reached);
  double mass = 0.0;  // ||pi0||_1
  for (const double x : pi0) mass += std::fabs(x);

  std::vector<double>& v = ws.v;
  std::vector<double>& qv = ws.qv;
  v.assign(pi0.begin(), pi0.end());
  qv.resize(v.size());
  std::fill(out.begin(), out.end(), 0.0);
  std::size_t summed = 0;
  for (std::size_t k = 0; k <= last_k; ++k) {
    if (k >= window.first_k) {
      const std::size_t j = k - window.first_k;
      const double w = window.weights[j];
      for (std::size_t i = 0; i < v.size(); ++i) out[i] += w * v[i];
      ++summed;
      if (rest_is_negligible(window.tail[j] * mass, out, ws.reached)) break;
    }
    if (k == last_k) break;
    // v <- v P = v + (v Q) / q   (row-vector propagation).
    gen.apply_transpose(v, qv);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += qv[i] / q;
  }
  ws.record_terms(summed, window.weights.size());
  // Clamp away tiny negative round-off.
  for (double& x : out) x = std::max(x, 0.0);
}

}  // namespace rsmem::markov

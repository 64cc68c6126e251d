#include "markov/ctmc.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "markov/solver_workspace.h"

namespace rsmem::markov {

namespace {
constexpr double kRowSumTolerance = 1e-9;
}

Ctmc::Ctmc(linalg::CsrMatrix generator, std::size_t initial_state)
    : generator_(std::move(generator)), initial_state_(initial_state) {
  if (generator_.rows() != generator_.cols()) {
    throw std::invalid_argument("Ctmc: generator must be square");
  }
  if (initial_state_ >= generator_.rows()) {
    throw std::invalid_argument("Ctmc: initial state out of range");
  }
  const auto row_ptr = generator_.row_pointers();
  const auto col_idx = generator_.col_indices();
  const auto values = generator_.values();
  for (std::size_t r = 0; r < generator_.rows(); ++r) {
    double row_sum = 0.0;
    double row_scale = 0.0;
    for (std::size_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const double v = values[i];
      if (col_idx[i] != r && v < 0.0) {
        throw std::invalid_argument(
            "Ctmc: negative off-diagonal rate in row " + std::to_string(r));
      }
      row_sum += v;
      row_scale = std::max(row_scale, std::fabs(v));
    }
    if (std::fabs(row_sum) > kRowSumTolerance * std::max(1.0, row_scale)) {
      throw std::invalid_argument("Ctmc: row " + std::to_string(r) +
                                  " does not sum to zero");
    }
  }
}

std::vector<double> Ctmc::initial_distribution() const {
  std::vector<double> pi0(num_states(), 0.0);
  pi0[initial_state_] = 1.0;
  return pi0;
}

bool Ctmc::is_absorbing(std::size_t state) const {
  if (state >= num_states()) {
    throw std::invalid_argument("Ctmc::is_absorbing: state out of range");
  }
  const auto row_ptr = generator_.row_pointers();
  const auto values = generator_.values();
  for (std::size_t i = row_ptr[state]; i < row_ptr[state + 1]; ++i) {
    if (values[i] != 0.0) return false;
  }
  return true;
}

void check_query_times(std::span<const double> times) {
  double prev = 0.0;
  for (const double t : times) {
    if (!std::isfinite(t)) {
      throw std::invalid_argument("query times must be finite");
    }
    if (t < prev) {
      throw std::invalid_argument(
          "query times must be non-negative and sorted");
    }
    prev = t;
  }
}

std::vector<double> TransientSolver::solve(const Ctmc& chain,
                                           std::span<const double> pi0,
                                           double t) const {
  SolverWorkspace ws;
  std::vector<double> out(chain.num_states());
  solve_into(chain, pi0, t, ws, out);
  return out;
}

std::vector<double> TransientSolver::solve(const Ctmc& chain, double t) const {
  const std::vector<double> pi0 = chain.initial_distribution();
  return solve(chain, pi0, t);
}

std::vector<double> TransientSolver::occupancy_curve(
    const Ctmc& chain, std::size_t state, std::span<const double> times,
    SolverWorkspace& ws, const StepPolicy& policy) const {
  if (state >= chain.num_states()) {
    throw std::invalid_argument("occupancy_curve: state out of range");
  }
  const std::size_t n = chain.num_states();

  check_query_times(times);

  // Pre-pass: count how often each distinct step width occurs, so widths
  // repeated more than n times can share a dense operator. Keys are exact
  // doubles -- evenly spaced grids can produce step widths one ulp apart,
  // and each such value is its own key.
  struct DtUse {
    double dt;
    std::size_t count;
    std::optional<StepOperator> op;
  };
  std::vector<DtUse> widths;
  double t_prev = 0.0;
  for (const double t : times) {
    if (t > t_prev) {
      const double dt = t - t_prev;
      auto it = std::find_if(widths.begin(), widths.end(),
                             [dt](const DtUse& u) { return u.dt == dt; });
      if (it == widths.end()) {
        widths.push_back({dt, 1, std::nullopt});
      } else {
        ++it->count;
      }
      t_prev = t;
    }
  }
  const bool dense_allowed =
      policy.max_dense_states > 0 && n <= policy.max_dense_states;

  std::vector<double> result;
  result.reserve(times.size());
  ws.pi_a.assign(n, 0.0);
  ws.pi_a[chain.initial_state()] = 1.0;
  ws.pi_b.assign(n, 0.0);
  t_prev = 0.0;
  for (const double t : times) {
    if (t > t_prev) {
      const double dt = t - t_prev;
      const auto it = std::find_if(widths.begin(), widths.end(),
                                   [dt](const DtUse& u) { return u.dt == dt; });
      if (dense_allowed && it->count > n) {
        if (!it->op) it->op.emplace(chain, dt, *this, ws);
        it->op->advance(ws.pi_a, ws.pi_b);
      } else {
        solve_into(chain, ws.pi_a, dt, ws, ws.pi_b);
      }
      std::swap(ws.pi_a, ws.pi_b);
      t_prev = t;
    }
    result.push_back(ws.pi_a[state]);
  }
  return result;
}

}  // namespace rsmem::markov

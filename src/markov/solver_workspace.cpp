#include "markov/solver_workspace.h"

#include <algorithm>
#include <stdexcept>

namespace rsmem::markov {

const PoissonWindow& SolverWorkspace::poisson(double lambda,
                                              double truncation_error,
                                              double tail_floor) {
  ++tick_;
  for (WindowEntry& entry : windows_) {
    if (entry.lambda == lambda && entry.truncation_error == truncation_error &&
        entry.tail_floor == tail_floor) {
      entry.last_use = tick_;
      ++hits_;
      return entry.window;
    }
  }
  ++misses_;
  if (windows_.size() >= kMaxWindows) {
    const auto lru =
        std::min_element(windows_.begin(), windows_.end(),
                         [](const WindowEntry& a, const WindowEntry& b) {
                           return a.last_use < b.last_use;
                         });
    windows_.erase(lru);
  }
  windows_.push_back({lambda, truncation_error, tail_floor, tick_,
                      poisson_window(lambda, truncation_error, tail_floor)});
  return windows_.back().window;
}

void SolverWorkspace::clear() {
  windows_.clear();
  windows_.shrink_to_fit();
  tick_ = hits_ = misses_ = terms_summed_ = terms_offered_ = 0;
  for (std::vector<double>* buf :
       {&v, &qv, &k1, &k2, &k3, &k4, &k5, &k6, &k7, &tmp, &y5, &pi_a, &pi_b,
        &jump_tmp}) {
    buf->clear();
    buf->shrink_to_fit();
  }
  reach_flags.clear();
  reach_flags.shrink_to_fit();
  reached.clear();
  reached.shrink_to_fit();
}

StepOperator::StepOperator(const Ctmc& chain, double dt,
                           const TransientSolver& solver, SolverWorkspace& ws)
    : dt_(dt), n_(chain.num_states()), matrix_(n_ * n_) {
  if (dt < 0.0) {
    throw std::invalid_argument("StepOperator: negative dt");
  }
  std::vector<double> basis(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    basis[i] = 1.0;
    solver.solve_into(chain, basis, dt_, ws,
                      std::span<double>(matrix_).subspan(i * n_, n_));
    basis[i] = 0.0;
  }
}

void StepOperator::advance(std::span<const double> in,
                           std::span<double> out) const {
  if (in.size() != n_ || out.size() != n_) {
    throw std::invalid_argument("StepOperator::advance: size mismatch");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double xi = in[i];
    if (xi == 0.0) continue;  // skipping +/-0 terms never changes a sum
    const double* row = matrix_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) out[j] += xi * row[j];
  }
}

}  // namespace rsmem::markov

#include "models/memory_array.h"

#include <cmath>
#include <stdexcept>

#include "markov/solver_workspace.h"
#include "markov/uniformization.h"

namespace rsmem::models {

namespace {

// Accepts tiny numerical overshoot from the chain solvers (probabilities
// like 1 + 1e-15) and clamps it; anything worse is a caller bug.
double check_probability(double p) {
  constexpr double kSlack = 1e-9;
  if (!(p >= -kSlack && p <= 1.0 + kSlack)) {
    throw std::invalid_argument("memory_array: probability outside [0,1]");
  }
  return std::min(std::max(p, 0.0), 1.0);
}

}  // namespace

double array_survival(double word_fail_probability, std::size_t words) {
  word_fail_probability = check_probability(word_fail_probability);
  if (word_fail_probability >= 1.0) return words == 0 ? 1.0 : 0.0;
  // (1-p)^W = exp(W * log1p(-p)): stable for tiny p and astronomical W.
  return std::exp(static_cast<double>(words) *
                  std::log1p(-word_fail_probability));
}

double array_loss_probability(double word_fail_probability,
                              std::size_t words) {
  word_fail_probability = check_probability(word_fail_probability);
  if (word_fail_probability >= 1.0) return words == 0 ? 0.0 : 1.0;
  return -std::expm1(static_cast<double>(words) *
                     std::log1p(-word_fail_probability));
}

double expected_failed_words(double word_fail_probability,
                             std::size_t words) {
  word_fail_probability = check_probability(word_fail_probability);
  return static_cast<double>(words) * word_fail_probability;
}

double array_mttdl_hours(const SimplexParams& params, std::size_t words,
                         double horizon_hours) {
  if (horizon_hours <= 0.0) {
    throw std::invalid_argument("array_mttdl_hours: horizon must be > 0");
  }
  const markov::StateSpace space = SimplexModel{params}.build();
  if (!space.contains(SimplexModel::fail_state())) {
    throw std::domain_error("array_mttdl_hours: Fail unreachable");
  }
  const std::size_t fail = space.index_of(SimplexModel::fail_state());
  const markov::UniformizationSolver solver;

  // Composite-Simpson integration of R_array(t) on a fixed fine grid; the
  // survival curve is smooth and monotone, so 400 panels are ample.
  constexpr std::size_t kPanels = 400;  // even number of sub-intervals
  std::vector<double> times(kPanels + 1);
  for (std::size_t i = 0; i <= kPanels; ++i) {
    times[i] = horizon_hours * static_cast<double>(i) /
               static_cast<double>(kPanels);
  }
  markov::SolverWorkspace ws;
  const std::vector<double> p_fail =
      solver.occupancy_curve(space.chain, fail, times, ws);

  const double h = horizon_hours / static_cast<double>(kPanels);
  double integral = 0.0;
  for (std::size_t i = 0; i + 2 <= kPanels; i += 2) {
    const double f0 = array_survival(p_fail[i], words);
    const double f1 = array_survival(p_fail[i + 1], words);
    const double f2 = array_survival(p_fail[i + 2], words);
    integral += h / 3.0 * (f0 + 4.0 * f1 + f2);
  }

  // Exponential-tail estimate beyond the horizon from the terminal hazard.
  const double s_end = array_survival(p_fail[kPanels], words);
  if (s_end > 0.0) {
    const double s_prev = array_survival(p_fail[kPanels - 1], words);
    if (s_prev > s_end) {
      const double hazard = std::log(s_prev / s_end) / h;
      integral += s_end / hazard;
    } else {
      // Survival flat at the horizon (e.g. all mass already absorbed or no
      // decay measurable): cannot estimate the tail reliably.
      throw std::domain_error(
          "array_mttdl_hours: survival not decaying at the horizon; "
          "increase horizon_hours");
    }
  }
  return integral;
}

}  // namespace rsmem::models

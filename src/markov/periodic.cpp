#include "markov/periodic.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "markov/solver_workspace.h"

namespace rsmem::markov {

namespace {

void validate(const Ctmc& chain, std::span<const double> pi0,
              std::span<const std::size_t> jump_map, double period) {
  if (pi0.size() != chain.num_states()) {
    throw std::invalid_argument("periodic jump: pi0 size mismatch");
  }
  if (jump_map.size() != chain.num_states()) {
    throw std::invalid_argument("periodic jump: jump_map size mismatch");
  }
  for (const std::size_t target : jump_map) {
    if (target >= chain.num_states()) {
      throw std::invalid_argument("periodic jump: map target out of range");
    }
  }
  if (!std::isfinite(period) || period <= 0.0) {
    throw std::invalid_argument(
        "periodic jump: period must be positive and finite");
  }
}

// pi <- pi routed through jump_map, using `scratch` as the accumulation
// buffer (swapped into pi afterwards).
void apply_jump_into(std::span<const std::size_t> jump_map,
                     std::vector<double>& pi, std::vector<double>& scratch) {
  scratch.assign(pi.size(), 0.0);
  for (std::size_t s = 0; s < pi.size(); ++s) {
    scratch[jump_map[s]] += pi[s];
  }
  pi.swap(scratch);
}

}  // namespace

std::vector<double> solve_with_periodic_jump(
    const Ctmc& chain, std::span<const double> pi0,
    std::span<const std::size_t> jump_map, double period, double t,
    const TransientSolver& solver, SolverWorkspace& ws,
    const StepPolicy& policy) {
  validate(chain, pi0, jump_map, period);
  check_query_times(std::span<const double>(&t, 1));
  const std::size_t n = chain.num_states();
  // Evolve period by period; guard against float drift with a boundary
  // tolerance of one part in 1e-9 of the period.
  const double eps = period * 1e-9;
  const std::size_t cycles =
      t > period - eps ? static_cast<std::size_t>((t + eps) / period) : 0;
  const bool dense = policy.max_dense_states > 0 &&
                     n <= policy.max_dense_states && cycles > n;
  std::optional<StepOperator> op;

  std::vector<double> pi(pi0.begin(), pi0.end());
  ws.pi_b.resize(n);
  double now = 0.0;
  while (t - now > period - eps) {
    if (dense) {
      if (!op) op.emplace(chain, period, solver, ws);
      op->advance(pi, ws.pi_b);
    } else {
      solver.solve_into(chain, pi, period, ws, ws.pi_b);
    }
    pi.swap(ws.pi_b);
    apply_jump_into(jump_map, pi, ws.jump_tmp);
    now += period;
  }
  if (t - now > eps) {
    const double rest = t - now;
    ws.pi_b.resize(n);
    solver.solve_into(chain, pi, rest, ws, ws.pi_b);
    pi.swap(ws.pi_b);
    if (std::fabs(rest - period) <= eps) {
      apply_jump_into(jump_map, pi, ws.jump_tmp);  // query on a jump instant
    }
  }
  return pi;
}

std::vector<double> occupancy_with_periodic_jump(
    const Ctmc& chain, std::size_t state,
    std::span<const std::size_t> jump_map, double period,
    std::span<const double> times, const TransientSolver& solver,
    SolverWorkspace& ws, const StepPolicy& policy) {
  if (state >= chain.num_states()) {
    throw std::invalid_argument("periodic jump: state out of range");
  }
  const std::size_t n = chain.num_states();
  ws.pi_a.assign(n, 0.0);
  ws.pi_a[chain.initial_state()] = 1.0;
  validate(chain, ws.pi_a, jump_map, period);
  check_query_times(times);

  // Anchor (ws.pi_a): the distribution at the last completed scrub cycle
  // (post-jump), carried forward across query times. `now` accumulates
  // period by period exactly like the from-scratch loop, so the
  // cycle-boundary comparisons -- and therefore the whole curve -- are
  // bitwise identical to solving every point from pi(0).
  const double eps = period * 1e-9;
  const std::size_t total_cycles =
      times.empty() ? 0
                    : static_cast<std::size_t>(
                          std::max(0.0, (times.back() + eps) / period));
  const bool dense = policy.max_dense_states > 0 &&
                     n <= policy.max_dense_states && total_cycles > n;
  std::optional<StepOperator> op;

  std::vector<double> result;
  result.reserve(times.size());
  ws.pi_b.resize(n);
  double now = 0.0;
  for (const double t : times) {
    while (t - now > period - eps) {
      if (dense) {
        if (!op) op.emplace(chain, period, solver, ws);
        op->advance(ws.pi_a, ws.pi_b);
      } else {
        solver.solve_into(chain, ws.pi_a, period, ws, ws.pi_b);
      }
      std::swap(ws.pi_a, ws.pi_b);
      apply_jump_into(jump_map, ws.pi_a, ws.jump_tmp);
      now += period;
    }
    if (t - now > eps) {
      // Mid-cycle query: advance a scratch copy, leaving the anchor at the
      // cycle boundary for the next query.
      const double rest = t - now;
      solver.solve_into(chain, ws.pi_a, rest, ws, ws.pi_b);
      if (std::fabs(rest - period) <= eps) {
        apply_jump_into(jump_map, ws.pi_b, ws.jump_tmp);  // on a jump instant
      }
      result.push_back(ws.pi_b[state]);
    } else {
      result.push_back(ws.pi_a[state]);
    }
  }
  return result;
}

}  // namespace rsmem::markov

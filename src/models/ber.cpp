#include "models/ber.h"

#include <cmath>
#include <stdexcept>

#include "markov/solver_workspace.h"

namespace rsmem::models {

double ber_scale(unsigned n, unsigned k, unsigned m) {
  if (k == 0 || k >= n) throw std::invalid_argument("ber_scale: 0 < k < n");
  return static_cast<double>(m) * static_cast<double>(n - k) /
         static_cast<double>(k);
}

BerCurve ber_curve(const markov::StateSpace& space,
                   markov::PackedState fail_packed, double scale,
                   std::span<const double> times_hours,
                   const markov::TransientSolver& solver,
                   markov::SolverWorkspace& ws,
                   const markov::StepPolicy& policy) {
  BerCurve curve;
  curve.times_hours.assign(times_hours.begin(), times_hours.end());
  if (!space.contains(fail_packed)) {
    // Fail is unreachable (e.g. all rates zero): BER is identically 0.
    markov::check_query_times(times_hours);
    curve.fail_probability.assign(times_hours.size(), 0.0);
    curve.ber.assign(times_hours.size(), 0.0);
    return curve;
  }
  const std::size_t fail_index = space.index_of(fail_packed);
  curve.fail_probability =
      solver.occupancy_curve(space.chain, fail_index, times_hours, ws, policy);
  curve.ber.reserve(curve.fail_probability.size());
  for (const double p : curve.fail_probability) {
    curve.ber.push_back(scale * p);
  }
  return curve;
}

BerCurve simplex_ber_curve(const SimplexParams& params,
                           std::span<const double> times_hours,
                           const markov::TransientSolver& solver) {
  const markov::StateSpace space = SimplexModel{params}.build();
  markov::SolverWorkspace ws;
  return ber_curve(space, SimplexModel::fail_state(),
                   ber_scale(params.n, params.k, params.m), times_hours,
                   solver, ws);
}

BerCurve duplex_ber_curve(const DuplexParams& params,
                          std::span<const double> times_hours,
                          const markov::TransientSolver& solver) {
  const markov::StateSpace space = DuplexModel{params}.build();
  markov::SolverWorkspace ws;
  return ber_curve(space, DuplexModel::fail_state(),
                   ber_scale(params.n, params.k, params.m), times_hours,
                   solver, ws);
}

BerCurve simplex_ber_curve(const SimplexParams& params,
                           std::span<const double> times_hours,
                           const markov::TransientSolver& solver,
                           ChainCache& cache, markov::SolverWorkspace& ws,
                           const markov::StepPolicy& policy) {
  const std::shared_ptr<const markov::StateSpace> space =
      cache.simplex(params);
  return ber_curve(*space, SimplexModel::fail_state(),
                   ber_scale(params.n, params.k, params.m), times_hours,
                   solver, ws, policy);
}

BerCurve duplex_ber_curve(const DuplexParams& params,
                          std::span<const double> times_hours,
                          const markov::TransientSolver& solver,
                          ChainCache& cache, markov::SolverWorkspace& ws,
                          const markov::StepPolicy& policy) {
  const std::shared_ptr<const markov::StateSpace> space = cache.duplex(params);
  return ber_curve(*space, DuplexModel::fail_state(),
                   ber_scale(params.n, params.k, params.m), times_hours,
                   solver, ws, policy);
}

std::vector<double> time_grid_hours(double t_end_hours, std::size_t points) {
  if (points < 2 || !std::isfinite(t_end_hours) || t_end_hours <= 0.0) {
    throw std::invalid_argument(
        "time_grid_hours: need >=2 points and a finite t_end > 0");
  }
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = t_end_hours * static_cast<double>(i) /
              static_cast<double>(points - 1);
  }
  return grid;
}

}  // namespace rsmem::models

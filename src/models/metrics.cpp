#include "models/metrics.h"

#include <stdexcept>

#include "markov/absorption.h"
#include "markov/periodic.h"
#include "markov/solver_workspace.h"

namespace rsmem::models {

namespace {

// BER(t) on the fault-only chain `space` with its scrub map applied every
// `tsc_hours`; target_of gives each state's post-scrub state. By
// construction every scrub target is reachable in the fault-only chain
// (permanent damage accumulates through C/A transitions), so a missing
// target indicates model breakage.
template <typename ScrubTarget>
BerCurve periodic_scrub_ber(const markov::StateSpace& space,
                            markov::PackedState fail_packed, double scale,
                            const ScrubTarget& target_of, double tsc_hours,
                            std::span<const double> times_hours,
                            const markov::TransientSolver& solver) {
  BerCurve curve;
  curve.times_hours.assign(times_hours.begin(), times_hours.end());
  if (!space.contains(fail_packed)) {
    markov::check_query_times(times_hours);
    curve.fail_probability.assign(times_hours.size(), 0.0);
    curve.ber.assign(times_hours.size(), 0.0);
    return curve;
  }
  std::vector<std::size_t> jump_map(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto it = space.index.find(target_of(space.states[i]));
    if (it == space.index.end()) {
      throw std::logic_error("metrics: scrub target not in state space");
    }
    jump_map[i] = it->second;
  }
  markov::SolverWorkspace ws;
  curve.fail_probability = markov::occupancy_with_periodic_jump(
      space.chain, space.index_of(fail_packed), jump_map, tsc_hours,
      times_hours, solver, ws);
  curve.ber.reserve(curve.fail_probability.size());
  for (const double p : curve.fail_probability) curve.ber.push_back(scale * p);
  return curve;
}

}  // namespace

double simplex_mttf_hours(const SimplexParams& params) {
  const markov::StateSpace space = SimplexModel{params}.build();
  if (!space.contains(SimplexModel::fail_state())) {
    throw std::domain_error(
        "simplex_mttf_hours: Fail unreachable (all fault rates zero?)");
  }
  return markov::analyze_absorption(space.chain).mttf;
}

double duplex_mttf_hours(const DuplexParams& params) {
  const markov::StateSpace space = DuplexModel{params}.build();
  if (!space.contains(DuplexModel::fail_state())) {
    throw std::domain_error(
        "duplex_mttf_hours: Fail unreachable (all fault rates zero?)");
  }
  return markov::analyze_absorption(space.chain).mttf;
}

BerCurve simplex_periodic_scrub_ber(const SimplexParams& params,
                                    double tsc_hours,
                                    std::span<const double> times_hours,
                                    const markov::TransientSolver& solver) {
  SimplexParams fault_only = params;
  fault_only.scrub_rate_per_hour = 0.0;
  return periodic_scrub_ber(
      SimplexModel{fault_only}.build(), SimplexModel::fail_state(),
      ber_scale(params.n, params.k, params.m),
      [](markov::PackedState s) -> markov::PackedState {
        if (SimplexModel::is_fail(s)) return s;
        return SimplexModel::pack(SimplexModel::erasures_of(s), 0);
      },
      tsc_hours, times_hours, solver);
}

BerCurve duplex_periodic_scrub_ber(const DuplexParams& params,
                                   double tsc_hours,
                                   std::span<const double> times_hours,
                                   const markov::TransientSolver& solver) {
  DuplexParams fault_only = params;
  fault_only.scrub_rate_per_hour = 0.0;
  return periodic_scrub_ber(
      DuplexModel{fault_only}.build(), DuplexModel::fail_state(),
      ber_scale(params.n, params.k, params.m),
      [](markov::PackedState s) -> markov::PackedState {
        if (DuplexModel::is_fail(s)) return s;
        const DuplexState d = DuplexModel::unpack(s);
        DuplexState scrubbed;
        scrubbed.x = d.x;
        scrubbed.y = d.y + d.b;
        return DuplexModel::pack(scrubbed);
      },
      tsc_hours, times_hours, solver);
}

}  // namespace rsmem::models

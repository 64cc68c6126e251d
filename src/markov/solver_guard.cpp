#include "markov/solver_guard.h"

#include <cmath>
#include <string>

#include "markov/expm.h"
#include "markov/rk45.h"
#include "markov/uniformization.h"

namespace rsmem::markov {

const char* to_string(GuardTrip trip) {
  switch (trip) {
    case GuardTrip::kNone:
      return "none";
    case GuardTrip::kNonFinite:
      return "non-finite";
    case GuardTrip::kNegativeMass:
      return "negative-mass";
    case GuardTrip::kMassDrift:
      return "mass-drift";
    case GuardTrip::kForced:
      return "forced";
  }
  return "unknown";
}

const char* to_string(SolverStage stage) {
  switch (stage) {
    case SolverStage::kUniformization:
      return "uniformization";
    case SolverStage::kRk45:
      return "rk45";
    case SolverStage::kDenseExpm:
      return "dense-expm";
  }
  return "unknown";
}

GuardTrip check_distribution(std::span<const double> out, double pi0_mass) {
  double sum = 0.0;
  for (const double p : out) {
    if (!std::isfinite(p)) return GuardTrip::kNonFinite;
    if (p < -kNegativeTolerance) return GuardTrip::kNegativeMass;
    sum += p;
  }
  if (std::abs(sum - pi0_mass) > kMassTolerance) {
    return GuardTrip::kMassDrift;
  }
  return GuardTrip::kNone;
}

namespace {

double mass_of(std::span<const double> pi0) {
  double sum = 0.0;
  for (const double p : pi0) sum += p;
  return sum;
}

bool stage_forced(const SolverGuardConfig& config, SolverStage stage) {
  switch (stage) {
    case SolverStage::kUniformization:
      return config.force_uniformization_trip;
    case SolverStage::kRk45:
      return config.force_rk45_trip;
    case SolverStage::kDenseExpm:
      return config.force_expm_trip;
  }
  return false;
}

std::string describe_attempts(const GuardedSolveReport& report) {
  std::string out;
  for (const SolverAttempt& attempt : report.attempts) {
    if (!out.empty()) out += ", ";
    out += to_string(attempt.stage);
    out += "=";
    out += to_string(attempt.trip);
  }
  return out;
}

}  // namespace

GuardedTransientSolver::GuardedTransientSolver(SolverGuardConfig config)
    : config_(config) {}

void GuardedTransientSolver::solve_into(const Ctmc& chain,
                                        std::span<const double> pi0, double t,
                                        SolverWorkspace& ws,
                                        std::span<double> out) const {
  const double pi0_mass = mass_of(pi0);
  ++solves_;
  last_report_ = GuardedSolveReport{};

  constexpr SolverStage kChain[] = {SolverStage::kUniformization,
                                    SolverStage::kRk45,
                                    SolverStage::kDenseExpm};
  for (const SolverStage stage : kChain) {
    switch (stage) {
      case SolverStage::kUniformization: {
        const UniformizationSolver solver;
        solver.solve_into(chain, pi0, t, ws, out);
        break;
      }
      case SolverStage::kRk45: {
        const Rk45Solver solver;
        solver.solve_into(chain, pi0, t, ws, out);
        break;
      }
      case SolverStage::kDenseExpm: {
        const ExpmSolver solver;
        solver.solve_into(chain, pi0, t, ws, out);
        break;
      }
    }
    GuardTrip trip = stage_forced(config_, stage)
                         ? GuardTrip::kForced
                         : check_distribution(out, pi0_mass);
    last_report_.attempts.push_back({stage, trip});
    if (trip == GuardTrip::kNone) {
      last_report_.answered_by = stage;
      last_report_.fallback_used = stage != SolverStage::kUniformization;
      if (last_report_.fallback_used) ++fallbacks_taken_;
      return;
    }
    if (!config_.enable_fallback) break;
  }

  throw core::StatusError(core::Status::solver_divergence(
      "transient solve at t=" + std::to_string(t) +
      " h rejected by every stage of the fallback chain (" +
      describe_attempts(last_report_) + ")"));
}

}  // namespace rsmem::markov

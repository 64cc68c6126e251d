// Numerically guarded transient solves with an automatic fallback chain.
//
// The paper's chains are tiny but their regimes are extreme: uniformization
// at q*t ~ 1e5 (48 h of scrubbing every 900 s) next to absorption tails at
// 1e-200. A silent NaN or negative "probability" from one solver would
// poison every derived figure. The GuardedTransientSolver wraps each solve
// in distribution guards -- finiteness, no negative mass beyond tolerance,
// probability-mass conservation -- and on a trip falls back along a chain
// of numerically independent methods:
//
//     uniformization  ->  RK45 (Dormand-Prince)  ->  dense expm (Pade)
//
// recording which stage answered and why the earlier ones were rejected.
// When no guard trips (the normal case) the result is the untouched
// uniformization output, bitwise identical to calling that solver directly.
// When every stage trips, the solve throws core::StatusError with
// StatusCode::kSolverDivergence.
//
// The force_*_trip knobs reject a stage's (still computed) answer
// unconditionally; the adversarial fault-injection campaign uses them to
// prove the fallback chain recovers (analysis/fault_campaign.h).
#ifndef RSMEM_MARKOV_SOLVER_GUARD_H
#define RSMEM_MARKOV_SOLVER_GUARD_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "markov/ctmc.h"

namespace rsmem::markov {

// Why a stage's answer was rejected. kNone = accepted.
enum class GuardTrip : std::uint8_t {
  kNone,
  kNonFinite,     // NaN or infinity in the distribution
  kNegativeMass,  // an entry below -kNegativeTolerance
  kMassDrift,     // |sum(out) - sum(pi0)| above kMassTolerance
  kForced,        // adversarial knob (fault-injection campaigns)
};
const char* to_string(GuardTrip trip);

enum class SolverStage : std::uint8_t {
  kUniformization,
  kRk45,
  kDenseExpm,
};
const char* to_string(SolverStage stage);

// Entries in [-kNegativeTolerance, 0) are accepted as roundoff; anything
// more negative trips kNegativeMass.
inline constexpr double kNegativeTolerance = 1e-12;
// Probability mass must be conserved: |sum(out) - sum(pi0)| <= this.
inline constexpr double kMassTolerance = 1e-9;

struct SolverGuardConfig {
  // false: a trip in the first stage is immediately fatal (no fallback).
  bool enable_fallback = true;
  // Adversarial knobs: unconditionally reject the stage's answer with
  // GuardTrip::kForced, exercising the next rung of the chain.
  bool force_uniformization_trip = false;
  bool force_rk45_trip = false;
  bool force_expm_trip = false;
};

struct SolverAttempt {
  SolverStage stage = SolverStage::kUniformization;
  GuardTrip trip = GuardTrip::kNone;  // kNone = this stage answered
};

struct GuardedSolveReport {
  SolverStage answered_by = SolverStage::kUniformization;
  bool fallback_used = false;
  std::vector<SolverAttempt> attempts;  // in chain order
};

// First guard trip for `out` given the input mass `pi0_mass` (kForced is
// never returned here). Exposed for tests.
GuardTrip check_distribution(std::span<const double> out, double pi0_mass);

class GuardedTransientSolver final : public TransientSolver {
 public:
  explicit GuardedTransientSolver(SolverGuardConfig config = {});

  // Routed through the chain stage-by-stage; identical buffers/windows to
  // the underlying UniformizationSolver when no guard trips.
  void solve_into(const Ctmc& chain, std::span<const double> pi0, double t,
                  SolverWorkspace& ws, std::span<double> out) const override;

  const SolverGuardConfig& config() const { return config_; }

  // Report of the most recent solve on this instance. Like the
  // solver workspaces, a guarded solver instance is per-thread state.
  const GuardedSolveReport& last_report() const { return last_report_; }

  // Cumulative counters across the instance's lifetime.
  std::uint64_t solves() const { return solves_; }
  std::uint64_t fallbacks_taken() const { return fallbacks_taken_; }

 private:
  SolverGuardConfig config_;
  mutable GuardedSolveReport last_report_;
  mutable std::uint64_t solves_ = 0;
  mutable std::uint64_t fallbacks_taken_ = 0;
};

}  // namespace rsmem::markov

#endif  // RSMEM_MARKOV_SOLVER_GUARD_H

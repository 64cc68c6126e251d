// CTMC model of a simplex memory whose permanent faults take TIME to locate.
//
// Paper Section 2: "Until the permanent fault is located, the error
// correction algorithm assumes the erroneous behavior to be caused by a
// random error, thus degrading the overall error correction capability...
// When the permanent fault is located, the capability of the RS code can be
// fully exploited." The base models assume instant location (Iddq / on-line
// test with zero latency). This model makes location a first-class event:
//
// state (eu, ed, re):
//   eu - permanent faults not yet located: consume RANDOM-ERROR budget (2x),
//   ed - located permanent faults: erasures (1x),
//   re - transient random errors.
// A read succeeds iff ed + 2*(eu + re) <= n - k.
//
// Unlike the base chains, an unrecoverable state here is NOT absorbing:
// nothing has been overwritten, so locating the offending faults (weight
// 2 -> 1) can make the word readable again before the next access. Failure
// is therefore a READ-TIME property -- the probability of sitting in an
// unrecoverable state at the stopping time -- exactly the paper's read
// semantics ("a read operation corresponds to the so-called stopping time").
// With an instant detector (delta -> infinity) the model reduces to the
// paper's base simplex chain.
//
// Events: SEU (rate m*lambda per clean symbol), permanent fault (lambda_e
// per symbol, arrives UNDETECTED; on an SEU-hit symbol it subsumes the
// transient), detection (delta per undetected fault; mean location latency
// 1/delta), scrubbing (clears re, only possible from recoverable states --
// the scrub's own decode fails otherwise and rewrites nothing).
#ifndef RSMEM_MODELS_DETECTION_MODEL_H
#define RSMEM_MODELS_DETECTION_MODEL_H

#include <span>
#include <vector>

#include "markov/state_space.h"

namespace rsmem::models {

struct DetectionParams {
  unsigned n = 18;
  unsigned k = 16;
  unsigned m = 8;

  double seu_rate_per_bit_hour = 0.0;         // lambda
  double erasure_rate_per_symbol_hour = 0.0;  // lambda_e
  double detection_rate_per_hour = 0.0;       // delta; 0 = never located
  double scrub_rate_per_hour = 0.0;           // 1/Tsc; 0 = no scrubbing
};

struct DetectionState {
  unsigned eu = 0;  // unlocated permanent faults
  unsigned ed = 0;  // located permanent faults (erasures)
  unsigned re = 0;  // transient random errors
  friend bool operator==(const DetectionState&, const DetectionState&) =
      default;
};

class DetectionModel final : public markov::TransitionModel {
 public:
  explicit DetectionModel(const DetectionParams& params);

  const DetectionParams& params() const { return params_; }

  static markov::PackedState pack(const DetectionState& s);
  static DetectionState unpack(markov::PackedState s);

  bool recoverable(const DetectionState& s) const {
    return s.ed + 2 * (s.eu + s.re) <= params_.n - params_.k;
  }
  bool recoverable_packed(markov::PackedState s) const {
    return recoverable(unpack(s));
  }

  markov::PackedState initial_state() const override;
  void for_each_transition(markov::PackedState state,
                           const markov::TransitionSink& emit) const override;

  markov::StateSpace build() const;

  // P(read fails at t) = total probability of unrecoverable states, for
  // each time. Throws std::invalid_argument unless the times are finite,
  // non-negative and sorted ascending (markov::check_query_times).
  std::vector<double> fail_probability(const markov::StateSpace& space,
                                       std::span<const double> times_hours,
                                       const markov::TransientSolver& solver)
      const;

 private:
  DetectionParams params_;
};

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_DETECTION_MODEL_H

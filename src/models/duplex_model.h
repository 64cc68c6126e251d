// CTMC model of the RS-coded DUPLEX memory system (paper Section 5,
// Figs. 3 and 4).
//
// The two replicated modules hold the same RS(n,k) codeword; each state is
// the 6-tuple (X, Y, b, e1, e2, ec) classifying the n symbol PAIRS:
//   X  - both copies of the symbol erased,
//   Y  - exactly one copy erased, the other error-free (the arbiter masks
//        these during its erasure-recovery step),
//   b  - one copy erased, the other hit by a random error,
//   e1 - random error in word 1 only,
//   e2 - random error in word 2 only,
//   ec - random errors in both copies of the symbol.
//
// After the arbiter's erasure recovery, each word w must satisfy
//   X + 2*(b + ec + e_w) <= n - k          (paper Section 5)
// or the system is in the absorbing Fail state.
//
// Transitions A..O follow Fig. 4 of the paper; scrubbing jumps to
// (X, Y+b, 0, 0, 0, 0) at rate 1/Tsc (permanent faults survive, the random
// error of each b pair is cleaned leaving a single-sided erasure).
//
// Two documented deviations are selectable (DESIGN.md section 2):
//  * The text of the paper gives transition B's rate as lambda_e*Y while
//    Fig. 4 and dimensional analysis give lambda_e*b. Fig. 4 is the default;
//    `use_text_rate_for_b` reproduces the text variant for the ablation.
//  * The paper counts a symbol pair as ONE erasure-exposure unit in
//    transitions C and F although two physical symbols are exposed.
//    RateConvention::kPerPhysicalSymbol doubles those two rates.
#ifndef RSMEM_MODELS_DUPLEX_MODEL_H
#define RSMEM_MODELS_DUPLEX_MODEL_H

#include "markov/state_space.h"

namespace rsmem::models {

enum class RateConvention {
  kPaper,             // rates exactly as printed in Fig. 4
  kPerPhysicalSymbol  // every physical symbol is an exposure unit
};

// When is the duplex unrecoverable? The paper's Section 5 wording ("either
// of the following conditions must be satisfied") is ambiguous, but its
// Fig. 6 -- duplex BER in the same range as the simplex under SEU-only
// loads -- matches the conservative reading: the chain fails as soon as
// EITHER word exceeds its budget. The physical arbiter usually survives a
// single lost word by selecting the other one, so kBothWordsUnrecoverable
// brackets the real system from below (see the Monte-Carlo cross-validation
// tests and EXPERIMENTS.md).
enum class FailCriterion {
  kAnyWordUnrecoverable,   // paper default (conservative)
  kBothWordsUnrecoverable  // arbiter-optimistic lower bound
};

struct DuplexParams {
  unsigned n = 18;
  unsigned k = 16;
  unsigned m = 8;

  double seu_rate_per_bit_hour = 0.0;         // lambda
  double erasure_rate_per_symbol_hour = 0.0;  // lambda_e
  double scrub_rate_per_hour = 0.0;           // 1/Tsc; 0 = no scrubbing

  RateConvention convention = RateConvention::kPaper;
  FailCriterion fail_criterion = FailCriterion::kAnyWordUnrecoverable;
  bool use_text_rate_for_b = false;  // erratum ablation (see header comment)

  friend bool operator==(const DuplexParams&, const DuplexParams&) = default;
};

struct DuplexState {
  unsigned x = 0;   // double erasures
  unsigned y = 0;   // single erasures (maskable)
  unsigned b = 0;   // erasure + random error pairs
  unsigned e1 = 0;  // random errors in word 1 only
  unsigned e2 = 0;  // random errors in word 2 only
  unsigned ec = 0;  // random errors in both words

  unsigned total_pairs_touched() const { return x + y + b + e1 + e2 + ec; }
  friend bool operator==(const DuplexState&, const DuplexState&) = default;
};

class DuplexModel final : public markov::TransitionModel {
 public:
  explicit DuplexModel(const DuplexParams& params);

  const DuplexParams& params() const { return params_; }

  static markov::PackedState pack(const DuplexState& s);
  static DuplexState unpack(markov::PackedState s);
  static markov::PackedState fail_state();
  static bool is_fail(markov::PackedState s);

  // Both words decodable after erasure recovery (Y masked)?
  bool recoverable(const DuplexState& s) const;

  markov::PackedState initial_state() const override;
  void for_each_transition(markov::PackedState state,
                           const markov::TransitionSink& emit) const override;

  markov::StateSpace build() const;

 private:
  DuplexParams params_;
};

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_DUPLEX_MODEL_H

// CTMC model of the RS-coded SIMPLEX memory system (paper Section 5, Fig. 2;
// originally introduced in reference [7] of the paper).
//
// One codeword of an RS(n,k) code over GF(2^m) is tracked. A state S(er,re)
// counts er erased symbols (located permanent faults) and re symbols hit by
// random errors (SEU bit flips). The word is recoverable while
//     er + 2*re <= n - k;
// any event that would violate the bound moves the chain to the absorbing
// Fail state.
//
// Events and rates (all rates per hour):
//  * SEU on an untouched symbol:    m * lambda * (n - er - re) -> (er, re+1)
//  * erasure on an untouched symbol:      lambda_e * (n - er - re) -> (er+1, re)
//  * erasure on an SEU-hit symbol:        lambda_e * re -> (er+1, re-1)
//  * scrubbing (rate 1/Tsc):              (er, re) -> (er, 0)
// SEUs on already-erased or already-hit symbols do not change the state
// (paper assumptions, Section 4).
#ifndef RSMEM_MODELS_SIMPLEX_MODEL_H
#define RSMEM_MODELS_SIMPLEX_MODEL_H

#include "markov/state_space.h"

namespace rsmem::models {

struct SimplexParams {
  unsigned n = 18;  // codeword symbols
  unsigned k = 16;  // data symbols
  unsigned m = 8;   // bits per symbol

  double seu_rate_per_bit_hour = 0.0;        // lambda
  double erasure_rate_per_symbol_hour = 0.0;  // lambda_e
  double scrub_rate_per_hour = 0.0;           // 1/Tsc; 0 = no scrubbing

  // Multi-bit upset extension (the paper assumes single-bit SEUs): fraction
  // of SEU arrivals that flip a burst of `mbu_span_bits` adjacent bits.
  // Bursts that stay inside one symbol are absorbed exactly like a
  // single-bit flip (RS corrects symbols, not bits); bursts crossing a
  // symbol boundary corrupt TWO adjacent symbols. Symbol adjacency is not
  // part of the state, so pair placement uses the mean-field approximation
  // P(both clean) = u(u-1)/(n(n-1)); the functional injector realizes the
  // exact geometry and bench_mbu compares the two. Requires
  // 2 <= mbu_span_bits <= m when mbu_probability > 0.
  double mbu_probability = 0.0;
  unsigned mbu_span_bits = 2;

  friend bool operator==(const SimplexParams&, const SimplexParams&) = default;
};

class SimplexModel final : public markov::TransitionModel {
 public:
  // Throws std::invalid_argument on inconsistent code parameters or
  // negative rates.
  explicit SimplexModel(const SimplexParams& params);

  const SimplexParams& params() const { return params_; }

  // State packing: er in bits [0,16), re in bits [16,32); the Fail state is
  // a dedicated sentinel.
  static markov::PackedState pack(unsigned er, unsigned re);
  static unsigned erasures_of(markov::PackedState s);
  static unsigned random_errors_of(markov::PackedState s);
  static markov::PackedState fail_state();
  static bool is_fail(markov::PackedState s);

  bool recoverable(unsigned er, unsigned re) const {
    return er + 2 * re <= params_.n - params_.k;
  }

  markov::PackedState initial_state() const override;
  void for_each_transition(markov::PackedState state,
                           const markov::TransitionSink& emit) const override;

  // Builds the reachable chain.
  markov::StateSpace build() const;

 private:
  SimplexParams params_;
};

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_SIMPLEX_MODEL_H

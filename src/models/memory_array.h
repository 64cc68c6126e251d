// Whole-memory (array-level) metrics.
//
// The paper's chains track ONE codeword and note that "the extension by
// considering the whole memory is straightforward". This module is that
// extension: an SSMM stores `words` independent codewords (fault processes
// are per-cell, hence independent across words), so array-level figures
// follow from the per-word fail probability p(t):
//     R_array(t)          = (1 - p)^W          (no word lost)
//     E[failed words](t)  = W * p
//     P(data loss)        = 1 - (1 - p)^W
// plus the array MTTDL obtained by integrating R_array over the word-level
// chain solution.
#ifndef RSMEM_MODELS_MEMORY_ARRAY_H
#define RSMEM_MODELS_MEMORY_ARRAY_H

#include <cstddef>
#include <span>

#include "models/ber.h"

namespace rsmem::models {

// Probability that none of `words` i.i.d. codewords has failed, given the
// per-word fail probability. Computed in log space so W ~ 1e9 words with
// tiny p stay accurate. Throws std::invalid_argument for p outside [0,1].
double array_survival(double word_fail_probability, std::size_t words);

// 1 - array_survival, accurate for tiny p*W via expm1.
double array_loss_probability(double word_fail_probability,
                              std::size_t words);

double expected_failed_words(double word_fail_probability,
                             std::size_t words);

// Mean time to first data loss of the array (hours): integrates the array
// survival over time by adaptive Simpson on the word-level chain solution.
// `horizon_hours` bounds the integration; the tail beyond it is estimated
// from the final hazard (and is negligible when survival(horizon) ~ 0).
double array_mttdl_hours(const SimplexParams& params, std::size_t words,
                         double horizon_hours);

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_MEMORY_ARRAY_H

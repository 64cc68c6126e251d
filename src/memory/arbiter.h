// The duplex arbiter (paper Section 3, Fig. 1).
//
// Decision procedure, applied to the two words read from the replicated
// modules together with each module's detected-erasure information:
//  1. Erasure recovery: a symbol erased in exactly ONE module is masked by
//     copying the homologous symbol from the other module. Symbols erased
//     in BOTH modules remain erasures for the decoders.
//  2. Both masked words are decoded independently (errors + the common
//     erasures). A per-word flag is set when the decoder performed a
//     correction.
//  3. Comparison:
//       - no flag set                          -> output word 1
//       - words equal, >= 1 flag               -> output word 1
//       - words differ, exactly one flag set   -> output the unflagged word
//       - words differ, both flags set         -> NO OUTPUT (the arbiter
//         cannot tell a correction from a mis-correction)
//     A word whose decode FAILS (detected uncorrectable) is never selected;
//     if both fail there is no output.
// The arbiter itself is assumed fault-free (hard core), as in the paper.
#ifndef RSMEM_MEMORY_ARBITER_H
#define RSMEM_MEMORY_ARBITER_H

#include <cstdint>
#include <span>
#include <vector>

#include "rs/reed_solomon.h"

namespace rsmem::memory {

using gf::Element;

enum class ArbiterDecision : std::uint8_t {
  kWord1,     // word 1 (possibly corrected) is the output
  kWord2,     // word 2 (possibly corrected) is the output
  kNoOutput,  // unrecoverable: discrimination impossible
};

// The paper's rule 1 reads "If no flag is set, then one of the two words is
// provided as output (no error/fault present)" -- i.e. the comparison is
// skipped when neither decoder corrected anything. Should the two words
// have silently diverged into two DIFFERENT valid codewords (e.g. after a
// mis-scrub), the verbatim rule outputs one of them blind. kCompareFirst
// compares unconditionally and declares no-output on an unflagged
// mismatch -- strictly safer at the cost of availability.
enum class ArbiterPolicy : std::uint8_t {
  kPaperVerbatim,
  kCompareFirst,
};

struct ArbiterResult {
  ArbiterDecision decision = ArbiterDecision::kNoOutput;
  std::vector<Element> output;  // selected codeword; empty when kNoOutput

  rs::DecodeOutcome outcome1;
  rs::DecodeOutcome outcome2;
  bool flag1 = false;  // correction performed on word 1
  bool flag2 = false;

  std::vector<unsigned> common_erasures;  // erased in both modules (X)
  unsigned masked_erasures = 0;           // recovered by masking (|Y|+|b|)

  bool has_output() const { return decision != ArbiterDecision::kNoOutput; }
};

class Arbiter {
 public:
  // Keeps a reference to the codec; the owner must keep it alive.
  explicit Arbiter(const rs::ReedSolomon& code,
                   ArbiterPolicy policy = ArbiterPolicy::kPaperVerbatim)
      : code_(&code), policy_(policy) {}

  // `word1`/`word2` are the raw module reads (length n);
  // `erasures1`/`erasures2` the modules' detected-fault symbol positions
  // (duplicates allowed; a position >= n throws std::invalid_argument).
  // Copies the words and marks the lists into flag planes, then runs
  // arbitrate_planes on them.
  ArbiterResult arbitrate(std::span<const Element> word1,
                          std::span<const Element> word2,
                          std::span<const unsigned> erasures1,
                          std::span<const unsigned> erasures2) const;

  // The whole procedure in place on caller-owned planes (the layout
  // MemoryModule::read_into_plane emits): mask_erasures, the two decodes,
  // then select. Every field of `result` is overwritten; its vectors keep
  // their capacity, so a caller that reuses one result (and planes) across
  // calls arbitrates without heap allocation in steady state.
  void arbitrate_planes(std::span<Element> word1, std::span<Element> word2,
                        std::span<std::uint8_t> flags1,
                        std::span<std::uint8_t> flags2,
                        ArbiterResult& result) const;

  // Split surface for batched campaigns: the decision procedure with step 2
  // (the two decodes) lifted out, so a caller can gather many masked word
  // pairs into one rs::decode_batch plane. `mask_erasures` then external
  // decodes then `select` is bit-identical to one arbitrate() call.
  //
  // Step 1 on erasure-flag planes: masks single-sided erasures in place,
  // rewrites BOTH flag spans to the common-erasure indicator (erased in
  // both modules — exactly the erasure_flags decode_batch must see for each
  // word of the pair), and refills result.common_erasures /
  // result.masked_erasures.
  void mask_erasures(std::span<Element> word1, std::span<Element> word2,
                     std::span<std::uint8_t> flags1,
                     std::span<std::uint8_t> flags2,
                     ArbiterResult& result) const;

  // Step 3: flag-based selection. Requires result.outcome1/outcome2 already
  // set (by arbitrate_planes' own decodes or by decode_batch) and
  // `word1`/`word2` to hold the post-decode words; fills flags, decision
  // and output (cleared when there is no output).
  void select(std::span<const Element> word1, std::span<const Element> word2,
              ArbiterResult& result) const;

 private:
  const rs::ReedSolomon* code_;
  ArbiterPolicy policy_;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_ARBITER_H

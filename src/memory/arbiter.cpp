#include "memory/arbiter.h"

#include <algorithm>
#include <stdexcept>

namespace rsmem::memory {

void Arbiter::mask_erasures(std::span<Element> word1, std::span<Element> word2,
                            std::span<std::uint8_t> flags1,
                            std::span<std::uint8_t> flags2,
                            ArbiterResult& result) const {
  const unsigned n = code_->n();
  if (word1.size() != n || word2.size() != n || flags1.size() != n ||
      flags2.size() != n) {
    throw std::invalid_argument("Arbiter::mask_erasures: span size != n");
  }
  // Step 1: erasure recovery. Single-sided erasures are masked from the
  // healthy module; double-sided ones stay erasures (for both decoders).
  result.common_erasures.clear();
  result.masked_erasures = 0;
  for (unsigned p = 0; p < n; ++p) {
    const bool in1 = flags1[p] != 0;
    const bool in2 = flags2[p] != 0;
    if (in1 && in2) {
      result.common_erasures.push_back(p);
    } else if (in1) {
      word1[p] = word2[p];
      flags1[p] = 0;
      ++result.masked_erasures;
    } else if (in2) {
      word2[p] = word1[p];
      flags2[p] = 0;
      ++result.masked_erasures;
    }
  }
}

void Arbiter::select(std::span<const Element> word1,
                     std::span<const Element> word2,
                     ArbiterResult& result) const {
  result.flag1 = result.outcome1.correction_flag();
  result.flag2 = result.outcome2.correction_flag();
  const bool ok1 = result.outcome1.ok();
  const bool ok2 = result.outcome2.ok();

  // Step 3: comparison / selection.
  result.output.clear();
  if (!ok1 && !ok2) {
    result.decision = ArbiterDecision::kNoOutput;
    return;
  }
  if (ok1 != ok2) {
    // A detected decode failure disqualifies that word.
    result.decision = ok1 ? ArbiterDecision::kWord1 : ArbiterDecision::kWord2;
    const auto& w = ok1 ? word1 : word2;
    result.output.assign(w.begin(), w.end());
    return;
  }

  const bool equal = std::equal(word1.begin(), word1.end(), word2.begin());
  if (!result.flag1 && !result.flag2) {
    // No correction anywhere: no error/fault present (paper rule 1). The
    // kCompareFirst policy still insists the copies agree.
    if (policy_ == ArbiterPolicy::kCompareFirst && !equal) {
      result.decision = ArbiterDecision::kNoOutput;
      return;
    }
    result.decision = ArbiterDecision::kWord1;
    result.output.assign(word1.begin(), word1.end());
    return;
  }
  if (equal) {
    // Equal words, at least one flag: the correction was right (rule 2).
    result.decision = ArbiterDecision::kWord1;
    result.output.assign(word1.begin(), word1.end());
    return;
  }
  if (result.flag1 != result.flag2) {
    // Different words, one flag: the flagged module mis-corrected (rule 3).
    if (result.flag1) {
      result.decision = ArbiterDecision::kWord2;
      result.output.assign(word2.begin(), word2.end());
    } else {
      result.decision = ArbiterDecision::kWord1;
      result.output.assign(word1.begin(), word1.end());
    }
    return;
  }
  // Different words, both flags set: indistinguishable (rule 4).
  result.decision = ArbiterDecision::kNoOutput;
}

void Arbiter::arbitrate_planes(std::span<Element> word1,
                               std::span<Element> word2,
                               std::span<std::uint8_t> flags1,
                               std::span<std::uint8_t> flags2,
                               ArbiterResult& result) const {
  mask_erasures(word1, word2, flags1, flags2, result);
  // Step 2: independent decoding with the common erasures.
  result.outcome1 = code_->decode(word1, result.common_erasures);
  result.outcome2 = code_->decode(word2, result.common_erasures);
  select(word1, word2, result);
}

ArbiterResult Arbiter::arbitrate(std::span<const Element> word1,
                                 std::span<const Element> word2,
                                 std::span<const unsigned> erasures1,
                                 std::span<const unsigned> erasures2) const {
  const unsigned n = code_->n();
  if (word1.size() != n || word2.size() != n) {
    throw std::invalid_argument("Arbiter::arbitrate: word size != n");
  }
  std::vector<std::uint8_t> f1(n, 0);
  std::vector<std::uint8_t> f2(n, 0);
  for (const unsigned p : erasures1) {
    if (p >= n) {
      throw std::invalid_argument("Arbiter::arbitrate: erasure1 out of range");
    }
    f1[p] = 1;
  }
  for (const unsigned p : erasures2) {
    if (p >= n) {
      throw std::invalid_argument("Arbiter::arbitrate: erasure2 out of range");
    }
    f2[p] = 1;
  }
  std::vector<Element> w1(word1.begin(), word1.end());
  std::vector<Element> w2(word2.begin(), word2.end());
  ArbiterResult result;
  arbitrate_planes(w1, w2, f1, f2, result);
  return result;
}

}  // namespace rsmem::memory

// Exhaustive beyond-capability characterisation of RS(7,3) over GF(8).
//
// The code is small enough to treat as a finite object: all 8^3 = 512
// codewords fit in memory, d_min = n-k+1 = 5, t = 2, and the radius-2
// decoding spheres around the codewords are disjoint. That makes the
// decoder's behaviour on EVERY error pattern exactly predictable by
// brute-force nearest-codeword search:
//
//   * received word within Hamming distance <= 2 of some codeword
//     -> kCorrected to exactly that codeword (unique by sphere packing);
//   * received word at distance >= 3 from every codeword
//     -> kFailure with the word left untouched (bounded-distance decoding
//        never gambles beyond t).
//
// The test sweeps every error pattern of weight 1..4 against reference
// codewords and checks the decoder (the codec AND the Poly-based reference
// oracle in tests/oracles, differentially) against that ground truth, pinning down the exact
// decode-failure vs mis-correction split the paper's P_ue analysis relies
// on. Erasure boundary cases (erasures + 2*errors == n-k) ride along.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "oracles/reference_codec.h"
#include "rs/reed_solomon.h"

namespace rsmem {
namespace {

using gf::Element;

constexpr unsigned kN = 7;
constexpr unsigned kK = 3;
constexpr unsigned kM = 3;
constexpr unsigned kQ = 8;  // field size 2^m

class BeyondCapabilityTest : public ::testing::Test {
 protected:
  BeyondCapabilityTest() : code_({kN, kK, kM, 1}) {
    codewords_.reserve(kQ * kQ * kQ);
    for (unsigned a = 0; a < kQ; ++a) {
      for (unsigned b = 0; b < kQ; ++b) {
        for (unsigned c = 0; c < kQ; ++c) {
          const std::array<Element, kK> data = {
              static_cast<Element>(a), static_cast<Element>(b),
              static_cast<Element>(c)};
          std::array<Element, kN> word{};
          code_.encode(data, word);
          codewords_.push_back(word);
        }
      }
    }
  }

  static unsigned distance(const std::array<Element, kN>& x,
                           const std::array<Element, kN>& y) {
    unsigned d = 0;
    for (unsigned i = 0; i < kN; ++i) d += x[i] != y[i];
    return d;
  }

  // Nearest codeword by exhaustive search: returns {min distance, index of
  // a minimiser, whether the minimiser is unique}.
  struct Nearest {
    unsigned dist = kN + 1;
    std::size_t index = 0;
    bool unique = true;
  };
  Nearest nearest_codeword(const std::array<Element, kN>& word) const {
    Nearest best;
    for (std::size_t i = 0; i < codewords_.size(); ++i) {
      const unsigned d = distance(word, codewords_[i]);
      if (d < best.dist) {
        best = {d, i, true};
      } else if (d == best.dist) {
        best.unique = false;
      }
    }
    return best;
  }

  rs::ReedSolomon code_;
  std::vector<std::array<Element, kN>> codewords_;
};

TEST_F(BeyondCapabilityTest, CodebookHasDesignDistance) {
  ASSERT_EQ(codewords_.size(), 512u);
  // MDS: every pair of distinct codewords is at distance >= d_min = 5.
  unsigned min_pair = kN;
  for (std::size_t i = 0; i < codewords_.size(); ++i) {
    for (std::size_t j = i + 1; j < codewords_.size(); ++j) {
      const unsigned d = distance(codewords_[i], codewords_[j]);
      ASSERT_GE(d, 5u) << "codewords " << i << " and " << j;
      if (d < min_pair) min_pair = d;
    }
  }
  EXPECT_EQ(min_pair, 5u);  // the bound is attained (MDS, not just >= 5)
}

// Sweeps every error pattern of weight `weight` applied to `base`,
// checking decode (fast and legacy) against brute-force nearest-codeword
// ground truth. Returns {patterns swept, miscorrections observed}.
struct SweepResult {
  std::uint64_t patterns = 0;
  std::uint64_t corrected = 0;
  std::uint64_t miscorrected = 0;
  std::uint64_t failures = 0;
};

class WeightSweep : public BeyondCapabilityTest {
 protected:
  SweepResult sweep_weight(const std::array<Element, kN>& base,
                           unsigned weight) {
    SweepResult result;
    std::array<unsigned, 4> pos{};
    std::array<Element, 4> diff{};
    sweep_positions(base, weight, 0, 0, pos, diff, result);
    return result;
  }

 private:
  void sweep_positions(const std::array<Element, kN>& base, unsigned weight,
                       unsigned depth, unsigned first, std::array<unsigned, 4>& pos,
                       std::array<Element, 4>& diff, SweepResult& result) {
    if (depth == weight) {
      check_pattern(base, weight, pos, diff, result);
      return;
    }
    for (unsigned p = first; p < kN; ++p) {
      pos[depth] = p;
      for (Element d = 1; d < kQ; ++d) {
        diff[depth] = d;
        sweep_positions(base, weight, depth + 1, p + 1, pos, diff, result);
      }
    }
  }

  void check_pattern(const std::array<Element, kN>& base, unsigned weight,
                     const std::array<unsigned, 4>& pos,
                     const std::array<Element, 4>& diff, SweepResult& result) {
    ++result.patterns;
    std::array<Element, kN> received = base;
    for (unsigned i = 0; i < weight; ++i) received[pos[i]] ^= diff[i];
    const Nearest truth = nearest_codeword(received);

    std::array<Element, kN> fast = received;
    const rs::DecodeOutcome outcome = code_.decode(ws_, fast);
    std::array<Element, kN> legacy = received;
    const rs::DecodeOutcome legacy_outcome =
        oracles::decode_legacy(code_, legacy);

    // Differential: the fast path and the legacy reference must agree
    // bit-for-bit on every input, in capability or beyond.
    ASSERT_EQ(outcome.status, legacy_outcome.status)
        << "fast/legacy split at weight " << weight;
    ASSERT_EQ(fast, legacy);

    if (truth.dist <= 2) {
      // Inside a (necessarily unique) decoding sphere: bounded-distance
      // decoding MUST land on that codeword.
      ASSERT_TRUE(truth.unique);
      ASSERT_EQ(outcome.status, rs::DecodeStatus::kCorrected)
          << "weight " << weight << " pattern at true distance " << truth.dist;
      ASSERT_EQ(fast, codewords_[truth.index]);
      ASSERT_EQ(outcome.errors_corrected, truth.dist);
      if (distance(codewords_[truth.index], base) == 0) {
        ++result.corrected;
      } else {
        ++result.miscorrected;  // decoded, but to the WRONG codeword
      }
    } else {
      // No codeword within radius t: the decoder must refuse, flag the
      // word, and leave the content untouched.
      ASSERT_EQ(outcome.status, rs::DecodeStatus::kFailure)
          << "weight " << weight << " pattern at true distance " << truth.dist;
      ASSERT_EQ(fast, received);
      ++result.failures;
    }
  }

  rs::DecoderWorkspace ws_;
};

TEST_F(WeightSweep, AllPatternsWithinCapabilityCorrect) {
  // Weight 1 and 2 stay inside the original codeword's sphere: always
  // corrected back, never a mis-correction, for every pattern.
  const std::array<Element, kN>& base = codewords_[0b011'101'110];
  const SweepResult w1 = sweep_weight(base, 1);
  EXPECT_EQ(w1.patterns, 49u);  // C(7,1) * 7 nonzero diffs
  EXPECT_EQ(w1.corrected, w1.patterns);
  EXPECT_EQ(w1.miscorrected, 0u);
  EXPECT_EQ(w1.failures, 0u);
  const SweepResult w2 = sweep_weight(base, 2);
  EXPECT_EQ(w2.patterns, 1029u);  // C(7,2) * 7^2
  EXPECT_EQ(w2.corrected, w2.patterns);
  EXPECT_EQ(w2.miscorrected, 0u);
  EXPECT_EQ(w2.failures, 0u);
}

TEST_F(WeightSweep, Weight3SplitMatchesNearestCodeword) {
  // Weight 3 = t+1: first beyond-capability shell. Every pattern either
  // lands in ANOTHER codeword's sphere (mis-correction: codewords at
  // distance 5 minus 2 back-steps) or in no sphere (detected failure).
  // The check_pattern asserts pin each individual pattern to the
  // brute-force ground truth; the aggregate split is pinned here.
  const std::array<Element, kN>& base = codewords_[0];
  const SweepResult w3 = sweep_weight(base, 3);
  EXPECT_EQ(w3.patterns, 12005u);  // C(7,3) * 7^3
  EXPECT_EQ(w3.corrected, 0u);     // never back to the original
  EXPECT_GT(w3.miscorrected, 0u);  // mis-correction is REAL at t+1...
  EXPECT_GT(w3.failures, w3.miscorrected);  // ...but detection dominates
  EXPECT_EQ(w3.miscorrected + w3.failures, w3.patterns);

  // The split is a code invariant (translation invariance of linearity):
  // any other codeword sees exactly the same numbers.
  const SweepResult other = sweep_weight(codewords_[0b101'010'001], 3);
  EXPECT_EQ(other.miscorrected, w3.miscorrected);
  EXPECT_EQ(other.failures, w3.failures);
}

TEST_F(WeightSweep, Weight4SplitMatchesNearestCodeword) {
  const std::array<Element, kN>& base = codewords_[0];
  const SweepResult w4 = sweep_weight(base, 4);
  EXPECT_EQ(w4.patterns, 84035u);  // C(7,4) * 7^4
  EXPECT_EQ(w4.corrected, 0u);
  EXPECT_GT(w4.miscorrected, 0u);
  EXPECT_EQ(w4.miscorrected + w4.failures, w4.patterns);
}

TEST_F(BeyondCapabilityTest, ErasureCapabilityBoundary) {
  const std::array<Element, kN>& base = codewords_[0b110'001'010];
  rs::DecoderWorkspace ws;

  // n-k = 4 erasures, 0 errors: exactly at the capability boundary.
  {
    std::array<Element, kN> word = base;
    word[0] ^= 3;
    word[2] ^= 5;
    word[5] ^= 1;
    word[6] ^= 7;
    const unsigned erasures[] = {0, 2, 5, 6};
    const rs::DecodeOutcome outcome = code_.decode(ws, word, erasures);
    EXPECT_EQ(outcome.status, rs::DecodeStatus::kCorrected);
    EXPECT_EQ(outcome.erasures_corrected, 4u);
    EXPECT_EQ(word, base);
  }
  // 2 erasures + 1 random error: 2 + 2*1 = 4 = n-k, still guaranteed.
  {
    std::array<Element, kN> word = base;
    word[1] ^= 6;  // erased
    word[4] ^= 2;  // erased
    word[3] ^= 4;  // random error
    const unsigned erasures[] = {1, 4};
    const rs::DecodeOutcome outcome = code_.decode(ws, word, erasures);
    EXPECT_EQ(outcome.status, rs::DecodeStatus::kCorrected);
    EXPECT_EQ(word, base);
  }
  // 3 erasures + 1 random error: 3 + 2 = 5 > n-k, beyond the guarantee --
  // and for this pattern the decoder must detect and refuse.
  {
    std::array<Element, kN> word = base;
    word[0] ^= 1;
    word[1] ^= 2;
    word[2] ^= 3;  // erased trio
    word[5] ^= 6;  // random error
    const unsigned erasures[] = {0, 1, 2};
    const rs::DecodeOutcome outcome = code_.decode(ws, word, erasures);
    EXPECT_NE(outcome.status, rs::DecodeStatus::kNoError);
    if (outcome.status == rs::DecodeStatus::kCorrected) {
      // If it does gamble, the result must at least be a real codeword.
      EXPECT_TRUE(code_.is_codeword(word));
    }
  }
}

}  // namespace
}  // namespace rsmem

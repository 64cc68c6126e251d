// Exhaustive and property tests for the SEC-DED baseline codec.
#include "codes/secded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "models/baselines.h"
#include "sim/rng.h"

namespace rsmem::codes {
namespace {

std::vector<std::uint8_t> random_bits(sim::Rng& rng, unsigned count) {
  std::vector<std::uint8_t> bits(count);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  return bits;
}

TEST(SecDed, GeometryOfClassicConfigurations) {
  // (72, 64): r = 7 Hamming parities + overall parity.
  const SecDed h64{64};
  EXPECT_EQ(h64.parity_bits(), 8u);
  EXPECT_EQ(h64.codeword_bits(), 72u);
  EXPECT_DOUBLE_EQ(h64.overhead(), 72.0 / 64.0);
  // (39, 32) and (22, 16).
  EXPECT_EQ(SecDed{32}.codeword_bits(), 39u);
  EXPECT_EQ(SecDed{16}.codeword_bits(), 22u);
  // (8, 4): the original extended Hamming code.
  EXPECT_EQ(SecDed{4}.codeword_bits(), 8u);
  EXPECT_THROW(SecDed{0}, std::invalid_argument);
}

TEST(SecDed, EncodeIsSystematicAndValid) {
  const SecDed code{64};
  sim::Rng rng{1};
  for (int trial = 0; trial < 50; ++trial) {
    const auto data = random_bits(rng, 64);
    const auto cw = code.encode(data);
    EXPECT_TRUE(code.is_codeword(cw));
    EXPECT_EQ(code.extract_data(cw), data);
  }
}

TEST(SecDed, InputValidation) {
  const SecDed code{16};
  std::vector<std::uint8_t> short_data(15, 0);
  EXPECT_THROW(code.encode(short_data), std::invalid_argument);
  std::vector<std::uint8_t> non_binary(16, 0);
  non_binary[5] = 2;
  EXPECT_THROW(code.encode(non_binary), std::invalid_argument);
  std::vector<std::uint8_t> wrong_size(21, 0);
  EXPECT_THROW(code.decode(wrong_size), std::invalid_argument);
  EXPECT_FALSE(code.is_codeword(wrong_size));
}

TEST(SecDed, CleanDecode) {
  const SecDed code{64};
  sim::Rng rng{2};
  auto cw = code.encode(random_bits(rng, 64));
  const SecDedOutcome outcome = code.decode(cw);
  EXPECT_EQ(outcome.status, SecDedStatus::kClean);
}

TEST(SecDed, CorrectsEverySingleBitExhaustively) {
  const SecDed code{64};
  sim::Rng rng{3};
  const auto data = random_bits(rng, 64);
  const auto cw = code.encode(data);
  for (unsigned bit = 0; bit < code.codeword_bits(); ++bit) {
    auto word = cw;
    word[bit] ^= 1u;
    const SecDedOutcome outcome = code.decode(word);
    ASSERT_EQ(outcome.status, SecDedStatus::kCorrected) << "bit " << bit;
    EXPECT_EQ(outcome.corrected_bit, bit);
    EXPECT_EQ(word, cw);
  }
}

TEST(SecDed, DetectsEveryDoubleBitExhaustively) {
  const SecDed code{64};
  sim::Rng rng{4};
  const auto cw = code.encode(random_bits(rng, 64));
  for (unsigned b1 = 0; b1 < code.codeword_bits(); ++b1) {
    for (unsigned b2 = b1 + 1; b2 < code.codeword_bits(); ++b2) {
      auto word = cw;
      word[b1] ^= 1u;
      word[b2] ^= 1u;
      const SecDedOutcome outcome = code.decode(word);
      ASSERT_EQ(outcome.status, SecDedStatus::kDetectedDouble)
          << "bits " << b1 << "," << b2;
    }
  }
}

TEST(SecDed, SmallCodeFullyExhaustive) {
  // (8,4): every dataword, every single and double error.
  const SecDed code{4};
  for (unsigned d = 0; d < 16; ++d) {
    std::vector<std::uint8_t> data(4);
    for (unsigned i = 0; i < 4; ++i) data[i] = (d >> i) & 1u;
    const auto cw = code.encode(data);
    ASSERT_TRUE(code.is_codeword(cw));
    for (unsigned b1 = 0; b1 < 8; ++b1) {
      auto word = cw;
      word[b1] ^= 1u;
      ASSERT_EQ(code.decode(word).status, SecDedStatus::kCorrected);
      ASSERT_EQ(word, cw);
      for (unsigned b2 = b1 + 1; b2 < 8; ++b2) {
        auto w2 = cw;
        w2[b1] ^= 1u;
        w2[b2] ^= 1u;
        ASSERT_EQ(code.decode(w2).status, SecDedStatus::kDetectedDouble);
      }
    }
  }
}

TEST(SecDed, TripleErrorsNeverSilentlyPassAsClean) {
  // Distance 4: a triple error can mis-correct (to a wrong codeword) but
  // can never look clean. Check a sweep.
  const SecDed code{64};
  sim::Rng rng{5};
  const auto cw = code.encode(random_bits(rng, 64));
  int miscorrected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto word = cw;
    unsigned bits[3];
    bits[0] = static_cast<unsigned>(rng.uniform_int(72));
    do {
      bits[1] = static_cast<unsigned>(rng.uniform_int(72));
    } while (bits[1] == bits[0]);
    do {
      bits[2] = static_cast<unsigned>(rng.uniform_int(72));
    } while (bits[2] == bits[0] || bits[2] == bits[1]);
    for (const unsigned b : bits) word[b] ^= 1u;
    const SecDedOutcome outcome = code.decode(word);
    ASSERT_NE(outcome.status, SecDedStatus::kClean);
    if (outcome.status == SecDedStatus::kCorrected) {
      // Must have produced a VALID (if wrong) codeword.
      EXPECT_TRUE(code.is_codeword(word));
      EXPECT_NE(word, cw);
      ++miscorrected;
    }
  }
  // Odd-weight patterns with a used-position syndrome mis-correct; both
  // behaviours exist.
  EXPECT_GT(miscorrected, 0);
  EXPECT_LT(miscorrected, 2000);
}

TEST(SecDed, ClosedFormMatchesMonteCarlo) {
  // Failure = >= 2 wrong bits in the 72-bit word; cross-check the analytic
  // model against the real codec under random per-bit flips.
  models::BaselineParams p;
  p.seu_rate_per_bit_hour = 1e-3;
  const double t = 48.0;
  const double q = models::bit_wrong_probability(p, t);
  const double predicted = models::secded_word_fail(p, t, 72);

  const SecDed code{64};
  sim::Rng rng{6};
  int failures = 0;
  const int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto data = random_bits(rng, 64);
    auto cw = code.encode(data);
    const auto truth = cw;
    for (unsigned b = 0; b < 72; ++b) {
      if (rng.uniform() < q) cw[b] ^= 1u;
    }
    const SecDedOutcome outcome = code.decode(cw);
    failures += (!outcome.ok() || cw != truth);
  }
  const double p_hat = static_cast<double>(failures) / kTrials;
  const double se = std::sqrt(predicted * (1.0 - predicted) / kTrials);
  EXPECT_NEAR(p_hat, predicted, 4.0 * se + 1e-3);
}

TEST(SecDed, ClosedFormValidation) {
  models::BaselineParams p;
  EXPECT_THROW(models::secded_word_fail(p, 1.0, 1), std::invalid_argument);
  p.seu_rate_per_bit_hour = 1e-4;
  EXPECT_DOUBLE_EQ(models::secded_word_fail(p, 0.0, 72), 0.0);
}

}  // namespace
}  // namespace rsmem::codes

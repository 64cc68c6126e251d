// Differential tests: Berlekamp-Massey decoder vs the Euclidean decoder.
// Bounded-distance decoding is unique, so the two independent
// implementations must agree everywhere -- in-budget, at the boundary, and
// in overload (same detected failures, same mis-corrections).
#include "oracles/berlekamp.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/rng.h"

namespace rsmem::rs {
namespace {

using oracles::BerlekampDecoder;

std::vector<Element> random_data(const ReedSolomon& code, sim::Rng& rng) {
  std::vector<Element> data(code.k());
  for (auto& d : data) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  return data;
}

void expect_same(const ReedSolomon& code, const BerlekampDecoder& bm,
                 std::vector<Element> word,
                 const std::vector<unsigned>& erasures,
                 const std::string& what) {
  std::vector<Element> euclid_word = word;
  std::vector<Element> bm_word = word;
  const DecodeOutcome euclid = code.decode(euclid_word, erasures);
  const DecodeOutcome massey = bm.decode(bm_word, erasures);
  ASSERT_EQ(euclid.status, massey.status) << what;
  if (euclid.ok()) {
    EXPECT_EQ(euclid_word, bm_word) << what;
    EXPECT_EQ(euclid.errors_corrected, massey.errors_corrected) << what;
    EXPECT_EQ(euclid.erasures_corrected, massey.erasures_corrected) << what;
  }
}

TEST(Berlekamp, Validation) {
  const ReedSolomon code{18, 16, 8};
  const BerlekampDecoder bm{code};
  std::vector<Element> short_word(17, 0);
  EXPECT_THROW(bm.decode(short_word), std::invalid_argument);
  std::vector<Element> ok(18, 0);
  const unsigned bad[] = {18};
  EXPECT_THROW(bm.decode(ok, bad), std::invalid_argument);
  const unsigned dup[] = {3, 3};
  EXPECT_THROW(bm.decode(ok, dup), std::invalid_argument);
}

TEST(Berlekamp, CorrectsWithinBudgetRs1816) {
  const ReedSolomon code{18, 16, 8};
  const BerlekampDecoder bm{code};
  sim::Rng rng{1};
  const auto cw = code.encode(random_data(code, rng));
  for (unsigned pos = 0; pos < 18; ++pos) {
    std::vector<Element> word = cw;
    word[pos] ^= 0x3C;
    const DecodeOutcome outcome = bm.decode(word);
    ASSERT_EQ(outcome.status, DecodeStatus::kCorrected);
    EXPECT_EQ(word, cw);
  }
}

struct DiffCase {
  unsigned n, k, m;
};

class BerlekampDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BerlekampDifferential, AgreesWithEuclidEverywhere) {
  const auto [n, k, m] = GetParam();
  const ReedSolomon code{n, k, m};
  const BerlekampDecoder bm{code};
  sim::Rng rng{n * 7919u + k};
  const unsigned budget = code.parity_symbols();

  for (int trial = 0; trial < 600; ++trial) {
    const auto cw = code.encode(random_data(code, rng));
    std::vector<Element> word = cw;
    // Random damage: 0..budget+2 corrupted symbols, a random subset
    // declared as erasures (possibly over-budget -> overload behaviour).
    const unsigned damage =
        static_cast<unsigned>(rng.uniform_int(budget + 3));
    std::set<unsigned> positions;
    while (positions.size() < damage && positions.size() < n) {
      positions.insert(static_cast<unsigned>(rng.uniform_int(n)));
    }
    std::vector<unsigned> erasures;
    for (const unsigned p : positions) {
      word[p] ^= static_cast<Element>(
          1 + rng.uniform_int(code.field().size() - 1));
      if (rng.bernoulli(0.4)) erasures.push_back(p);
    }
    expect_same(code, bm, word, erasures,
                "n=" + std::to_string(n) + " trial " + std::to_string(trial));
  }
}

TEST_P(BerlekampDifferential, AgreesOnRandomNoise) {
  // Words sampled uniformly from the whole space (far from any codeword).
  const auto [n, k, m] = GetParam();
  const ReedSolomon code{n, k, m};
  const BerlekampDecoder bm{code};
  sim::Rng rng{n * 104729u + k};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Element> word(n);
    for (auto& w : word) {
      w = static_cast<Element>(rng.uniform_int(code.field().size()));
    }
    expect_same(code, bm, word, {}, "noise trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, BerlekampDifferential,
                         ::testing::Values(DiffCase{18, 16, 8},
                                           DiffCase{36, 16, 8},
                                           DiffCase{15, 11, 4},
                                           DiffCase{7, 3, 3}));

TEST(Berlekamp, PureErasureBudgetRs3616) {
  const ReedSolomon code{36, 16, 8};
  const BerlekampDecoder bm{code};
  sim::Rng rng{5};
  const auto cw = code.encode(random_data(code, rng));
  std::vector<Element> word = cw;
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < 20; ++i) {
    erasures.push_back(i);
    word[i] ^= static_cast<Element>(1 + rng.uniform_int(255));
  }
  const DecodeOutcome outcome = bm.decode(word, erasures);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(word, cw);
  EXPECT_EQ(outcome.erasures_corrected, 20u);
}

}  // namespace
}  // namespace rsmem::rs

// Unit, property and exhaustive tests for the errors-and-erasures RS codec.
#include "rs/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "oracles/reference_codec.h"
#include "sim/rng.h"

namespace rsmem::rs {
namespace {

std::vector<Element> random_data(const ReedSolomon& code, sim::Rng& rng) {
  std::vector<Element> data(code.k());
  for (auto& d : data) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  return data;
}

// Flips `word[pos]` to a different random symbol.
void corrupt_symbol(std::vector<Element>& word, unsigned pos,
                    const ReedSolomon& code, sim::Rng& rng) {
  const Element old = word[pos];
  Element nv;
  do {
    nv = static_cast<Element>(rng.uniform_int(code.field().size()));
  } while (nv == old);
  word[pos] = nv;
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(10, 10, 8), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(10, 12, 8), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(10, 0, 8), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(256, 250, 8), std::invalid_argument);  // n > 2^m-1
  EXPECT_THROW(ReedSolomon(18, 16, 1), std::invalid_argument);
}

TEST(ReedSolomon, PaperCodesConstruct) {
  const ReedSolomon rs1816{18, 16, 8};
  EXPECT_EQ(rs1816.parity_symbols(), 2u);
  EXPECT_EQ(rs1816.t(), 1u);
  const ReedSolomon rs3616{36, 16, 8};
  EXPECT_EQ(rs3616.parity_symbols(), 20u);
  EXPECT_EQ(rs3616.t(), 10u);
}

TEST(ReedSolomon, GeneratorHasExpectedRoots) {
  const ReedSolomon code{18, 16, 8};
  const auto& f = code.field();
  const auto& g = code.generator();
  EXPECT_EQ(g.degree(), 2);
  for (unsigned j = 0; j < code.parity_symbols(); ++j) {
    EXPECT_EQ(g.eval(f, f.alpha_pow(code.fcr() + j)), 0u);
  }
  // And no root at alpha^(fcr-1) or alpha^(fcr+n-k).
  EXPECT_NE(g.eval(f, f.alpha_pow(0)), 0u);
  EXPECT_NE(g.eval(f, f.alpha_pow(3)), 0u);
}

TEST(ReedSolomon, EncodeIsSystematic) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{7};
  const auto data = random_data(code, rng);
  const auto cw = code.encode(data);
  ASSERT_EQ(cw.size(), 18u);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(cw[i], data[i]);
  EXPECT_TRUE(code.is_codeword(cw));
  EXPECT_EQ(code.extract_data(cw), data);
}

// The table-driven LFSR encoder must reproduce the Poly::mod reference
// exactly, for every code shape the paper uses plus an m > 8 code (no dense
// multiplication table) and a non-default fcr.
TEST(ReedSolomon, FastEncodeMatchesLegacyEncode) {
  const CodeParams shapes[] = {
      {18, 16, 8, 1, 0},  {36, 16, 8, 1, 0}, {255, 223, 8, 1, 0},
      {15, 11, 4, 1, 0},  {3, 1, 2, 1, 0},   {18, 16, 8, 0, 0},
      {100, 88, 10, 1, 0},
  };
  for (const CodeParams& p : shapes) {
    const ReedSolomon code{p};
    sim::Rng rng{p.n * 1000 + p.k};
    for (int rep = 0; rep < 50; ++rep) {
      const auto data = random_data(code, rng);
      std::vector<Element> fast(code.n()), legacy(code.n());
      code.encode(data, fast);
      oracles::encode_legacy(code, data, legacy);
      ASSERT_EQ(fast, legacy) << "n=" << p.n << " k=" << p.k << " m=" << p.m
                              << " fcr=" << p.fcr << " rep=" << rep;
      EXPECT_TRUE(code.is_codeword(fast));
    }
  }
}

TEST(ReedSolomon, EncodeRejectsBadSizes) {
  const ReedSolomon code{18, 16, 8};
  std::vector<Element> short_data(15, 0);
  EXPECT_THROW(code.encode(short_data), std::invalid_argument);
  std::vector<Element> bad_symbol(16, 0);
  bad_symbol[3] = 256;  // out of GF(256)
  EXPECT_THROW(code.encode(bad_symbol), std::invalid_argument);
}

TEST(ReedSolomon, CodeIsLinear) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{21};
  const auto d1 = random_data(code, rng);
  const auto d2 = random_data(code, rng);
  std::vector<Element> sum(code.k());
  for (unsigned i = 0; i < code.k(); ++i) {
    sum[i] = gf::GaloisField::add(d1[i], d2[i]);
  }
  const auto c1 = code.encode(d1);
  const auto c2 = code.encode(d2);
  const auto cs = code.encode(sum);
  for (unsigned i = 0; i < code.n(); ++i) {
    EXPECT_EQ(cs[i], gf::GaloisField::add(c1[i], c2[i]));
  }
}

TEST(ReedSolomon, DecodeCleanWordIsNoError) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{3};
  auto cw = code.encode(random_data(code, rng));
  const auto outcome = code.decode(cw);
  EXPECT_EQ(outcome.status, DecodeStatus::kNoError);
  EXPECT_FALSE(outcome.correction_flag());
}

TEST(ReedSolomon, DecodeValidatesInputs) {
  const ReedSolomon code{18, 16, 8};
  std::vector<Element> word(17, 0);
  EXPECT_THROW(code.decode(word), std::invalid_argument);
  std::vector<Element> ok(18, 0);
  const unsigned bad_pos[] = {18};
  EXPECT_THROW(code.decode(ok, bad_pos), std::invalid_argument);
  const unsigned dup[] = {3, 3};
  EXPECT_THROW(code.decode(ok, dup), std::invalid_argument);
}

// ---- Exhaustive single-error correction for the paper's RS(18,16). ----

TEST(ReedSolomon, Rs1816CorrectsEverySingleSymbolError) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{11};
  const auto data = random_data(code, rng);
  const auto cw = code.encode(data);
  for (unsigned pos = 0; pos < code.n(); ++pos) {
    for (unsigned bit = 0; bit < code.m(); ++bit) {
      auto word = cw;
      word[pos] ^= (1u << bit);  // an SEU is a single bit flip
      const auto outcome = code.decode(word);
      ASSERT_EQ(outcome.status, DecodeStatus::kCorrected)
          << "pos=" << pos << " bit=" << bit;
      EXPECT_EQ(outcome.errors_corrected, 1u);
      EXPECT_EQ(word, cw);
    }
  }
}

TEST(ReedSolomon, Rs1816CorrectsEveryDoubleErasure) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{13};
  const auto cw = code.encode(random_data(code, rng));
  for (unsigned p1 = 0; p1 < code.n(); ++p1) {
    for (unsigned p2 = p1 + 1; p2 < code.n(); ++p2) {
      auto word = cw;
      corrupt_symbol(word, p1, code, rng);
      corrupt_symbol(word, p2, code, rng);
      const unsigned erasures[] = {p1, p2};
      const auto outcome = code.decode(word, erasures);
      ASSERT_TRUE(outcome.ok()) << "p1=" << p1 << " p2=" << p2;
      EXPECT_EQ(word, cw);
      EXPECT_EQ(outcome.errors_corrected, 0u);
    }
  }
}

TEST(ReedSolomon, Rs1816ErasedPositionsMayHoldAnyGarbage) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{17};
  const auto cw = code.encode(random_data(code, rng));
  // The erased symbol might read as ANY value (stuck bits): all must decode.
  for (unsigned p = 0; p < code.n(); p += 5) {
    for (Element v = 0; v < code.field().size(); v += 17) {
      auto word = cw;
      word[p] = v;
      const unsigned erasures[] = {p};
      const auto outcome = code.decode(word, erasures);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(word, cw);
    }
  }
}

TEST(ReedSolomon, Rs1816DetectsOrMiscorrectsBeyondCapability) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{19};
  const auto cw = code.encode(random_data(code, rng));
  unsigned detected = 0;
  unsigned miscorrected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    auto word = cw;
    // Two random errors exceed t=1.
    const unsigned p1 = static_cast<unsigned>(rng.uniform_int(code.n()));
    unsigned p2;
    do {
      p2 = static_cast<unsigned>(rng.uniform_int(code.n()));
    } while (p2 == p1);
    corrupt_symbol(word, p1, code, rng);
    corrupt_symbol(word, p2, code, rng);
    const auto outcome = code.decode(word);
    if (outcome.status == DecodeStatus::kFailure) {
      ++detected;
    } else {
      // Mis-correction: the decoder must still have produced a VALID
      // codeword (never garbage) different from the original.
      ASSERT_EQ(outcome.status, DecodeStatus::kCorrected);
      EXPECT_TRUE(code.is_codeword(word));
      EXPECT_NE(word, cw);
      ++miscorrected;
    }
  }
  // Both behaviours must actually occur for the duplex arbiter analysis to
  // be meaningful.
  EXPECT_GT(detected, 0u);
  EXPECT_GT(miscorrected, 0u);
}

TEST(ReedSolomon, Rs1816ThreeErasuresFail) {
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{23};
  auto cw = code.encode(random_data(code, rng));
  corrupt_symbol(cw, 0, code, rng);
  corrupt_symbol(cw, 5, code, rng);
  corrupt_symbol(cw, 9, code, rng);
  const unsigned erasures[] = {0, 5, 9};
  EXPECT_EQ(code.decode(cw, erasures).status, DecodeStatus::kFailure);
}

TEST(ReedSolomon, Rs1816ErasurePlusErrorFails) {
  // 1 erasure + 1 random error needs 1 + 2 = 3 > n-k = 2.
  const ReedSolomon code{18, 16, 8};
  sim::Rng rng{29};
  const auto cw = code.encode(random_data(code, rng));
  unsigned ok_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    auto word = cw;
    corrupt_symbol(word, 2, code, rng);
    corrupt_symbol(word, 11, code, rng);
    const unsigned erasures[] = {2};
    const auto outcome = code.decode(word, erasures);
    if (outcome.ok() && word == cw) ++ok_count;
  }
  // The pattern exceeds the guaranteed budget; correct decoding every time
  // would indicate the capability check is wrong.
  EXPECT_LT(ok_count, 200u);
}

// ---- Parameterized sweep over codes: every in-budget pattern decodes. ----

struct CodeCase {
  unsigned n, k, m;
};

class RsCapabilitySweep : public ::testing::TestWithParam<CodeCase> {};

TEST_P(RsCapabilitySweep, AllPatternsWithinBudgetDecode) {
  const auto [n, k, m] = GetParam();
  const ReedSolomon code{n, k, m};
  sim::Rng rng{n * 100 + k};
  const unsigned budget = code.parity_symbols();
  for (unsigned er = 0; er <= budget; ++er) {
    for (unsigned re = 0; 2 * re + er <= budget; ++re) {
      // Several random placements per (er, re) combination.
      for (int rep = 0; rep < 8; ++rep) {
        const auto data = random_data(code, rng);
        const auto cw = code.encode(data);
        auto word = cw;
        // Choose er + re distinct positions.
        std::set<unsigned> positions;
        while (positions.size() < er + re) {
          positions.insert(static_cast<unsigned>(rng.uniform_int(n)));
        }
        std::vector<unsigned> pos_list(positions.begin(), positions.end());
        std::vector<unsigned> erasures(pos_list.begin(),
                                       pos_list.begin() + er);
        for (const unsigned p : pos_list) corrupt_symbol(word, p, code, rng);
        const auto outcome = code.decode(word, erasures);
        ASSERT_TRUE(outcome.ok())
            << "n=" << n << " k=" << k << " er=" << er << " re=" << re;
        EXPECT_EQ(word, cw);
        EXPECT_EQ(outcome.errors_corrected, re);
        EXPECT_EQ(outcome.erasures_corrected, er);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, RsCapabilitySweep,
    ::testing::Values(CodeCase{18, 16, 8},   // the paper's main code
                      CodeCase{36, 16, 8},   // the paper's comparison code
                      CodeCase{15, 11, 4},   // classic full-length RS
                      CodeCase{7, 3, 3},     // small full-length
                      CodeCase{12, 8, 4},    // shortened
                      CodeCase{255, 223, 8}  // CCSDS-size
                      ));

// ---- Exhaustive decode over a whole small code. ----

TEST(ReedSolomon, ExhaustiveRs73OverGf8) {
  // RS(7,3) over GF(8): t=2. Enumerate EVERY dataword, one random 2-error
  // pattern each, plus every (er=2, re=1) pattern on a fixed word.
  const ReedSolomon code{7, 3, 3};
  sim::Rng rng{31};
  for (Element d0 = 0; d0 < 8; ++d0) {
    for (Element d1 = 0; d1 < 8; ++d1) {
      for (Element d2 = 0; d2 < 8; ++d2) {
        const std::vector<Element> data{d0, d1, d2};
        const auto cw = code.encode(data);
        auto word = cw;
        corrupt_symbol(word, static_cast<unsigned>(d0 % 7), code, rng);
        unsigned other = static_cast<unsigned>((d0 + 1 + d1 % 6) % 7);
        corrupt_symbol(word, other, code, rng);
        const auto outcome = code.decode(word);
        ASSERT_TRUE(outcome.ok());
        EXPECT_EQ(word, cw);
      }
    }
  }
  const auto cw = code.encode(std::vector<Element>{1, 2, 3});
  for (unsigned e1 = 0; e1 < 7; ++e1) {
    for (unsigned e2 = e1 + 1; e2 < 7; ++e2) {
      for (unsigned re = 0; re < 7; ++re) {
        if (re == e1 || re == e2) continue;
        auto word = cw;
        corrupt_symbol(word, e1, code, rng);
        corrupt_symbol(word, e2, code, rng);
        corrupt_symbol(word, re, code, rng);
        const unsigned erasures[] = {e1, e2};
        const auto outcome = code.decode(word, erasures);
        ASSERT_TRUE(outcome.ok()) << e1 << "," << e2 << "," << re;
        EXPECT_EQ(word, cw);
      }
    }
  }
}

TEST(ReedSolomon, FcrVariantsRoundTrip) {
  for (const unsigned fcr : {0u, 1u, 2u, 5u}) {
    const ReedSolomon code{CodeParams{18, 16, 8, fcr}};
    sim::Rng rng{fcr + 41};
    const auto cw = code.encode(random_data(code, rng));
    auto word = cw;
    corrupt_symbol(word, 7, code, rng);
    const auto outcome = code.decode(word);
    ASSERT_TRUE(outcome.ok()) << "fcr=" << fcr;
    EXPECT_EQ(word, cw);
  }
}

TEST(ReedSolomon, PureErasuresUpToBudgetOnBigCode) {
  const ReedSolomon code{36, 16, 8};
  sim::Rng rng{53};
  const auto cw = code.encode(random_data(code, rng));
  auto word = cw;
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < 20; ++i) {  // full budget n-k = 20
    erasures.push_back(i);
    corrupt_symbol(word, i, code, rng);
  }
  const auto outcome = code.decode(word, erasures);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(word, cw);
  EXPECT_EQ(outcome.erasures_corrected, 20u);
}

TEST(ReedSolomon, MixedBudgetBoundaryOnBigCode) {
  // er + 2 re = 20 exactly: 10 erasures + 5 errors.
  const ReedSolomon code{36, 16, 8};
  sim::Rng rng{59};
  const auto cw = code.encode(random_data(code, rng));
  auto word = cw;
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < 10; ++i) {
    erasures.push_back(2 * i);
    corrupt_symbol(word, 2 * i, code, rng);
  }
  for (unsigned i = 0; i < 5; ++i) {
    corrupt_symbol(word, 21 + 2 * i, code, rng);
  }
  const auto outcome = code.decode(word, erasures);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(word, cw);
  EXPECT_EQ(outcome.errors_corrected, 5u);
  EXPECT_EQ(outcome.erasures_corrected, 10u);
}

}  // namespace
}  // namespace rsmem::rs

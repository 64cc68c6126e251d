// Deep cross-checks: brute-force state-space enumeration vs BFS, decoder
// mis-correction statistics vs coding-theory estimates, periodic-jump
// identities, and field/codec interop variants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "gf/galois_field.h"
#include "markov/periodic.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace rsmem {
namespace {

// ---- every GF(2^m) constructs and satisfies the inverse law. ----

TEST(DeepGf, AllSupportedFieldsConstruct) {
  for (unsigned m = 2; m <= 16; ++m) {
    const gf::GaloisField f{m};
    EXPECT_EQ(f.size(), 1u << m);
    // alpha generates: alpha^(order) == 1 and alpha^(order/2) != 1 when
    // order is even (it is for 2^m - 1 only when m = 1, so just check a
    // few random inverses instead).
    sim::Rng rng{m};
    for (int i = 0; i < 50; ++i) {
      const gf::Element a =
          1 + static_cast<gf::Element>(rng.uniform_int(f.order()));
      EXPECT_EQ(f.mul(a, f.inv(a)), 1u);
    }
  }
}

// ---- RS over an alternative primitive polynomial. ----

TEST(DeepRs, AlternativePrimitivePolynomialInteroperates) {
  // 0x187 (x^8+x^7+x^2+x+1) is another primitive polynomial for GF(2^8),
  // used by several storage codecs.
  rs::CodeParams params{18, 16, 8, 1, 0x187};
  const rs::ReedSolomon code{params};
  EXPECT_EQ(code.field().primitive_poly(), 0x187u);
  sim::Rng rng{404};
  std::vector<gf::Element> data(16);
  for (auto& d : data) d = static_cast<gf::Element>(rng.uniform_int(256));
  auto cw = code.encode(data);
  EXPECT_TRUE(code.is_codeword(cw));
  cw[3] ^= 0x40;
  const auto outcome = code.decode(cw);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(code.extract_data(cw), data);

  // Codewords of the default-poly code are generally NOT codewords here.
  const rs::ReedSolomon default_code{18, 16, 8};
  const auto other = default_code.encode(data);
  EXPECT_FALSE(code.is_codeword(other));

  // Non-primitive polynomial is rejected through the codec too.
  rs::CodeParams bad{18, 16, 8, 1, 0x11B};
  EXPECT_THROW(rs::ReedSolomon{bad}, std::invalid_argument);
}

// ---- mis-correction statistics vs coding-theory estimate. ----

TEST(DeepRs, MiscorrectionRateMatchesSpherePackingEstimate) {
  // For a t=1 code, a random word beyond the correction radius decodes to
  // SOME codeword with probability ~ (fraction of space covered by radius-1
  // balls) = q^k * (1 + n(q-1)) / q^n = (1 + 18*255)/65536 ~ 0.0701.
  // Words at distance 2 from a codeword are nearly random w.r.t. other
  // codewords, so the measured mis-correction fraction must sit near that.
  const rs::ReedSolomon code{18, 16, 8};
  sim::Rng rng{777};
  std::vector<gf::Element> data(16);
  for (auto& d : data) d = static_cast<gf::Element>(rng.uniform_int(256));
  const auto cw = code.encode(data);

  int miscorrected = 0;
  const int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto word = cw;
    const unsigned p1 = static_cast<unsigned>(rng.uniform_int(18));
    unsigned p2;
    do {
      p2 = static_cast<unsigned>(rng.uniform_int(18));
    } while (p2 == p1);
    word[p1] ^= static_cast<gf::Element>(1 + rng.uniform_int(255));
    word[p2] ^= static_cast<gf::Element>(1 + rng.uniform_int(255));
    const auto outcome = code.decode(word);
    if (outcome.status == rs::DecodeStatus::kCorrected) ++miscorrected;
  }
  const double measured = static_cast<double>(miscorrected) / kTrials;
  const double estimate = (1.0 + 18.0 * 255.0) / 65536.0;
  // Distance-2 words are not exactly uniform; allow a generous band.
  EXPECT_GT(measured, estimate * 0.5);
  EXPECT_LT(measured, estimate * 1.6);
}

TEST(DeepRs, StrongCodeAlmostAlwaysDetectsOverload) {
  // RS(36,16), t=10: with 11 random errors the decodable fraction of space
  // is astronomically small, so detection (kFailure) must dominate.
  const rs::ReedSolomon code{36, 16, 8};
  sim::Rng rng{888};
  std::vector<gf::Element> data(16);
  for (auto& d : data) d = static_cast<gf::Element>(rng.uniform_int(256));
  const auto cw = code.encode(data);
  int detected = 0;
  const int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto word = cw;
    std::set<unsigned> positions;
    while (positions.size() < 11) {
      positions.insert(static_cast<unsigned>(rng.uniform_int(36)));
    }
    for (const unsigned p : positions) {
      word[p] ^= static_cast<gf::Element>(1 + rng.uniform_int(255));
    }
    detected += (code.decode(word).status == rs::DecodeStatus::kFailure);
  }
  EXPECT_GE(detected, kTrials - 1);
}

// ---- duplex state space: BFS reachability vs brute-force enumeration. ----

TEST(DeepDuplex, StateSpaceMatchesBruteForceEnumeration) {
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.0;
  p.erasure_rate_per_symbol_hour = 1.0;
  p.scrub_rate_per_hour = 1.0;
  const models::DuplexModel model{p};
  const markov::StateSpace space = model.build();

  // Brute-force: all 6-tuples within geometric and budget limits.
  std::set<markov::PackedState> brute;
  for (unsigned x = 0; x <= 18; ++x) {
    for (unsigned y = 0; x + y <= 18; ++y) {
      for (unsigned b = 0; x + y + b <= 18; ++b) {
        for (unsigned e1 = 0; x + y + b + e1 <= 18; ++e1) {
          for (unsigned e2 = 0; x + y + b + e1 + e2 <= 18; ++e2) {
            for (unsigned ec = 0; x + y + b + e1 + e2 + ec <= 18; ++ec) {
              const models::DuplexState s{x, y, b, e1, e2, ec};
              if (model.recoverable(s)) {
                brute.insert(models::DuplexModel::pack(s));
              }
            }
          }
        }
      }
    }
  }
  // Every reachable state is a valid recoverable tuple (or Fail).
  unsigned reachable_valid = 0;
  for (const markov::PackedState s : space.states) {
    if (models::DuplexModel::is_fail(s)) continue;
    EXPECT_EQ(brute.count(s), 1u) << "unexpected reachable state";
    ++reachable_valid;
  }
  // And reachability covers the full recoverable set: from the empty pair
  // every recoverable tuple is constructible via C/A/L/M/N/O/G chains.
  EXPECT_EQ(reachable_valid, brute.size());
  EXPECT_EQ(space.size(), brute.size() + 1);  // + Fail
}

// ---- simplex state space brute force (same idea). ----

TEST(DeepSimplex, StateSpaceMatchesBruteForce) {
  models::SimplexParams p;
  p.n = 36;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.0;
  p.erasure_rate_per_symbol_hour = 1.0;
  const markov::StateSpace space = models::SimplexModel{p}.build();
  unsigned brute = 0;
  for (unsigned er = 0; er <= 20; ++er) {
    for (unsigned re = 0; er + 2 * re <= 20; ++re) ++brute;
  }
  EXPECT_EQ(space.size(), brute + 1);
}

// ---- state-count closed form across parity budgets. ----

class SimplexStateCount : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplexStateCount, MatchesClosedForm) {
  const unsigned parity = GetParam();
  models::SimplexParams p;
  p.n = 16 + parity;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.0;
  p.erasure_rate_per_symbol_hour = 1.0;
  const markov::StateSpace space = models::SimplexModel{p}.build();
  // #{(er,re): er + 2re <= parity} = sum over re of (parity - 2re + 1).
  unsigned expected = 0;
  for (unsigned re = 0; 2 * re <= parity; ++re) {
    expected += parity - 2 * re + 1;
  }
  EXPECT_EQ(space.size(), expected + 1);  // + Fail
}

INSTANTIATE_TEST_SUITE_P(ParityBudgets, SimplexStateCount,
                         ::testing::Values(2u, 4u, 6u, 8u, 12u, 20u));

// ---- periodic jump identities. ----

TEST(DeepPeriodic, IdentityJumpEqualsPlainTransient) {
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-3;
  const markov::StateSpace space = models::SimplexModel{p}.build();
  const markov::UniformizationSolver solver;
  std::vector<std::size_t> identity(space.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  const std::vector<double> pi0 = space.chain.initial_distribution();
  markov::SolverWorkspace ws;
  const auto jumped = markov::solve_with_periodic_jump(
      space.chain, pi0, identity, 7.0, 48.0, solver, ws);
  const auto plain = solver.solve(space.chain, pi0, 48.0);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(jumped[i], plain[i], 1e-12);
  }
}

TEST(DeepPeriodic, JumpExactlyAtQueryTimeApplies) {
  // Query at t == period: the scrub at that instant must already apply.
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-4;  // ~0.14 expected flips per period
  const markov::StateSpace space = models::SimplexModel{p}.build();
  const markov::UniformizationSolver solver;
  // Jump map: everything to the initial state (an aggressive full repair).
  std::vector<std::size_t> reset(space.size(), space.initial_index);
  const std::size_t fail = space.index_of(models::SimplexModel::fail_state());
  reset[fail] = fail;
  markov::SolverWorkspace ws;
  const auto pi = markov::solve_with_periodic_jump(
      space.chain, space.chain.initial_distribution(), reset, 10.0, 10.0,
      solver, ws);
  // All surviving mass is back at the initial state.
  EXPECT_NEAR(pi[space.initial_index] + pi[fail], 1.0, 1e-10);
  EXPECT_GT(pi[space.initial_index], 0.99);
}

}  // namespace
}  // namespace rsmem

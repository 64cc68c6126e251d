// Stress and fuzz tests: large state spaces, decoder robustness on
// arbitrary inputs, end-to-end determinism.
#include <gtest/gtest.h>

#include <chrono>

#include "core/api.h"
#include "core/units.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/duplex_model.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace rsmem {
namespace {

TEST(Stress, DuplexRs3616ChainBuildsAndSolves) {
  // The duplex chain for the WIDE code: budgets X + 2(b+ec+e_w) <= 20 with
  // a free Y component -- tens of thousands of states. Must build within
  // the explosion guard and solve in reasonable time.
  models::DuplexParams p;
  p.n = 36;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = core::per_day_to_per_hour(1.7e-5);
  p.erasure_rate_per_symbol_hour = core::per_day_to_per_hour(1e-4);
  const auto start = std::chrono::steady_clock::now();
  const markov::StateSpace space = models::DuplexModel{p}.build();
  EXPECT_GT(space.size(), 10'000u);
  EXPECT_LT(space.size(), 2'000'000u);

  const markov::UniformizationSolver solver;
  markov::SolverWorkspace ws;
  const std::vector<double> times{48.0};
  const models::BerCurve curve = models::ber_curve(
      space, models::DuplexModel::fail_state(),
      models::ber_scale(36, 16, 8), times, solver, ws);
  EXPECT_GE(curve.fail_probability[0], 0.0);
  EXPECT_LT(curve.fail_probability[0], 1e-3);  // wide code, mild rates
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60);
}

TEST(Stress, DecoderFuzzNeverCrashesOrLies) {
  // Arbitrary random words (nowhere near codewords): the decoder must
  // either report failure or return a VALID codeword -- never crash, hang,
  // or hand back a non-codeword claiming success.
  const rs::ReedSolomon code{18, 16, 8};
  sim::Rng rng{0xFEED};
  int ok_count = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<gf::Element> word(18);
    for (auto& w : word) {
      w = static_cast<gf::Element>(rng.uniform_int(256));
    }
    // Random erasure sets of size 0..3.
    std::vector<unsigned> erasures;
    const unsigned count = static_cast<unsigned>(rng.uniform_int(4));
    while (erasures.size() < count) {
      const unsigned p = static_cast<unsigned>(rng.uniform_int(18));
      if (std::find(erasures.begin(), erasures.end(), p) == erasures.end()) {
        erasures.push_back(p);
      }
    }
    const rs::DecodeOutcome outcome = code.decode(word, erasures);
    if (outcome.ok()) {
      EXPECT_TRUE(code.is_codeword(word));
      ++ok_count;
    }
  }
  // Random 18-symbol words decode successfully at roughly the sphere
  // density (~7% for the no-erasure cases); both outcomes must occur.
  EXPECT_GT(ok_count, 200);
  EXPECT_LT(ok_count, 19000);
}

TEST(Stress, DecoderFuzzWideCode) {
  const rs::ReedSolomon code{36, 16, 8};
  sim::Rng rng{0xBEEF};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<gf::Element> word(36);
    for (auto& w : word) {
      w = static_cast<gf::Element>(rng.uniform_int(256));
    }
    const rs::DecodeOutcome outcome = code.decode(word);
    if (outcome.ok()) {
      EXPECT_TRUE(code.is_codeword(word));
    }
  }
}

TEST(Stress, EndToEndAnalysisIsDeterministic) {
  // Two full runs of the headline experiment produce bit-identical curves.
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kDuplex;
  spec.seu_rate_per_bit_day = 1.7e-5;
  spec.scrub_period_seconds = 900.0;
  const std::vector<double> times = models::time_grid_hours(48.0, 25);
  const models::BerCurve a = analyze_ber(spec, times);
  const models::BerCurve b = analyze_ber(spec, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(a.ber[i], b.ber[i]);
  }
}

}  // namespace
}  // namespace rsmem

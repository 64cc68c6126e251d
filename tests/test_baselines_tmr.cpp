// Tests for the TMR baseline system, the closed-form baselines, and the
// quasi-stationary hazard analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/units.h"
#include "markov/quasi_stationary.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "memory/tmr_system.h"
#include "models/baselines.h"
#include "models/ber.h"
#include "models/simplex_model.h"
#include "sim/rng.h"

namespace rsmem {
namespace {

std::vector<gf::Element> test_data() {
  std::vector<gf::Element> data(16);
  for (unsigned i = 0; i < 16; ++i) data[i] = 0x5A ^ i;
  return data;
}

TEST(TmrSystem, Validation) {
  memory::TmrSystemConfig cfg;
  cfg.word_symbols = 0;
  EXPECT_THROW(memory::TmrSystem{cfg}, std::invalid_argument);
  memory::TmrSystemConfig ok;
  memory::TmrSystem sys{ok};
  EXPECT_THROW(sys.advance_to(1.0), std::logic_error);
  EXPECT_THROW(sys.read(), std::logic_error);
  std::vector<gf::Element> wrong(3, 0);
  EXPECT_THROW(sys.store(wrong), std::invalid_argument);
}

TEST(TmrSystem, NoFaultsCleanRead) {
  memory::TmrSystemConfig cfg;
  memory::TmrSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(100.0);
  const memory::ReadResult r = sys.read();
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.data_correct);
  EXPECT_EQ(r.data, test_data());
  EXPECT_EQ(sys.corrupted_voted_bits(), 0u);
}

TEST(TmrSystem, VoterMasksSingleModuleDamage) {
  // High SEU rate but the voter should ride out single-module flips while
  // coincident double-flips on the same bit remain rare.
  memory::TmrSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 1e-4;
  int correct = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    cfg.seed = 100 + seed;
    memory::TmrSystem sys{cfg};
    sys.store(test_data());
    sys.advance_to(48.0);
    correct += sys.read().data_correct;
  }
  EXPECT_GE(correct, 18);  // q ~ 0.0048/bit -> word fail ~ 0.9% per run
}

TEST(TmrSystem, ScrubReconvergesModules) {
  // At this rate an UNscrubbed TMR word almost surely fails by 48 h
  // (per-bit odd-flip q ~ 0.087 -> majority-wrong ~ 0.95 per word), while
  // scrubbing every 0.1 h leaves only the ~1.5% chance of a double hit on
  // one bit inside a single window (which, once mis-scrubbed, is latched
  // forever -- real TMR behaviour).
  memory::TmrSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 2e-3;
  int plain_ok = 0;
  int scrubbed_ok = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    cfg.scrub_policy = memory::ScrubPolicy::kNone;
    cfg.seed = 900 + seed;
    memory::TmrSystem plain{cfg};
    plain.store(test_data());
    plain.advance_to(48.0);
    plain_ok += plain.read().data_correct;

    cfg.scrub_policy = memory::ScrubPolicy::kPeriodic;
    cfg.scrub_period_hours = 0.1;
    memory::TmrSystem scrubbed{cfg};
    scrubbed.store(test_data());
    scrubbed.advance_to(48.0);
    EXPECT_GT(scrubbed.stats().scrubs_attempted, 400u);
    scrubbed_ok += scrubbed.read().data_correct;
  }
  EXPECT_LE(plain_ok, 8);
  EXPECT_GE(scrubbed_ok, 26);
}

TEST(Baselines, Validation) {
  models::BaselineParams p;
  p.m = 0;
  EXPECT_THROW(models::bit_wrong_probability(p, 1.0), std::invalid_argument);
  models::BaselineParams ok;
  EXPECT_THROW(models::bit_wrong_probability(ok, -1.0),
               std::invalid_argument);
}

TEST(Baselines, ClosedFormLimits) {
  models::BaselineParams p;
  p.seu_rate_per_bit_hour = 1e-3;
  EXPECT_DOUBLE_EQ(models::bit_wrong_probability(p, 0.0), 0.0);
  // Long-time limit of the odd-flip probability is 1/2.
  EXPECT_NEAR(models::bit_wrong_probability(p, 1e6), 0.5, 1e-6);
  // Small-time: q ~ lambda t.
  EXPECT_NEAR(models::bit_wrong_probability(p, 0.01), 1e-5, 1e-8);
  // Stuck-at contribution: with only permanent faults, q -> 1/2 as well.
  models::BaselineParams perm;
  perm.erasure_rate_per_symbol_hour = 1.0;
  EXPECT_NEAR(models::bit_wrong_probability(perm, 1e4), 0.5, 1e-6);
}

TEST(Baselines, TmrBeatsUnprotectedAtSmallQ) {
  models::BaselineParams p;
  p.seu_rate_per_bit_hour = 1e-5;
  const double t = 48.0;
  const double plain = models::unprotected_word_fail(p, t);
  const double tmr = models::tmr_word_fail(p, t);
  EXPECT_GT(plain, 0.0);
  EXPECT_LT(tmr, plain / 100.0);  // majority suppresses q to ~3q^2
}

TEST(Baselines, MatchFunctionalTmrMonteCarlo) {
  models::BaselineParams p;
  p.seu_rate_per_bit_hour = 2e-3;  // accelerated
  const double t = 48.0;
  const double predicted = models::tmr_word_fail(p, t);
  ASSERT_GT(predicted, 0.02);

  memory::TmrSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 2e-3;
  int failures = 0;
  const int kTrials = 400;
  sim::Rng root{31337};
  for (int trial = 0; trial < kTrials; ++trial) {
    cfg.seed = root.next_u64();
    memory::TmrSystem sys{cfg};
    sys.store(test_data());
    sys.advance_to(t);
    failures += !sys.read().data_correct;
  }
  const double p_hat = static_cast<double>(failures) / kTrials;
  const double se = std::sqrt(predicted * (1.0 - predicted) / kTrials);
  EXPECT_NEAR(p_hat, predicted, 4.0 * se + 5e-3);
}

TEST(Baselines, MatchFunctionalUnprotectedViaSingleModuleVote) {
  // An unprotected module == TMR where all three copies share one fault
  // pattern is not constructible here; instead check the closed form with
  // stuck-at faults against a direct bit-process simulation.
  models::BaselineParams p;
  p.erasure_rate_per_symbol_hour = 5e-3;
  const double t = 48.0;
  const double predicted = models::unprotected_word_fail(p, t);

  sim::Rng rng{77};
  int failures = 0;
  const int kTrials = 3000;
  const double le_bit = 5e-3 / 8.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    bool wrong = false;
    for (int bit = 0; bit < 16 * 8 && !wrong; ++bit) {
      const bool stuck = rng.uniform() < 1.0 - std::exp(-le_bit * t);
      if (stuck && rng.bernoulli(0.5)) wrong = true;
    }
    failures += wrong;
  }
  const double p_hat = static_cast<double>(failures) / kTrials;
  const double se = std::sqrt(predicted * (1.0 - predicted) / kTrials);
  EXPECT_NEAR(p_hat, predicted, 4.0 * se);
}

}  // namespace
}  // namespace rsmem

namespace rsmem::markov {
namespace {

using linalg::CsrMatrix;

TEST(QuasiStationary, SingleTransientStateHazardIsExitRate) {
  const double mu = 3.5;
  const Ctmc chain{CsrMatrix(2, 2, {{0, 0, -mu}, {0, 1, mu}}), 0};
  const QuasiStationaryResult r = quasi_stationary(chain);
  EXPECT_NEAR(r.hazard, mu, 1e-9);
  ASSERT_EQ(r.distribution.size(), 1u);
  EXPECT_NEAR(r.distribution[0], 1.0, 1e-12);
}

TEST(QuasiStationary, BirthChainHazardIsSlowestStage) {
  // Q_TT is triangular with eigenvalues -a, -b: dominant is -min(a,b).
  const double a = 2.0, b = 0.4;
  const Ctmc chain{
      CsrMatrix(3, 3, {{0, 0, -a}, {0, 1, a}, {1, 1, -b}, {1, 2, b}}), 0};
  const QuasiStationaryResult r = quasi_stationary(chain);
  EXPECT_NEAR(r.hazard, std::min(a, b), 1e-8);
}

TEST(QuasiStationary, Validation) {
  const Ctmc ring{CsrMatrix(2, 2,
                            {{0, 0, -1.0},
                             {0, 1, 1.0},
                             {1, 0, 1.0},
                             {1, 1, -1.0}}),
                  0};
  EXPECT_THROW(quasi_stationary(ring), std::invalid_argument);
}

TEST(QuasiStationary, MatchesLateTransientHazardOfScrubbedSimplex) {
  // The paper's Fig. 7 regime: scrubbed chain settles into constant hazard.
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = core::per_day_to_per_hour(1.7e-5);
  p.scrub_rate_per_hour = 1.0;
  const StateSpace space = models::SimplexModel{p}.build();
  const QuasiStationaryResult qs = quasi_stationary(space.chain);
  EXPECT_GT(qs.hazard, 0.0);

  const UniformizationSolver solver;
  SolverWorkspace ws;
  const std::vector<double> times{40.0, 48.0};
  const std::vector<double> p_fail = solver.occupancy_curve(
      space.chain, space.index_of(models::SimplexModel::fail_state()), times,
      ws);
  const double empirical_hazard =
      (p_fail[1] - p_fail[0]) / (times[1] - times[0]) / (1.0 - p_fail[1]);
  EXPECT_NEAR(empirical_hazard / qs.hazard, 1.0, 1e-3);
}

}  // namespace
}  // namespace rsmem::markov

// Tests for the whole-array SSMM simulation and multi-bit-upset support.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "markov/uniformization.h"
#include "memory/fault_injector.h"
#include "memory/interleaved_array.h"
#include "memory/ssmm.h"
#include "models/ber.h"
#include "sim/event_queue.h"

namespace rsmem::memory {
namespace {

TEST(Ssmm, ValidatesInputs) {
  SsmmConfig cfg;
  cfg.words = 0;
  const double times[] = {1.0};
  EXPECT_THROW(run_ssmm_mission(cfg, times), std::invalid_argument);
  cfg.words = 4;
  const double unsorted[] = {2.0, 1.0};
  EXPECT_THROW(run_ssmm_mission(cfg, unsorted), std::invalid_argument);
}

TEST(Ssmm, NoFaultsMeansZeroBer) {
  SsmmConfig cfg;
  cfg.words = 16;
  const double times[] = {24.0, 48.0};
  const auto checkpoints = run_ssmm_mission(cfg, times);
  ASSERT_EQ(checkpoints.size(), 2u);
  for (const auto& cp : checkpoints) {
    EXPECT_EQ(cp.words_read, 16u);
    EXPECT_EQ(cp.bits_read, 16u * 16 * 8);
    EXPECT_EQ(cp.bits_in_error, 0u);
    EXPECT_DOUBLE_EQ(cp.measured_ber(), 0.0);
  }
}

TEST(Ssmm, MeasuredBerTracksMarkovAtAcceleratedRates) {
  SsmmConfig cfg;
  cfg.words = 600;
  cfg.rates.seu_rate_per_bit_hour = 1e-4;
  cfg.seed = 99;
  const double times[] = {48.0};
  const auto checkpoints = run_ssmm_mission(cfg, times);
  const auto& cp = checkpoints.front();

  models::SimplexParams params;
  params.n = 18;
  params.k = 16;
  params.m = 8;
  params.seu_rate_per_bit_hour = 1e-4;
  const std::vector<double> t{48.0};
  const double predicted =
      models::simplex_ber_curve(params, t, markov::UniformizationSolver{})
          .fail_probability[0];
  // Word-level failure fraction ~ Binomial(600, predicted): 4-sigma band.
  const double se = std::sqrt(predicted * (1.0 - predicted) / 600.0);
  EXPECT_NEAR(cp.word_fail_fraction(), predicted, 4.0 * se + 1e-3);
  // Failed reads dominate the operational BER (every failed word counts all
  // its bits), so measured BER ~ word failure fraction here.
  EXPECT_NEAR(cp.measured_ber(), cp.word_fail_fraction(),
              0.3 * cp.word_fail_fraction() + 1e-3);
}

TEST(Ssmm, CumulativeCheckpointsAreMonotoneUnderPureDecay) {
  // With no scrubbing, damage only accumulates, so the failure fraction at
  // the later checkpoint must be >= the earlier one (same words).
  SsmmConfig cfg;
  cfg.words = 300;
  cfg.rates.seu_rate_per_bit_hour = 6e-5;
  cfg.seed = 123;
  const double times[] = {24.0, 48.0};
  const auto checkpoints = run_ssmm_mission(cfg, times);
  EXPECT_GE(checkpoints[1].word_fail_fraction(),
            checkpoints[0].word_fail_fraction());
}

TEST(Ssmm, DuplexArrayBeatsSimplexUnderPermanentFaults) {
  SsmmConfig cfg;
  cfg.words = 200;
  cfg.rates.perm_rate_per_symbol_hour = 5e-3;
  cfg.seed = 7;
  const double times[] = {48.0};
  const auto simplex = run_ssmm_mission(cfg, times);
  cfg.duplex = true;
  const auto duplex = run_ssmm_mission(cfg, times);
  EXPECT_LT(duplex[0].word_fail_fraction() + 1e-12,
            simplex[0].word_fail_fraction());
}

TEST(Ssmm, ScrubbedArrayOutlivesUnscrubbed) {
  SsmmConfig cfg;
  cfg.words = 150;
  cfg.rates.seu_rate_per_bit_hour = 1e-3;
  cfg.seed = 31;
  const double times[] = {48.0};
  const auto plain = run_ssmm_mission(cfg, times);
  cfg.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 0.1;
  const auto scrubbed = run_ssmm_mission(cfg, times);
  EXPECT_LT(scrubbed[0].word_fail_fraction(),
            plain[0].word_fail_fraction() * 0.5);
}

TEST(Mbu, InjectorValidation) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  FaultRates rates;
  rates.seu_rate_per_bit_hour = 1.0;
  rates.mbu_probability = 1.5;
  EXPECT_THROW(FaultInjector(rates, sim::Rng{1}, q, mod),
               std::invalid_argument);
  rates.mbu_probability = 0.5;
  rates.mbu_span_bits = 1;
  EXPECT_THROW(FaultInjector(rates, sim::Rng{1}, q, mod),
               std::invalid_argument);
  rates.mbu_span_bits = 18 * 8 + 1;
  EXPECT_THROW(FaultInjector(rates, sim::Rng{1}, q, mod),
               std::invalid_argument);
}

TEST(Mbu, BurstsFlipAdjacentBits) {
  sim::EventQueue q;
  MemoryModule mod{4, 8};
  mod.write(std::vector<Element>(4, 0));
  FaultRates rates;
  rates.seu_rate_per_bit_hour = 1.0;
  rates.mbu_probability = 1.0;  // every arrival is a burst
  rates.mbu_span_bits = 2;
  FaultInjector inj{rates, sim::Rng{3}, q, mod};
  inj.start();
  // Run until exactly one arrival happened.
  while (inj.seu_injected() == 0) q.step();
  // Exactly two bits flipped, adjacent in linear order.
  unsigned flipped = 0;
  int first = -1, second = -1;
  const auto word = mod.read();
  for (unsigned s = 0; s < 4; ++s) {
    for (unsigned b = 0; b < 8; ++b) {
      if (word[s] & (1u << b)) {
        ++flipped;
        if (first < 0) {
          first = static_cast<int>(s * 8 + b);
        } else {
          second = static_cast<int>(s * 8 + b);
        }
      }
    }
  }
  ASSERT_EQ(flipped, 2u);
  EXPECT_EQ(second - first, 1);
}

TEST(Mbu, ModelValidation) {
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.0;
  p.mbu_probability = -0.1;
  EXPECT_THROW(models::SimplexModel{p}, std::invalid_argument);
  p.mbu_probability = 0.5;
  p.mbu_span_bits = 9;  // > m
  EXPECT_THROW(models::SimplexModel{p}, std::invalid_argument);
}

TEST(Mbu, ChainDegradesBerAsMbuFractionGrows) {
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};
  double prev = 0.0;
  for (const double p_mbu : {0.0, 0.1, 0.5, 1.0}) {
    models::SimplexParams p;
    p.n = 18;
    p.k = 16;
    p.m = 8;
    p.seu_rate_per_bit_hour = 1e-4;
    p.mbu_probability = p_mbu;
    const double ber =
        models::simplex_ber_curve(p, times, solver).fail_probability[0];
    EXPECT_GT(ber, prev) << "p_mbu=" << p_mbu;
    prev = ber;
  }
}

TEST(Mbu, FunctionalMatchesMeanFieldChain) {
  // 2-bit bursts at 50% MBU fraction, accelerated: the mean-field chain
  // must predict the functional failure fraction within a 4-sigma band.
  SsmmConfig cfg;
  cfg.words = 600;
  cfg.rates.seu_rate_per_bit_hour = 1e-4;
  cfg.rates.mbu_probability = 0.5;
  cfg.rates.mbu_span_bits = 2;
  cfg.seed = 777;
  const double times[] = {48.0};
  const auto checkpoints = run_ssmm_mission(cfg, times);

  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-4;
  p.mbu_probability = 0.5;
  p.mbu_span_bits = 2;
  const std::vector<double> t{48.0};
  const double predicted =
      models::simplex_ber_curve(p, t, markov::UniformizationSolver{})
          .fail_probability[0];
  const double se = std::sqrt(predicted * (1.0 - predicted) / 600.0);
  EXPECT_NEAR(checkpoints[0].word_fail_fraction(), predicted,
              4.0 * se + 2e-3);
}

TEST(Mbu, InSymbolBurstsAreAbsorbedByTheCode) {
  // Bursts confined inside one symbol (span=2 with aligned flips crossing
  // rarely): compare pure single-bit flips against 100% MBU bursts of span
  // 2 -- the failure fraction rises only by the boundary-crossing fraction
  // q = (n-1)/(n*m-1) ~ 12%, NOT by 2x, because RS corrects symbols.
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 5e-5;
  const double single =
      models::simplex_ber_curve(p, times, solver).fail_probability[0];
  p.mbu_probability = 1.0;
  const double burst =
      models::simplex_ber_curve(p, times, solver).fail_probability[0];
  EXPECT_GT(burst, single);
  EXPECT_LT(burst, single * 2.0);
}

TEST(InterleavedArray, Validation) {
  InterleavedArrayConfig cfg;
  cfg.depth = 0;
  EXPECT_THROW(run_interleaved_trial(cfg, 1.0), std::invalid_argument);
  cfg.depth = 1;
  EXPECT_THROW(run_interleaved_trial(cfg, -1.0), std::invalid_argument);
  cfg.rates.mbu_probability = 0.5;
  cfg.rates.mbu_span_bits = 1;
  EXPECT_THROW(run_interleaved_trial(cfg, 1.0), std::invalid_argument);
  EXPECT_THROW(interleaved_fail_fraction(InterleavedArrayConfig{}, 1.0, 0),
               std::invalid_argument);
}

TEST(InterleavedArray, RejectsNonFiniteRates) {
  // A NaN rate used to report 0 arrivals and 0 failures, and a NaN MBU
  // probability counted as 0.
  InterleavedArrayConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_interleaved_trial(cfg, 1.0), std::invalid_argument);
  cfg.rates.seu_rate_per_bit_hour = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_interleaved_trial(cfg, 1.0), std::invalid_argument);
  cfg.rates.seu_rate_per_bit_hour = 1e-6;
  cfg.rates.mbu_probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_interleaved_trial(cfg, 1.0), std::invalid_argument);
}

TEST(InterleavedArray, RejectsNonFiniteHorizon) {
  // t_hours = +inf used to never return.
  InterleavedArrayConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 1e-6;
  EXPECT_THROW(
      run_interleaved_trial(cfg, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_THROW(
      run_interleaved_trial(cfg, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(InterleavedArray, NoFaultsNoFailures) {
  InterleavedArrayConfig cfg;
  cfg.depth = 4;
  const InterleavedTrialResult r = run_interleaved_trial(cfg, 48.0);
  EXPECT_EQ(r.words, 4u);
  EXPECT_EQ(r.failed_words(), 0u);
  EXPECT_EQ(r.seu_arrivals, 0u);
  EXPECT_DOUBLE_EQ(r.fail_fraction(), 0.0);
}

TEST(InterleavedArray, DeterministicGivenSeed) {
  InterleavedArrayConfig cfg;
  cfg.depth = 2;
  cfg.rates.seu_rate_per_bit_hour = 1e-3;
  cfg.seed = 1234;
  const InterleavedTrialResult a = run_interleaved_trial(cfg, 48.0);
  const InterleavedTrialResult b = run_interleaved_trial(cfg, 48.0);
  EXPECT_EQ(a.seu_arrivals, b.seu_arrivals);
  EXPECT_EQ(a.failed_words(), b.failed_words());
}

TEST(InterleavedArray, SingleBitSeuMatchesPlainLayoutStatistics) {
  // Without bursts, depth must not change the per-word failure statistics
  // (the interleaving map is a bijection on bits).
  InterleavedArrayConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 8e-5;
  cfg.seed = 777;
  cfg.depth = 1;
  const double d1 = interleaved_fail_fraction(cfg, 48.0, 20000);
  cfg.depth = 4;
  const double d4 = interleaved_fail_fraction(cfg, 48.0, 5000);
  // Same expected value; allow 4-sigma binomial wiggle on ~20k words each.
  const double se = std::sqrt(d1 * (1.0 - d1) / 20000.0);
  EXPECT_NEAR(d4, d1, 4.0 * se + 1e-3);
}

TEST(InterleavedArray, DepthAtLeastSpanSuppressesBurstKills) {
  // Rare-burst regime: with depth >= span, one burst can no longer put two
  // symbol errors into the same codeword, so the fail fraction drops well
  // below the plain layout's.
  InterleavedArrayConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 2e-6;
  cfg.rates.mbu_probability = 1.0;
  cfg.rates.mbu_span_bits = 4;
  cfg.seed = 4242;
  cfg.depth = 1;
  const double d1 = interleaved_fail_fraction(cfg, 48.0, 60000);
  cfg.depth = 4;
  const double d4 = interleaved_fail_fraction(cfg, 48.0, 15000);
  EXPECT_GT(d1, 0.0);
  EXPECT_LT(d4, d1 * 0.6);
}

}  // namespace
}  // namespace rsmem::memory

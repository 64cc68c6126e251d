// Tests for derived metrics: MTTF, deterministic-periodic scrubbing,
// array-level figures, the detection-latency model and scrub overhead.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/units.h"
#include "markov/periodic.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/detection_model.h"
#include "models/memory_array.h"
#include "models/metrics.h"
#include "reliability/scrub_overhead.h"

namespace rsmem::models {
namespace {

SimplexParams simplex_base() {
  SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  return p;
}

TEST(Mttf, ErasureOnlySimplexClosedForm) {
  // Pure birth chain: MTTF = 1/(18 le) + 1/(17 le) + 1/(16 le).
  SimplexParams p = simplex_base();
  const double le = 0.01;
  p.erasure_rate_per_symbol_hour = le;
  const double expected =
      1.0 / (18 * le) + 1.0 / (17 * le) + 1.0 / (16 * le);
  EXPECT_NEAR(simplex_mttf_hours(p), expected, 1e-9);
}

TEST(Mttf, ScrubbingExtendsLife) {
  SimplexParams p = simplex_base();
  p.seu_rate_per_bit_hour = 1e-3;
  const double no_scrub = simplex_mttf_hours(p);
  p.scrub_rate_per_hour = 10.0;
  const double with_scrub = simplex_mttf_hours(p);
  EXPECT_GT(with_scrub, 5.0 * no_scrub);
}

TEST(Mttf, DuplexOutlivesSimplexUnderPermanentFaults) {
  SimplexParams sp = simplex_base();
  sp.erasure_rate_per_symbol_hour = 1e-4;
  DuplexParams dp;
  dp.n = 18;
  dp.k = 16;
  dp.m = 8;
  dp.erasure_rate_per_symbol_hour = 1e-4;
  EXPECT_GT(duplex_mttf_hours(dp), 3.0 * simplex_mttf_hours(sp));
}

TEST(Mttf, ThrowsWhenFailUnreachable) {
  EXPECT_THROW(simplex_mttf_hours(simplex_base()), std::domain_error);
  EXPECT_THROW(duplex_mttf_hours(DuplexParams{}), std::domain_error);
}

TEST(PeriodicScrub, MatchesNoScrubWhenPeriodExceedsHorizon) {
  SimplexParams p = simplex_base();
  p.seu_rate_per_bit_hour = 1e-4;
  const markov::UniformizationSolver solver;
  const std::vector<double> times{10.0, 40.0};
  const BerCurve periodic =
      simplex_periodic_scrub_ber(p, 1000.0, times, solver);
  const BerCurve none = simplex_ber_curve(p, times, solver);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(periodic.fail_probability[i], none.fail_probability[i],
                1e-12);
  }
}

TEST(PeriodicScrub, ImprovesOverNoScrubAndTracksExponential) {
  SimplexParams p = simplex_base();
  p.seu_rate_per_bit_hour = 5e-4;
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};
  const double tsc = 0.5;  // hours

  const double none =
      simplex_ber_curve(p, times, solver).fail_probability[0];
  const double periodic =
      simplex_periodic_scrub_ber(p, tsc, times, solver).fail_probability[0];
  SimplexParams pe = p;
  pe.scrub_rate_per_hour = 1.0 / tsc;
  const double exponential =
      simplex_ber_curve(pe, times, solver).fail_probability[0];

  EXPECT_LT(periodic, none / 10.0);
  // The exponential approximation sometimes scrubs late (memoryless), so it
  // must be PESSIMISTIC relative to the deterministic policy...
  EXPECT_GT(exponential, periodic);
  // ...but within a small factor at these rates.
  EXPECT_LT(exponential, periodic * 4.0);
}

TEST(PeriodicScrub, DuplexScrubMapKeepsPermanentDamage) {
  DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 2e-4;
  p.erasure_rate_per_symbol_hour = 1e-4;
  const markov::UniformizationSolver solver;
  const std::vector<double> times{24.0, 48.0};
  const BerCurve periodic = duplex_periodic_scrub_ber(p, 0.5, times, solver);
  const BerCurve none = duplex_ber_curve(p, times, solver);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_LT(periodic.fail_probability[i], none.fail_probability[i]);
    EXPECT_GT(periodic.fail_probability[i], 0.0);
  }
}

TEST(PeriodicJump, ValidatesInputs) {
  SimplexParams p = simplex_base();
  p.seu_rate_per_bit_hour = 1e-4;
  const markov::StateSpace space = SimplexModel{p}.build();
  const markov::UniformizationSolver solver;
  const std::vector<double> pi0 = space.chain.initial_distribution();
  markov::SolverWorkspace ws;
  std::vector<std::size_t> map(space.size(), 0);
  EXPECT_THROW(markov::solve_with_periodic_jump(space.chain, pi0, map, 0.0,
                                                1.0, solver, ws),
               std::invalid_argument);
  map[0] = space.size();  // out of range
  EXPECT_THROW(markov::solve_with_periodic_jump(space.chain, pi0, map, 1.0,
                                                1.0, solver, ws),
               std::invalid_argument);
  std::vector<std::size_t> short_map(space.size() - 1, 0);
  EXPECT_THROW(markov::solve_with_periodic_jump(space.chain, pi0, short_map,
                                                1.0, 1.0, solver, ws),
               std::invalid_argument);
}

TEST(DetectionModel, InstantDetectionRecoversBaseModel) {
  // delta very large: undetected faults convert immediately; BER must match
  // the base simplex chain closely.
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};
  SimplexParams base = simplex_base();
  base.erasure_rate_per_symbol_hour = 2e-3;
  const double base_ber =
      simplex_ber_curve(base, times, solver).fail_probability[0];

  DetectionParams det;
  det.n = 18;
  det.k = 16;
  det.m = 8;
  det.erasure_rate_per_symbol_hour = 2e-3;
  // Location within ~1 minute is "instant" next to fault inter-arrival
  // times of hours; much larger deltas only make the chain stiffer.
  det.detection_rate_per_hour = 50.0;
  const DetectionModel model{det};
  const markov::StateSpace space = model.build();
  const double det_ber =
      model.fail_probability(space, times, solver).front();
  EXPECT_NEAR(det_ber, base_ber, base_ber * 0.01);
}

TEST(DetectionModel, SlowerDetectionDegradesReliability) {
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};
  double prev = 0.0;
  // delta from near-instant to never: fail probability must increase.
  for (const double delta : {50.0, 1.0, 0.1, 0.0}) {
    DetectionParams det;
    det.n = 18;
    det.k = 16;
    det.m = 8;
    det.erasure_rate_per_symbol_hour = 2e-3;
    det.detection_rate_per_hour = delta;
    const DetectionModel model{det};
    const markov::StateSpace space = model.build();
    const double p_fail =
        model.fail_probability(space, times, solver).front();
    EXPECT_GT(p_fail, prev) << "delta=" << delta;
    prev = p_fail;
  }
}

TEST(DetectionModel, TransitionStructure) {
  DetectionParams det;
  det.n = 36;
  det.k = 16;
  det.m = 8;
  det.seu_rate_per_bit_hour = 1.0;
  det.erasure_rate_per_symbol_hour = 2.0;
  det.detection_rate_per_hour = 5.0;
  det.scrub_rate_per_hour = 7.0;
  const DetectionModel model{det};
  std::map<markov::PackedState, double> t;
  model.for_each_transition(
      DetectionModel::pack(DetectionState{2, 1, 3}),
      [&](double rate, markov::PackedState to) { t[to] += rate; });
  const unsigned untouched = 36 - 6;
  // SEU on untouched -> re+1.
  EXPECT_DOUBLE_EQ(t.at(DetectionModel::pack({2, 1, 4})), 8.0 * untouched);
  // Permanent on untouched -> eu+1.
  EXPECT_DOUBLE_EQ(t.at(DetectionModel::pack({3, 1, 3})), 2.0 * untouched);
  // Permanent on an SEU symbol -> eu+1, re-1.
  EXPECT_DOUBLE_EQ(t.at(DetectionModel::pack({3, 1, 2})), 2.0 * 3.0);
  // Detection -> eu-1, ed+1.
  EXPECT_DOUBLE_EQ(t.at(DetectionModel::pack({1, 2, 3})), 5.0 * 2.0);
  // Scrub -> re=0.
  EXPECT_DOUBLE_EQ(t.at(DetectionModel::pack({2, 1, 0})), 7.0);
}

TEST(DetectionModel, RejectsNonFiniteNegativeAndUnsortedTimes) {
  const markov::UniformizationSolver solver;
  DetectionParams det;
  det.n = 18;
  det.k = 16;
  det.m = 8;
  det.seu_rate_per_bit_hour = 1e-3;
  det.erasure_rate_per_symbol_hour = 1e-3;
  det.detection_rate_per_hour = 0.5;
  det.scrub_rate_per_hour = 1.0;
  const DetectionModel model{det};
  const markov::StateSpace space = model.build();
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad_grids = {
      {nan}, {24.0, nan}, {inf}, {24.0, -inf}, {-1.0}, {24.0, 12.0}};
  for (const std::vector<double>& times : bad_grids) {
    EXPECT_THROW(model.fail_probability(space, times, solver),
                 std::invalid_argument)
        << "times[0]=" << times[0] << " size=" << times.size();
  }
}

TEST(DetectionModel, FailProbabilityEqualsChainedSolvesBitForBit) {
  // The location-latency sweep of bench_detection_latency, against a
  // reference walk that chains one fresh solve() per step.
  const markov::UniformizationSolver solver;
  const std::vector<double> times = time_grid_hours(48.0, 25);
  for (const double delta : {60.0, 1.0, 1.0 / 12.0, 0.0}) {
    DetectionParams det;
    det.n = 18;
    det.k = 16;
    det.m = 8;
    det.erasure_rate_per_symbol_hour = core::per_day_to_per_hour(5e-2);
    det.detection_rate_per_hour = delta;
    const DetectionModel model{det};
    const markov::StateSpace space = model.build();

    std::vector<double> expected;
    std::vector<double> pi = space.chain.initial_distribution();
    double t_prev = 0.0;
    for (const double t : times) {
      if (t > t_prev) {
        pi = solver.solve(space.chain, pi, t - t_prev);
        t_prev = t;
      }
      double unrecoverable_mass = 0.0;
      for (std::size_t i = 0; i < space.size(); ++i) {
        if (!model.recoverable_packed(space.states[i])) {
          unrecoverable_mass += pi[i];
        }
      }
      expected.push_back(unrecoverable_mass);
    }

    const std::vector<double> actual =
        model.fail_probability(space, times, solver);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "delta=" << delta << " i=" << i;
    }
  }
}

TEST(DetectionModel, ValidatesParams) {
  DetectionParams det;
  det.n = 18;
  det.k = 18;
  EXPECT_THROW(DetectionModel{det}, std::invalid_argument);
  det.k = 16;
  det.detection_rate_per_hour = -1.0;
  EXPECT_THROW(DetectionModel{det}, std::invalid_argument);
}

TEST(MemoryArray, SurvivalFormulas) {
  EXPECT_DOUBLE_EQ(array_survival(0.0, 1000), 1.0);
  EXPECT_DOUBLE_EQ(array_survival(1.0, 1000), 0.0);
  EXPECT_NEAR(array_survival(0.5, 2), 0.25, 1e-15);
  EXPECT_NEAR(array_loss_probability(1e-12, 1u << 20),
              1e-12 * (1u << 20),
              1e-6 * 1e-12 * (1u << 20));  // tiny regime: ~W*p
  EXPECT_DOUBLE_EQ(expected_failed_words(0.25, 8), 2.0);
  EXPECT_THROW(array_survival(-0.1, 10), std::invalid_argument);
  EXPECT_THROW(array_survival(1.5, 10), std::invalid_argument);
}

TEST(MemoryArray, HugeArrayStaysAccurate) {
  // 1e9 words with p = 1e-15: loss ~ 1e-6 without catastrophic rounding.
  const double loss = array_loss_probability(1e-15, 1'000'000'000);
  EXPECT_NEAR(loss, 1e-6, 1e-9);
}

TEST(MemoryArray, MttdlScalesInverselyWithLogOfWords) {
  SimplexParams p = simplex_base();
  p.erasure_rate_per_symbol_hour = 1e-3;
  const double one = array_mttdl_hours(p, 1, 20000.0);
  const double many = array_mttdl_hours(p, 1024, 20000.0);
  EXPECT_GT(one, many);
  // Single-word MTTDL must agree with the absorption-based MTTF.
  EXPECT_NEAR(one, simplex_mttf_hours(p), one * 0.01);
}

TEST(MemoryArray, MttdlValidation) {
  SimplexParams p = simplex_base();
  EXPECT_THROW(array_mttdl_hours(p, 10, -1.0), std::invalid_argument);
  EXPECT_THROW(array_mttdl_hours(p, 10, 100.0), std::domain_error);
}

}  // namespace
}  // namespace rsmem::models

namespace rsmem::reliability {
namespace {

TEST(ScrubOverhead, BasicAccounting) {
  const DecoderCostModel model;
  ScrubOverheadParams params;
  params.words = 1u << 20;
  params.clock_hz = 50e6;
  const ScrubOverhead oh = scrub_overhead(model, 18, 16, 3600.0, params);
  // Per word: 2 + 74 + 0.05*2 = 76.1 cycles; 2^20 words.
  EXPECT_NEAR(oh.cycles_per_pass, 76.1 * 1048576.0, 1.0);
  EXPECT_NEAR(oh.pass_seconds, oh.cycles_per_pass / 50e6, 1e-9);
  EXPECT_NEAR(oh.duty_fraction, oh.pass_seconds / 3600.0, 1e-12);
  EXPECT_NEAR(oh.availability, 1.0 - oh.duty_fraction, 1e-15);
  EXPECT_GT(oh.average_power_watts, 0.0);
}

TEST(ScrubOverhead, WideCodeCostsMoreAvailability) {
  const DecoderCostModel model;
  ScrubOverheadParams params;
  const ScrubOverhead narrow = scrub_overhead(model, 18, 16, 900.0, params);
  const ScrubOverhead wide = scrub_overhead(model, 36, 16, 900.0, params);
  EXPECT_GT(wide.duty_fraction, narrow.duty_fraction);
  // Two parallel engines (duplex) halve the pass time.
  ScrubOverheadParams two = params;
  two.decoders = 2;
  const ScrubOverhead dual = scrub_overhead(model, 18, 16, 900.0, two);
  EXPECT_NEAR(dual.pass_seconds, narrow.pass_seconds / 2.0, 1e-9);
}

TEST(ScrubOverhead, Validation) {
  const DecoderCostModel model;
  ScrubOverheadParams params;
  EXPECT_THROW(scrub_overhead(model, 18, 16, 0.0, params),
               std::invalid_argument);
  params.write_back_fraction = 1.5;
  EXPECT_THROW(scrub_overhead(model, 18, 16, 900.0, params),
               std::invalid_argument);
  // A pass that cannot fit: enormous array, tiny period.
  ScrubOverheadParams huge;
  huge.words = 1u << 30;
  huge.clock_hz = 1e6;
  EXPECT_THROW(scrub_overhead(model, 18, 16, 1.0, huge),
               std::invalid_argument);
}

}  // namespace
}  // namespace rsmem::reliability

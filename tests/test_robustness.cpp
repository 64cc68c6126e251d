// Robustness layer: status taxonomy, config validation, thread-pool
// exception propagation, the guarded solver fallback chain, graceful
// degradation policies, and the adversarial fault-injection campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analysis/fault_campaign.h"
#include "core/api.h"
#include "core/config.h"
#include "core/status.h"
#include "linalg/csr_matrix.h"
#include "markov/ctmc.h"
#include "markov/periodic.h"
#include "markov/solver_guard.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "memory/degradation.h"
#include "memory/duplex_system.h"
#include "memory/simplex_system.h"
#include "models/ber.h"
#include "rs/reed_solomon.h"
#include "sim/thread_pool.h"

namespace rsmem {
namespace {

using core::Status;
using core::StatusCode;
using gf::Element;

// ---- status taxonomy ----

TEST(Status, TaxonomyAndContextChain) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_STREQ(core::to_string(StatusCode::kInvalidConfig), "InvalidConfig");
  EXPECT_STREQ(core::to_string(StatusCode::kSolverDivergence),
               "SolverDivergence");
  Status s = Status::decode_failure("pattern beyond capability");
  s.with_context("read").with_context("duplex");
  EXPECT_EQ(s.code(), StatusCode::kDecodeFailure);
  EXPECT_EQ(s.message(), "duplex: read: pattern beyond capability");
  EXPECT_NE(s.to_string().find("DecodeFailure"), std::string::npos);
}

TEST(Status, ResultValueAndError) {
  core::Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(-1), 7);

  core::Result<int> bad(Status::invalid_config("k >= n"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidConfig);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), core::StatusError);
  try {
    (void)bad.value();
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidConfig);
  }
}

// ---- config validation hardening ----

core::MemorySystemSpec valid_spec() {
  core::MemorySystemSpec spec;
  spec.seu_rate_per_bit_day = 1e-5;
  spec.scrub_period_seconds = 900.0;
  return spec;
}

TEST(ConfigValidation, AcceptsPaperSpec) {
  EXPECT_TRUE(valid_spec().validate_status().is_ok());
  EXPECT_NO_THROW(valid_spec().validate());
}

TEST(ConfigValidation, RejectsZeroK) {
  core::MemorySystemSpec spec = valid_spec();
  spec.code.k = 0;
  const Status s = spec.validate_status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsKNotBelowN) {
  core::MemorySystemSpec spec = valid_spec();
  spec.code.k = spec.code.n;  // zero parity symbols
  const Status s = spec.validate_status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  // The message must be actionable: name the constraint and the values.
  EXPECT_NE(s.message().find("parity"), std::string::npos);
  EXPECT_NE(s.message().find("18"), std::string::npos);
}

TEST(ConfigValidation, RejectsSymbolWidthOutOfRange) {
  core::MemorySystemSpec spec = valid_spec();
  spec.code.m = 1;
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
  spec.code.m = 17;
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
}

TEST(ConfigValidation, RejectsCodeLongerThanField) {
  core::MemorySystemSpec spec = valid_spec();
  spec.code = {300, 16, 8, 1};  // n > 2^8 - 1
  const Status s = spec.validate_status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find("255"), std::string::npos);
}

TEST(ConfigValidation, RejectsBadRates) {
  core::MemorySystemSpec spec = valid_spec();
  spec.seu_rate_per_bit_day = -1.0;
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
  spec = valid_spec();
  spec.seu_rate_per_bit_day = std::nan("");
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
  spec = valid_spec();
  spec.erasure_rate_per_symbol_day = -2.0;
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
  spec = valid_spec();
  spec.scrub_period_seconds = -900.0;
  EXPECT_EQ(spec.validate_status().code(), StatusCode::kInvalidConfig);
}

TEST(ConfigValidation, ScrubbedVariantRequiresPositivePeriod) {
  core::MemorySystemSpec spec = valid_spec();
  spec.scrub_period_seconds = 0.0;  // fine in general (no scrubbing)...
  EXPECT_TRUE(spec.validate_status().is_ok());
  // ...but not for analyses that model the scrubbing process.
  EXPECT_EQ(spec.validate_scrubbed_status().code(),
            StatusCode::kInvalidConfig);
}

TEST(ConfigValidation, TryApiReturnsInvalidConfigInsteadOfThrowing) {
  core::MemorySystemSpec spec = valid_spec();
  spec.code.k = spec.code.n;
  const double times[] = {1.0, 2.0};
  const core::Result<models::BerCurve> curve = try_analyze_ber(spec, times);
  ASSERT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), StatusCode::kInvalidConfig);
  const core::Result<double> p = try_fail_probability(spec, 1.0);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidConfig);

  // Periodic-scrub analysis additionally needs a scrub period.
  core::MemorySystemSpec no_scrub = valid_spec();
  no_scrub.scrub_period_seconds = 0.0;
  const core::Result<models::BerCurve> periodic =
      try_analyze_ber_periodic_scrub(no_scrub, times);
  ASSERT_FALSE(periodic.ok());
  EXPECT_EQ(periodic.status().code(), StatusCode::kInvalidConfig);
}

TEST(ConfigValidation, TryApiMatchesThrowingApiOnValidSpec) {
  const core::MemorySystemSpec spec = valid_spec();
  const double times[] = {1.0, 24.0, 48.0};
  const models::BerCurve direct = analyze_ber(spec, times);
  const core::Result<models::BerCurve> guarded = try_analyze_ber(spec, times);
  ASSERT_TRUE(guarded.ok());
  ASSERT_EQ(guarded.value().ber.size(), direct.ber.size());
  for (std::size_t i = 0; i < direct.ber.size(); ++i) {
    EXPECT_EQ(guarded.value().ber[i], direct.ber[i]) << "point " << i;
  }
  const core::Result<double> mttf = try_mttf_hours(spec);
  ASSERT_TRUE(mttf.ok());
  EXPECT_EQ(mttf.value(), mttf_hours(spec));
}

// ---- non-finite times and horizons ----

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NonFiniteTimes, TryApiReturnsInvalidConfig) {
  core::MemorySystemSpec duplex = valid_spec();
  duplex.arrangement = analysis::Arrangement::kDuplex;
  core::MemorySystemSpec zero_rates;  // Fail unreachable: BER would be 0
  for (const core::MemorySystemSpec& spec :
       {valid_spec(), duplex, zero_rates}) {
    for (const double bad : {kNaN, kInf, -kInf}) {
      const double times[] = {1.0, bad};
      EXPECT_EQ(try_analyze_ber(spec, times).status().code(),
                StatusCode::kInvalidConfig)
          << bad;
      EXPECT_EQ(try_fail_probability(spec, bad).status().code(),
                StatusCode::kInvalidConfig)
          << bad;
    }
  }
}

TEST(NonFiniteTimes, PeriodicScrubReturnsInsteadOfLooping) {
  // +inf used to spin forever in the scrub-cycle loop; NaN gave 0.
  core::MemorySystemSpec spec = valid_spec();
  spec.arrangement = analysis::Arrangement::kDuplex;
  for (const double bad : {kNaN, kInf, -kInf}) {
    const double times[] = {bad};
    EXPECT_EQ(try_analyze_ber_periodic_scrub(spec, times).status().code(),
              StatusCode::kInvalidConfig)
        << bad;
  }
}

TEST(NonFiniteTimes, SimulateRejectsBadHorizon) {
  core::MemorySystemSpec spec = valid_spec();
  spec.seu_rate_per_bit_day = 0.02;
  for (const auto arrangement :
       {analysis::Arrangement::kSimplex, analysis::Arrangement::kDuplex}) {
    spec.arrangement = arrangement;
    for (const double bad : {kNaN, kInf, -kInf, -1.0}) {
      analysis::MonteCarloConfig config;
      config.trials = 8;
      config.t_end_hours = bad;
      EXPECT_EQ(try_simulate(spec, config).status().code(),
                StatusCode::kInvalidConfig)
          << bad;
    }
  }
}

TEST(NonFiniteTimes, WalksAndGridRejectThem) {
  const markov::Ctmc chain(linalg::CsrMatrix(2, 2, {{0, 0, -1.0}, {0, 1, 1.0}}),
                           0);
  const markov::UniformizationSolver solver;
  markov::SolverWorkspace ws;
  const std::vector<std::size_t> identity{0, 1};
  const std::vector<double> pi0 = chain.initial_distribution();
  for (const double bad : {kNaN, kInf}) {
    const std::vector<double> times{0.5, bad};
    EXPECT_THROW(solver.occupancy_curve(chain, 1, times, ws),
                 std::invalid_argument);
    EXPECT_THROW(markov::occupancy_with_periodic_jump(chain, 1, identity, 0.5,
                                                      times, solver, ws),
                 std::invalid_argument);
    EXPECT_THROW(markov::solve_with_periodic_jump(chain, pi0, identity, 0.5,
                                                  bad, solver, ws),
                 std::invalid_argument);
    EXPECT_THROW(markov::solve_with_periodic_jump(chain, pi0, identity, bad,
                                                  1.0, solver, ws),
                 std::invalid_argument);
    EXPECT_THROW(models::time_grid_hours(bad, 3), std::invalid_argument);
    EXPECT_THROW(solver.solve(chain, pi0, bad), std::invalid_argument);
  }
}

// ---- thread-pool exception propagation ----

TEST(ThreadPoolExceptions, FirstExceptionRethrownFromWaitIdle) {
  sim::ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([i, &completed] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ++completed;
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 7);  // the other tasks all ran
}

TEST(ThreadPoolExceptions, PoolUsableAfterFailure) {
  sim::ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // The exception slot is cleared: new work runs normally.
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolExceptions, OnlyFirstOfManyIsReported) {
  sim::ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit([] { throw std::runtime_error("each task throws"); });
  }
  // Exactly one throw surfaces; the pool still drains completely.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());
}

// ---- guarded solver fallback chain ----

markov::Ctmc small_chain() {
  return markov::Ctmc(
      linalg::CsrMatrix(
          3, 3, {{0, 0, -2.0}, {0, 1, 2.0}, {1, 1, -1.0}, {1, 2, 1.0}}),
      0);
}

TEST(SolverGuard, DistributionChecks) {
  const std::vector<double> good = {0.25, 0.5, 0.25};
  EXPECT_EQ(markov::check_distribution(good, 1.0),
            markov::GuardTrip::kNone);
  const std::vector<double> nan_dist = {0.5, std::nan(""), 0.0};
  EXPECT_EQ(markov::check_distribution(nan_dist, 1.0),
            markov::GuardTrip::kNonFinite);
  const std::vector<double> negative = {1.1, -0.1, 0.0};
  EXPECT_EQ(markov::check_distribution(negative, 1.0),
            markov::GuardTrip::kNegativeMass);
  const std::vector<double> drifted = {0.6, 0.6, 0.0};
  EXPECT_EQ(markov::check_distribution(drifted, 1.0),
            markov::GuardTrip::kMassDrift);
  // Sub-distributions conserve THEIR OWN mass (absorption-style solves).
  const std::vector<double> sub = {0.2, 0.3, 0.0};
  EXPECT_EQ(markov::check_distribution(sub, 0.5),
            markov::GuardTrip::kNone);
}

TEST(SolverGuard, BitwiseIdenticalWhenNoGuardTrips) {
  const markov::Ctmc chain = small_chain();
  const markov::UniformizationSolver plain;
  const markov::GuardedTransientSolver guarded;
  for (const double t : {0.1, 1.0, 10.0}) {
    const std::vector<double> expected = plain.solve(chain, t);
    const std::vector<double> got = guarded.solve(chain, t);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "t=" << t << " state " << i;
    }
    EXPECT_EQ(guarded.last_report().answered_by,
              markov::SolverStage::kUniformization);
    EXPECT_FALSE(guarded.last_report().fallback_used);
  }
  EXPECT_EQ(guarded.fallbacks_taken(), 0u);
}

TEST(SolverGuard, ForcedTripFallsBackToRk45) {
  markov::SolverGuardConfig cfg;
  cfg.force_uniformization_trip = true;
  const markov::GuardedTransientSolver guarded(cfg);
  const markov::Ctmc chain = small_chain();
  const std::vector<double> reference =
      markov::UniformizationSolver().solve(chain, 1.0);
  const std::vector<double> got = guarded.solve(chain, 1.0);
  const markov::GuardedSolveReport& report = guarded.last_report();
  EXPECT_TRUE(report.fallback_used);
  EXPECT_EQ(report.answered_by, markov::SolverStage::kRk45);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].trip, markov::GuardTrip::kForced);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], reference[i], 1e-7);
  }
  EXPECT_EQ(guarded.fallbacks_taken(), 1u);
}

TEST(SolverGuard, ExhaustedChainThrowsSolverDivergence) {
  markov::SolverGuardConfig cfg;
  cfg.force_uniformization_trip = true;
  cfg.force_rk45_trip = true;
  cfg.force_expm_trip = true;
  const markov::GuardedTransientSolver guarded(cfg);
  const markov::Ctmc chain = small_chain();
  try {
    (void)guarded.solve(chain, 1.0);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kSolverDivergence);
    // The message names every rejected stage.
    EXPECT_NE(e.status().message().find("uniformization"), std::string::npos);
    EXPECT_NE(e.status().message().find("expm"), std::string::npos);
  }
}

TEST(SolverGuard, NoFallbackModeFailsFast) {
  markov::SolverGuardConfig cfg;
  cfg.force_uniformization_trip = true;
  cfg.enable_fallback = false;
  const markov::GuardedTransientSolver guarded(cfg);
  EXPECT_THROW((void)guarded.solve(small_chain(), 1.0), core::StatusError);
  EXPECT_EQ(guarded.last_report().attempts.size(), 1u);
}

// ---- graceful degradation ----

TEST(Degradation, RetryWithDetectionRecoversUndetectedStuck) {
  memory::SimplexSystemConfig cfg;
  cfg.code = {18, 16, 8, 1};
  cfg.degradation.retry_with_detection = true;
  cfg.degradation.max_retries = 1;
  memory::SimplexSystem sys(cfg);
  const std::vector<Element> data(16, 0xAB);
  sys.store(data);
  // Two UNDETECTED stuck bits in different symbols, stuck at the opposite
  // of the stored bit so they really corrupt: as random errors they cost 2x
  // (4 > n-k = 2, uncorrectable); once the rung-1 self-test locates them
  // they are two erasures (2 <= n-k, correctable).
  const std::vector<Element> codeword = sys.code().encode(data);
  sys.inject_stuck_bit(2, 0, ((codeword[2] >> 0) & 1u) == 0u,
                       /*detected=*/false);
  sys.inject_stuck_bit(9, 0, ((codeword[9] >> 0) & 1u) == 0u,
                       /*detected=*/false);
  const memory::ReadResult read = sys.read();
  EXPECT_TRUE(read.success);
  EXPECT_TRUE(read.data_correct);
  EXPECT_EQ(sys.degradation().retries_attempted, 1u);
  EXPECT_EQ(sys.degradation().retry_recoveries, 1u);
}

TEST(Degradation, DefaultPolicyNeverEngages) {
  memory::SimplexSystemConfig cfg;
  cfg.code = {18, 16, 8, 1};
  memory::SimplexSystem sys(cfg);
  const std::vector<Element> data(16, 0x5A);
  sys.store(data);
  const std::vector<Element> codeword = sys.code().encode(data);
  sys.inject_stuck_bit(2, 0, ((codeword[2] >> 0) & 1u) == 0u, false);
  sys.inject_stuck_bit(9, 0, ((codeword[9] >> 0) & 1u) == 0u, false);
  const memory::ReadResult read = sys.read();
  EXPECT_FALSE(read.success);  // fails, and no rung is allowed to help
  EXPECT_FALSE(sys.degradation().any_engaged());
  EXPECT_EQ(sys.degradation().unrecovered_failures, 1u);
}

TEST(Degradation, CondemnBanksWidensErasures) {
  memory::MemoryModule module(18, 8);
  module.stick_bit(4, 0, true, true);  // bank [3,6) has 1 detected stuck
  memory::DegradationPolicy policy;
  policy.erasure_only_fallback = true;
  policy.bank_symbols = 3;
  policy.bank_stuck_threshold = 1;
  std::vector<unsigned> erasures = module.detected_erasures();
  ASSERT_EQ(erasures.size(), 1u);
  const unsigned condemned = memory::condemn_banks(module, policy, erasures);
  EXPECT_EQ(condemned, 1u);
  EXPECT_EQ(erasures, (std::vector<unsigned>{3, 4, 5}));

  // Disabled policy is a strict no-op.
  memory::DegradationPolicy off;
  std::vector<unsigned> untouched = module.detected_erasures();
  EXPECT_EQ(memory::condemn_banks(module, off, untouched), 0u);
  EXPECT_EQ(untouched.size(), 1u);
}

TEST(Degradation, RetirementAfterConsecutiveFailures) {
  memory::SimplexSystemConfig cfg;
  cfg.code = {18, 16, 8, 1};
  cfg.degradation.retire_after_failures = 2;
  memory::SimplexSystem sys(cfg);
  sys.store(std::vector<Element>(16, 0x11));
  // Three transient symbol errors: beyond capability, detected failure.
  sys.inject_bit_flip(1, 0);
  sys.inject_bit_flip(5, 1);
  sys.inject_bit_flip(11, 2);
  EXPECT_FALSE(sys.read().success);
  EXPECT_FALSE(sys.retired());
  EXPECT_FALSE(sys.read().success);
  EXPECT_TRUE(sys.retired());
  const memory::ReadResult degraded = sys.read();
  EXPECT_FALSE(degraded.success);
  EXPECT_EQ(sys.degradation().words_retired, 1u);
  EXPECT_EQ(sys.degradation().reads_in_degraded_mode, 1u);
  EXPECT_EQ(sys.degradation().unrecovered_failures, 2u);
}

TEST(Degradation, ScrubSuspensionSkipsAndResumes) {
  memory::SimplexSystemConfig cfg;
  cfg.code = {18, 16, 8, 1};
  cfg.scrub_policy = memory::ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 1.0;
  memory::SimplexSystem sys(cfg);
  sys.store(std::vector<Element>(16, 0x42));
  sys.advance_to(0.5);
  sys.suspend_scrubbing();
  sys.inject_bit_flip(3, 0);
  sys.advance_to(2.5);  // scrubs at t=1, t=2 are skipped
  EXPECT_EQ(sys.stats().scrubs_skipped, 2u);
  EXPECT_EQ(sys.stats().scrubs_attempted, 0u);
  EXPECT_EQ(sys.damage().corrupted, 1u);  // damage still pending
  sys.resume_scrubbing();
  sys.advance_to(3.5);  // scrub at t=3 runs and purges
  EXPECT_EQ(sys.stats().scrubs_attempted, 1u);
  EXPECT_EQ(sys.damage().corrupted, 0u);
}

TEST(Degradation, DuplexDemotionRecoversFromPoisonedPair) {
  memory::DuplexSystemConfig cfg;
  cfg.code = {18, 16, 8, 1};
  cfg.degradation.retry_with_detection = true;
  cfg.degradation.max_retries = 1;
  cfg.degradation.demote_on_dead_module = true;
  memory::DuplexSystem sys(cfg);
  sys.store(std::vector<Element>(16, 0x7E));
  // Module 1 (survivor): two DETECTED stuck symbols -- decodable alone as
  // erasures. Module 0: transient flips at the SAME positions (poisoning
  // the erasure masking) plus two more symbols (beyond capability alone).
  sys.inject_stuck_bit(1, 4, 0, true, true);
  sys.inject_stuck_bit(1, 7, 0, true, true);
  sys.inject_bit_flip(0, 4, 1);
  sys.inject_bit_flip(0, 7, 2);
  sys.inject_bit_flip(0, 11, 3);
  sys.inject_bit_flip(0, 14, 4);
  const memory::DuplexReadResult read = sys.read();
  EXPECT_TRUE(read.read.success);
  EXPECT_TRUE(read.read.data_correct);
  EXPECT_TRUE(read.degraded);
  EXPECT_TRUE(sys.demoted());
  EXPECT_EQ(sys.dead_module(), 0);
  EXPECT_EQ(sys.degradation().demotions, 1u);
  EXPECT_GE(sys.degradation().retries_attempted, 1u);
}

// ---- fault-injection campaign ----

TEST(FaultCampaign, PaperDuplexPresetPasses) {
  analysis::FaultCampaignConfig cfg;
  cfg.seed = 2005;
  cfg.threads = 1;
  const std::vector<analysis::FaultScenario> scenarios =
      analysis::paper_duplex_scenarios(cfg.code);
  ASSERT_GE(scenarios.size(), 20u);
  const analysis::FaultCampaignReport report =
      analysis::run_fault_campaign(cfg, scenarios);
  EXPECT_TRUE(report.passed())
      << analysis::format_campaign_report(report);
  // The simplex mis-correction baseline is the ONLY expected silent case.
  EXPECT_EQ(report.silent_corruptions, 1u);
  EXPECT_EQ(report.unexpected, 0u);
  EXPECT_EQ(report.inconsistent, 0u);
  EXPECT_GT(report.degraded, 0u);
  // Every single-module stuck-bank scenario must be masked by the arbiter.
  for (const analysis::ScenarioOutcome& o : report.outcomes) {
    if (o.scenario.kind == analysis::ScenarioKind::kStuckBankGrowth) {
      EXPECT_TRUE(o.data_correct) << o.scenario.name << ": " << o.detail;
      EXPECT_TRUE(o.counters_consistent) << o.scenario.name;
    }
  }
}

TEST(FaultCampaign, DeterministicAcrossThreadCounts) {
  analysis::FaultCampaignConfig cfg;
  cfg.seed = 77;
  const std::vector<analysis::FaultScenario> scenarios =
      analysis::paper_duplex_scenarios(cfg.code);
  cfg.threads = 1;
  const analysis::FaultCampaignReport one =
      analysis::run_fault_campaign(cfg, scenarios);
  cfg.threads = 4;
  const analysis::FaultCampaignReport four =
      analysis::run_fault_campaign(cfg, scenarios);
  // Bit-identical report for any thread count, down to the formatted text.
  EXPECT_EQ(analysis::format_campaign_report(one),
            analysis::format_campaign_report(four));
}

}  // namespace
}  // namespace rsmem

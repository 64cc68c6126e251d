// Integration tests for the functional simplex/duplex memory systems.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/units.h"
#include "memory/duplex_system.h"
#include "memory/memory_module.h"
#include "memory/simplex_system.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace rsmem::memory {
namespace {

std::vector<Element> test_data() {
  std::vector<Element> data(16);
  for (unsigned i = 0; i < 16; ++i) data[i] = 3 * i + 1;
  return data;
}

TEST(SimplexSystem, StoreReadWithoutFaults) {
  SimplexSystemConfig cfg;
  SimplexSystem sys{cfg};
  EXPECT_THROW(sys.advance_to(1.0), std::logic_error);
  EXPECT_THROW(sys.read(), std::logic_error);
  sys.store(test_data());
  EXPECT_THROW(sys.store(test_data()), std::logic_error);
  sys.advance_to(1000.0);
  const ReadResult r = sys.read();
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.data_correct);
  EXPECT_EQ(r.data, test_data());
  EXPECT_EQ(r.outcome.status, rs::DecodeStatus::kNoError);
  EXPECT_EQ(sys.stats().seu_injected, 0u);
}

TEST(SimplexSystem, SurvivesLowFaultRateAndCorrects) {
  SimplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 1e-4;  // ~0.7 SEU over 48 h on the word
  cfg.seed = 11;
  SimplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(48.0);
  const ReadResult r = sys.read();
  // With <= 1 SEU the read must succeed with correct data.
  if (sys.stats().seu_injected <= 1) {
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(r.data_correct);
  }
}

TEST(SimplexSystem, ScrubbingKeepsHighSeuRateWordAlive) {
  // An SEU rate that accumulates many flips over the run; without scrubbing
  // failure is near-certain, with aggressive scrubbing survival is likely.
  // ~0.29 flips/h on the word: ~14 flips over 48 h, so an unscrubbed word
  // almost surely accumulates >1 symbol error and dies, while scrubbing
  // every 0.02 h leaves ~2e-5 double-hit probability per window.
  SimplexSystemConfig no_scrub;
  no_scrub.rates.seu_rate_per_bit_hour = 0.002;
  int plain_survived = 0;
  int scrubbed_survived = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SimplexSystemConfig c = no_scrub;
    c.seed = 100 + seed;
    SimplexSystem sys{c};
    sys.store(test_data());
    sys.advance_to(48.0);
    const ReadResult r = sys.read();
    plain_survived += (r.success && r.data_correct);

    c.scrub_policy = ScrubPolicy::kPeriodic;
    c.scrub_period_hours = 0.02;
    SimplexSystem scrubbed{c};
    scrubbed.store(test_data());
    scrubbed.advance_to(48.0);
    const ReadResult rs = scrubbed.read();
    EXPECT_GT(scrubbed.stats().scrubs_attempted, 2000u);
    scrubbed_survived += (rs.success && rs.data_correct);
  }
  EXPECT_LE(plain_survived, 5);       // unscrubbed mostly dies
  EXPECT_GE(scrubbed_survived, 15);   // scrubbing must rescue most runs
}

TEST(SimplexSystem, PermanentFaultsBecomeErasuresAndAreRidden) {
  SimplexSystemConfig cfg;
  cfg.rates.perm_rate_per_symbol_hour = 0.001;
  cfg.seed = 31;
  SimplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(60.0);  // expect ~1 permanent fault (18*0.001*60)
  const ReadResult r = sys.read();
  if (sys.stats().permanent_injected <= 2) {
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(r.data_correct);
  }
}

TEST(SimplexSystem, DeterministicGivenSeed) {
  SimplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 0.01;
  cfg.rates.perm_rate_per_symbol_hour = 0.001;
  cfg.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 1.0;
  cfg.seed = 77;
  auto run = [&] {
    SimplexSystem sys{cfg};
    sys.store(test_data());
    sys.advance_to(48.0);
    const ReadResult r = sys.read();
    return std::tuple{sys.stats().seu_injected,
                      sys.stats().permanent_injected, r.success,
                      r.data_correct};
  };
  EXPECT_EQ(run(), run());
}

TEST(DuplexSystem, StoreReadWithoutFaults) {
  DuplexSystemConfig cfg;
  DuplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(500.0);
  const DuplexReadResult r = sys.read();
  EXPECT_TRUE(r.read.success);
  EXPECT_TRUE(r.read.data_correct);
  EXPECT_EQ(r.arbitration.decision, ArbiterDecision::kWord1);
  const auto pairs = sys.classify_pairs();
  EXPECT_EQ(pairs.x + pairs.y + pairs.b + pairs.e1 + pairs.e2 + pairs.ec, 0u);
}

TEST(DuplexSystem, ClassifiesPairDamage) {
  DuplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 0.002;
  cfg.rates.perm_rate_per_symbol_hour = 0.0005;
  cfg.seed = 41;
  DuplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(100.0);
  const auto pairs = sys.classify_pairs();
  const unsigned touched =
      pairs.x + pairs.y + pairs.b + pairs.e1 + pairs.e2 + pairs.ec;
  EXPECT_LE(touched, 18u);
  // Ground truth: injections happened, so some class must be populated
  // unless flips cancelled (possible but rare at these settings).
  EXPECT_GT(sys.stats().seu_injected + sys.stats().permanent_injected, 0u);
}

TEST(DuplexSystem, RidesThroughPermanentFaultsThatKillSimplex) {
  // X=3 double erasures are needed to break the duplex; a simplex word dies
  // at 3 single erasures. At a rate giving ~4 permanents per module over
  // the run, the duplex should survive clearly more often.
  int simplex_ok = 0, duplex_ok = 0;
  const int kRuns = 30;
  for (int i = 0; i < kRuns; ++i) {
    SimplexSystemConfig scfg;
    scfg.rates.perm_rate_per_symbol_hour = 0.0045;  // ~3.9 faults / 48 h
    scfg.seed = 1000 + i;
    SimplexSystem simplex{scfg};
    simplex.store(test_data());
    simplex.advance_to(48.0);
    const ReadResult sr = simplex.read();
    simplex_ok += (sr.success && sr.data_correct);

    DuplexSystemConfig dcfg;
    dcfg.rates.perm_rate_per_symbol_hour = 0.0045;
    dcfg.seed = 1000 + i;
    DuplexSystem duplex{dcfg};
    duplex.store(test_data());
    duplex.advance_to(48.0);
    const DuplexReadResult dr = duplex.read();
    duplex_ok += (dr.read.success && dr.read.data_correct);
  }
  EXPECT_GT(duplex_ok, simplex_ok);
  EXPECT_GE(duplex_ok, kRuns - 2);  // duplex: near-certain survival here
}

TEST(DuplexSystem, ScrubbingClearsTransientsKeepsErasures) {
  DuplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 0.01;
  cfg.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 0.25;
  cfg.seed = 51;
  DuplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(48.0);
  EXPECT_GT(sys.stats().scrubs_attempted, 100u);
  const DuplexReadResult r = sys.read();
  EXPECT_TRUE(r.read.success);
  EXPECT_TRUE(r.read.data_correct);
}

TEST(DuplexSystem, DeterministicGivenSeed) {
  DuplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 0.005;
  cfg.rates.perm_rate_per_symbol_hour = 0.002;
  cfg.seed = 99;
  auto run = [&] {
    DuplexSystem sys{cfg};
    sys.store(test_data());
    sys.advance_to(48.0);
    const auto pairs = sys.classify_pairs();
    return std::tuple{sys.stats().seu_injected, pairs.x, pairs.y, pairs.b,
                      pairs.e1, pairs.e2, pairs.ec};
  };
  EXPECT_EQ(run(), run());
}

TEST(MemoryModule, GenerationMovesOnEveryStateChange) {
  MemoryModule mod{4, 8};
  std::uint64_t gen = mod.generation();
  const auto moved = [&] {
    const bool changed = mod.generation() != gen;
    gen = mod.generation();
    return changed;
  };
  mod.write(std::vector<Element>{1, 2, 3, 4});
  EXPECT_TRUE(moved());
  mod.write(std::vector<Element>{1, 2, 3, 4});  // same values: no change
  EXPECT_FALSE(moved());
  mod.write_symbol(2, 3);
  EXPECT_FALSE(moved());
  mod.write_symbol(2, 9);
  EXPECT_TRUE(moved());
  mod.flip_bit(0, 5);
  EXPECT_TRUE(moved());
  mod.stick_bit(1, 0, /*level=*/true, /*detected=*/false);
  EXPECT_TRUE(moved());
  mod.detect_all_faults();
  EXPECT_TRUE(moved());
  // Reads and queries leave it alone.
  (void)mod.read();
  (void)mod.detected_erasures();
  EXPECT_FALSE(moved());
}

// Scripted duplex scrubbing: periodic passes every hour, no Poisson faults,
// so every replay count below follows from the script alone.
DuplexSystemConfig scripted_scrub_config() {
  DuplexSystemConfig cfg;
  cfg.scrub_policy = ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 1.0;
  return cfg;
}

TEST(DuplexScrubReplay, CleanWordReplaysEveryPassButTheFirst) {
  DuplexSystem sys{scripted_scrub_config()};
  sys.store(test_data());
  sys.advance_to(10.5);
  EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
  EXPECT_EQ(sys.stats().scrubs_replayed, 9u);
  EXPECT_EQ(sys.stats().scrub_failures, 0u);
  EXPECT_EQ(sys.stats().scrub_miscorrections, 0u);
  EXPECT_TRUE(sys.read().read.data_correct);
}

TEST(DuplexScrubReplay, PassAfterACleanRewriteIsReplayed) {
  // Pass 1 reads the flip and rewrites the symbol (the module changes).
  // Both modules then read back pass 1's output, so pass 1 records the
  // generations after its rewrite and every later pass replays it.
  DuplexSystem sys{scripted_scrub_config()};
  sys.store(test_data());
  sys.inject_bit_flip(0, 4, 2);
  sys.advance_to(10.5);
  EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
  EXPECT_EQ(sys.stats().scrubs_replayed, 9u);
  EXPECT_EQ(sys.stats().scrub_failures, 0u);
  EXPECT_EQ(sys.damage(0).corrupted, 0u);
}

TEST(DuplexScrubReplay, NoOutputPairReplaysItsFailure) {
  // Three symbols erased in both modules exceed RS(18,16)'s two parity
  // symbols: both decoders fail on every pass and nothing is rewritten.
  DuplexSystem sys{scripted_scrub_config()};
  sys.store(test_data());
  for (unsigned module = 0; module < 2; ++module) {
    for (unsigned symbol = 0; symbol < 3; ++symbol) {
      sys.inject_stuck_bit(module, symbol, 0, /*level=*/true,
                           /*detected=*/true);
    }
  }
  sys.advance_to(10.5);
  EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
  EXPECT_EQ(sys.stats().scrubs_replayed, 9u);
  EXPECT_EQ(sys.stats().scrub_failures, 10u);
  EXPECT_EQ(sys.degradation().unrecovered_failures, 10u);
  EXPECT_FALSE(sys.read().read.success);
}

TEST(DuplexScrubReplay, ActiveDegradationPolicyNeverReplays) {
  DuplexSystemConfig cfg = scripted_scrub_config();
  cfg.degradation.retry_with_detection = true;
  DuplexSystem sys{cfg};
  sys.store(test_data());
  sys.advance_to(10.5);
  EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
  EXPECT_EQ(sys.stats().scrubs_replayed, 0u);
}

TEST(DuplexScrubReplay, UndetectedStuckBitThatDisagreesIsArbitratedAgain) {
  // Pass 1 corrects a flip in one module (the rewrite changes a symbol)
  // and an undetected stuck bit in the other. A stuck level that disagrees
  // with the rewritten symbol keeps that module from reading back the
  // output, so pass 2 arbitrates again (and rewrites nothing) and passes
  // 3-10 replay it. A stuck level that agrees, or a detected (flagged)
  // stuck bit, lets pass 2 replay pass 1.
  std::vector<Element> codeword(18);
  rs::ReedSolomon{rs::CodeParams{18, 16, 8, 1}}.encode(test_data(), codeword);
  const bool bit_level = ((codeword[7] >> 3) & 1) != 0;
  struct Case {
    bool level;
    bool detected;
    unsigned replayed;
  };
  for (const unsigned stuck_module : {0u, 1u}) {
    for (const Case c : {Case{!bit_level, false, 8u},
                         Case{bit_level, false, 9u},
                         Case{!bit_level, true, 9u}}) {
      DuplexSystem sys{scripted_scrub_config()};
      sys.store(test_data());
      sys.inject_bit_flip(1 - stuck_module, 2, 1);
      sys.inject_stuck_bit(stuck_module, 7, 3, c.level, c.detected);
      sys.advance_to(10.5);
      EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
      EXPECT_EQ(sys.stats().scrubs_replayed, c.replayed)
          << "module " << stuck_module << " level " << c.level
          << " detected " << c.detected;
      EXPECT_EQ(sys.stats().scrub_failures, 0u);
      EXPECT_EQ(sys.stats().scrub_miscorrections, 0u);
      EXPECT_EQ(sys.damage(1 - stuck_module).corrupted, 0u);
      EXPECT_TRUE(sys.read().read.data_correct);
    }
  }
}

// Differential oracle for scrub replay: each trial runs twice, as
// configured and with retire_after_failures = UINT_MAX. That rung can
// never fire within a trial, but an enabled rung fails the replay gate, so
// the oracle arbitrates every pass. Everything but the replay count must
// agree.
TEST(DuplexScrubReplay, MatchesAReplayFreeOracleOnRandomTrials) {
  DuplexSystemConfig base;
  // perfbench mc_duplex_scrub's rates: SEU 0.02 /bit/day, erasures 0.05
  // /symbol/day, Tsc 1800 s, 48 h.
  base.rates.seu_rate_per_bit_hour = core::per_day_to_per_hour(0.02);
  base.rates.perm_rate_per_symbol_hour = core::per_day_to_per_hour(0.05);
  base.scrub_policy = ScrubPolicy::kExponential;
  base.scrub_period_hours = core::seconds_to_hours(1800.0);
  struct Regime {
    const char* name;
    DuplexSystemConfig config;
    std::uint64_t trials = 2000;
  };
  std::vector<Regime> regimes(5, Regime{"", base});
  regimes[0].name = "exponential";
  regimes[1].name = "periodic";
  regimes[1].config.scrub_policy = ScrubPolicy::kPeriodic;
  regimes[2].name = "2 h detection latency";
  regimes[2].config.rates.detection_latency_hours = 2.0;
  regimes[3].name = "3-bit MBUs";
  regimes[3].config.rates.mbu_probability = 0.5;
  regimes[3].config.rates.mbu_span_bits = 3;
  // Undetected stuck bits that outlive many passes: the case where a
  // rewrite does not read back, which the rates above rarely reach.
  regimes[4].name = "10x erasure rate, 6 h detection latency";
  regimes[4].config.rates.perm_rate_per_symbol_hour *= 10.0;
  regimes[4].config.rates.detection_latency_hours = 6.0;
  regimes[4].trials = 500;

  const auto same_damage = [](const DamageSummary& a, const DamageSummary& b) {
    return a.erased == b.erased && a.corrupted == b.corrupted;
  };
  for (const Regime& regime : regimes) {
    std::uint64_t replayed = 0;
    std::uint64_t oracle_replayed = 0;
    std::uint64_t attempted = 0;
    for (std::uint64_t trial = 1; trial <= regime.trials; ++trial) {
      DuplexSystemConfig cfg = regime.config;
      cfg.seed = trial;
      DuplexSystemConfig oracle_cfg = cfg;
      oracle_cfg.degradation.retire_after_failures = UINT_MAX;
      sim::Rng data_rng{trial};
      std::vector<Element> data(16);
      for (Element& symbol : data) {
        symbol = static_cast<Element>(data_rng.uniform_int(256));
      }
      DuplexSystem sys{cfg};
      DuplexSystem oracle{oracle_cfg};
      sys.store(data);
      oracle.store(data);
      sys.advance_to(48.0);
      oracle.advance_to(48.0);

      const SystemStats& a = sys.stats();
      const SystemStats& b = oracle.stats();
      const DuplexReadResult ra = sys.read();
      const DuplexReadResult rb = oracle.read();
      const bool same =
          a.seu_injected == b.seu_injected &&
          a.permanent_injected == b.permanent_injected &&
          a.scrubs_attempted == b.scrubs_attempted &&
          a.scrub_failures == b.scrub_failures &&
          a.scrub_miscorrections == b.scrub_miscorrections &&
          a.scrubs_skipped == b.scrubs_skipped &&
          sys.degradation().unrecovered_failures ==
              oracle.degradation().unrecovered_failures &&
          ra.read.success == rb.read.success && ra.read.data == rb.read.data &&
          ra.arbitration.output == rb.arbitration.output &&
          same_damage(sys.damage(0), oracle.damage(0)) &&
          same_damage(sys.damage(1), oracle.damage(1));
      ASSERT_TRUE(same) << regime.name << ", trial " << trial;
      replayed += a.scrubs_replayed;
      oracle_replayed += b.scrubs_replayed;
      attempted += a.scrubs_attempted;
    }
    EXPECT_EQ(oracle_replayed, 0u) << regime.name;
    // Replay is in play: more than half the passes replay.
    EXPECT_GT(replayed * 2, attempted) << regime.name;
  }
}

// ---- the batched read surface (one shape for both arrangements) ----------

// One policy per degradation rung; each rung makes the batched read refuse.
std::vector<DegradationPolicy> one_rung_policies() {
  std::vector<DegradationPolicy> policies(4);
  policies[0].retry_with_detection = true;
  policies[1].erasure_only_fallback = true;
  policies[1].bank_symbols = 3;
  policies[2].demote_on_dead_module = true;
  policies[3].retire_after_failures = 2;
  return policies;
}

template <typename System, typename Config>
void expect_batched_read_refused() {
  constexpr unsigned kN = 18;
  std::vector<Element> words(System::kPlaneWords * kN);
  std::vector<std::uint8_t> flags(words.size());
  const std::vector<rs::DecodeOutcome> outcomes(System::kPlaneWords);
  const System unstored{Config{}};
  EXPECT_FALSE(unstored.supports_batched_read());
  EXPECT_THROW(unstored.read_into_plane(words, flags), std::logic_error);
  EXPECT_THROW(unstored.finish_batched_read(words, outcomes),
               std::logic_error);
  for (const DegradationPolicy& policy : one_rung_policies()) {
    Config cfg;
    cfg.degradation = policy;
    System sys{cfg};
    sys.store(test_data());
    EXPECT_FALSE(sys.supports_batched_read());
    EXPECT_THROW(sys.read_into_plane(words, flags), std::logic_error);
    EXPECT_THROW(sys.finish_batched_read(words, outcomes), std::logic_error);
  }
}

TEST(BatchedRead, SimplexRefusesBeforeStoreAndUnderEveryRung) {
  expect_batched_read_refused<SimplexSystem, SimplexSystemConfig>();
}

TEST(BatchedRead, DuplexRefusesBeforeStoreAndUnderEveryRung) {
  expect_batched_read_refused<DuplexSystem, DuplexSystemConfig>();
}

TEST(BatchedRead, DuplexFinishNeedsTheGatherJustBeforeIt) {
  DuplexSystem sys{DuplexSystemConfig{}};
  sys.store(test_data());
  const unsigned n = sys.code().n();
  std::vector<Element> words(DuplexSystem::kPlaneWords * n);
  std::vector<std::uint8_t> flags(words.size());
  std::vector<rs::DecodeOutcome> outcomes(DuplexSystem::kPlaneWords);
  rs::DecoderWorkspace ws;
  const auto gather_and_decode = [&] {
    sys.read_into_plane(words, flags);
    sys.code().decode_batch(ws, words, outcomes, flags);
  };
  EXPECT_THROW(sys.finish_batched_read(words, outcomes), std::logic_error);
  gather_and_decode();
  EXPECT_TRUE(sys.finish_batched_read(words, outcomes).read.data_correct);
  // Each gather serves one finish.
  EXPECT_THROW(sys.finish_batched_read(words, outcomes), std::logic_error);
  // A read or an advance between the two calls discards the gather.
  gather_and_decode();
  sys.read();
  EXPECT_THROW(sys.finish_batched_read(words, outcomes), std::logic_error);
  gather_and_decode();
  sys.advance_to(1.0);
  EXPECT_THROW(sys.finish_batched_read(words, outcomes), std::logic_error);
}

// Gather, one decode_batch over the slot, finish: the same result as read()
// on the same state, for both arrangements.
template <typename System, typename Config>
void expect_split_read_matches_read() {
  Config cfg;
  cfg.rates.seu_rate_per_bit_hour = 2e-3;
  cfg.rates.perm_rate_per_symbol_hour = 5e-3;
  rs::DecoderWorkspace ws;
  unsigned failures = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    cfg.seed = seed;
    System sys{cfg};
    sys.store(test_data());
    sys.advance_to(48.0);
    const auto expected = sys.read();
    std::vector<Element> words(System::kPlaneWords * sys.code().n());
    std::vector<std::uint8_t> flags(words.size());
    std::vector<rs::DecodeOutcome> outcomes(System::kPlaneWords);
    sys.read_into_plane(words, flags);
    sys.code().decode_batch(ws, words, outcomes, flags);
    const auto got = sys.finish_batched_read(words, outcomes);
    if constexpr (System::kPlaneWords == 1) {
      EXPECT_EQ(got.success, expected.success) << seed;
      EXPECT_EQ(got.data, expected.data) << seed;
      EXPECT_EQ(got.data_correct, expected.data_correct) << seed;
      EXPECT_EQ(got.outcome.status, expected.outcome.status) << seed;
      EXPECT_EQ(got.outcome.errors_corrected,
                expected.outcome.errors_corrected) << seed;
      failures += !expected.success;
    } else {
      EXPECT_EQ(got.read.success, expected.read.success) << seed;
      EXPECT_EQ(got.read.data, expected.read.data) << seed;
      EXPECT_EQ(got.read.data_correct, expected.read.data_correct) << seed;
      EXPECT_EQ(got.arbitration.decision, expected.arbitration.decision)
          << seed;
      EXPECT_EQ(got.arbitration.output, expected.arbitration.output) << seed;
      EXPECT_EQ(got.arbitration.common_erasures,
                expected.arbitration.common_erasures) << seed;
      EXPECT_EQ(got.arbitration.masked_erasures,
                expected.arbitration.masked_erasures) << seed;
      EXPECT_EQ(got.arbitration.outcome2.status,
                expected.arbitration.outcome2.status) << seed;
      EXPECT_EQ(got.degraded, expected.degraded) << seed;
      failures += !expected.read.success;
    }
  }
  // The rates reach failing reads too, not only clean ones.
  EXPECT_GT(failures, 0u);
}

TEST(BatchedRead, SimplexSplitReadMatchesRead) {
  expect_split_read_matches_read<SimplexSystem, SimplexSystemConfig>();
}

TEST(BatchedRead, DuplexSplitReadMatchesRead) {
  expect_split_read_matches_read<DuplexSystem, DuplexSystemConfig>();
}

}  // namespace
}  // namespace rsmem::memory

// Integration tests for the functional simplex/duplex memory systems.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/units.h"
#include "memory/duplex_system.h"
#include "memory/memory_module.h"
#include "memory/simplex_system.h"

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

TEST(DuplexScrubReplay, RewriteThatChangesASymbolIsNeverReplayed) {
  // Pass 1 reads the flip and rewrites the symbol (the module changes);
  // pass 2 therefore arbitrates again, reads a clean pair and rewrites
  // nothing new; every later pass replays pass 2.
  DuplexSystem sys{scripted_scrub_config()};
  sys.store(test_data());
  sys.inject_bit_flip(0, 4, 2);
  sys.advance_to(10.5);
  EXPECT_EQ(sys.stats().scrubs_attempted, 10u);
  EXPECT_EQ(sys.stats().scrubs_replayed, 8u);
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

}  // namespace
}  // namespace rsmem::memory

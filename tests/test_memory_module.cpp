// Tests for the physical memory module and the fault injector.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "memory/fault_injector.h"
#include "memory/memory_module.h"
#include "sim/event_queue.h"

namespace rsmem::memory {
namespace {

TEST(MemoryModule, ConstructionChecks) {
  EXPECT_THROW(MemoryModule(0, 8), std::invalid_argument);
  EXPECT_THROW(MemoryModule(18, 0), std::invalid_argument);
  EXPECT_THROW(MemoryModule(18, 17), std::invalid_argument);
  const MemoryModule mod{18, 8};
  EXPECT_EQ(mod.n(), 18u);
  EXPECT_EQ(mod.m(), 8u);
}

TEST(MemoryModule, WriteReadRoundTrip) {
  MemoryModule mod{4, 8};
  const std::vector<Element> data{0x12, 0x34, 0x56, 0x78};
  mod.write(data);
  EXPECT_EQ(mod.read(), data);
  EXPECT_EQ(mod.read_symbol(2), 0x56u);
}

TEST(MemoryModule, WriteValidation) {
  MemoryModule mod{4, 8};
  EXPECT_THROW(mod.write(std::vector<Element>{1, 2}), std::invalid_argument);
  EXPECT_THROW(mod.write_symbol(0, 0x100), std::invalid_argument);
  EXPECT_THROW(mod.write_symbol(4, 0x10), std::invalid_argument);
}

TEST(MemoryModule, FlipBitTogglesValue) {
  MemoryModule mod{2, 8};
  mod.write(std::vector<Element>{0x00, 0xFF});
  mod.flip_bit(0, 3);
  EXPECT_EQ(mod.read_symbol(0), 0x08u);
  mod.flip_bit(0, 3);
  EXPECT_EQ(mod.read_symbol(0), 0x00u);
  EXPECT_THROW(mod.flip_bit(0, 8), std::invalid_argument);
  EXPECT_THROW(mod.flip_bit(2, 0), std::invalid_argument);
}

TEST(MemoryModule, StuckBitOverridesWritesAndFlips) {
  MemoryModule mod{2, 8};
  mod.write(std::vector<Element>{0x00, 0x00});
  mod.stick_bit(0, 4, /*level=*/true, /*detected=*/true);
  EXPECT_EQ(mod.read_symbol(0), 0x10u);
  mod.write_symbol(0, 0x00);  // write cannot clear a stuck-at-1
  EXPECT_EQ(mod.read_symbol(0), 0x10u);
  mod.flip_bit(0, 4);  // SEU on a stuck cell has no visible effect
  EXPECT_EQ(mod.read_symbol(0), 0x10u);
  // stuck-at-0 masks a written 1.
  mod.stick_bit(1, 0, /*level=*/false, /*detected=*/true);
  mod.write_symbol(1, 0xFF);
  EXPECT_EQ(mod.read_symbol(1), 0xFEu);
}

TEST(MemoryModule, DetectionBookkeeping) {
  MemoryModule mod{5, 8};
  mod.stick_bit(1, 0, true, /*detected=*/true);
  mod.stick_bit(3, 2, false, /*detected=*/false);
  EXPECT_TRUE(mod.symbol_has_stuck_bit(1));
  EXPECT_TRUE(mod.symbol_has_stuck_bit(3));
  EXPECT_TRUE(mod.symbol_has_detected_fault(1));
  EXPECT_FALSE(mod.symbol_has_detected_fault(3));
  EXPECT_EQ(mod.detected_erasures(), (std::vector<unsigned>{1}));
  EXPECT_EQ(mod.stuck_symbols(), (std::vector<unsigned>{1, 3}));
  mod.detect_all_faults();
  EXPECT_EQ(mod.detected_erasures(), (std::vector<unsigned>{1, 3}));
  EXPECT_EQ(mod.stuck_bit_count(), 2u);
}

TEST(FaultInjector, RejectsNegativeRates) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  FaultRates rates;
  rates.seu_rate_per_bit_hour = -1.0;
  EXPECT_THROW(FaultInjector(rates, sim::Rng{1}, q, mod),
               std::invalid_argument);
}

TEST(FaultInjector, RejectsNonFiniteRates) {
  // An infinite SEU rate used to keep run_until(1.0) from returning; a NaN
  // rate surfaced only later, as an EventQueue::schedule_at error.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  for (const double bad : {kInf, kNaN}) {
    FaultRates seu;
    seu.seu_rate_per_bit_hour = bad;
    EXPECT_THROW(FaultInjector(seu, sim::Rng{1}, q, mod),
                 std::invalid_argument);
    FaultRates perm;
    perm.perm_rate_per_symbol_hour = bad;
    EXPECT_THROW(FaultInjector(perm, sim::Rng{1}, q, mod),
                 std::invalid_argument);
    FaultRates latency;
    latency.perm_rate_per_symbol_hour = 1.0;
    latency.detection_latency_hours = bad;
    EXPECT_THROW(FaultInjector(latency, sim::Rng{1}, q, mod),
                 std::invalid_argument);
    FaultRates shape;
    shape.perm_rate_per_symbol_hour = 1.0;
    shape.perm_weibull_shape = bad;
    EXPECT_THROW(FaultInjector(shape, sim::Rng{1}, q, mod),
                 std::invalid_argument);
  }
}

TEST(FaultInjector, RejectsNaNMbuProbability) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  FaultRates rates;
  rates.seu_rate_per_bit_hour = 1.0;
  rates.mbu_probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FaultInjector(rates, sim::Rng{1}, q, mod),
               std::invalid_argument);
}

TEST(FaultInjector, InjectsAtExpectedRate) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  mod.write(std::vector<Element>(18, 0));
  FaultRates rates;
  rates.seu_rate_per_bit_hour = 0.01;   // total 18*8*0.01 = 1.44/h
  rates.perm_rate_per_symbol_hour = 0.005;  // total 0.09/h
  FaultInjector inj{rates, sim::Rng{5}, q, mod};
  inj.start();
  inj.start();  // idempotent
  q.run_until(1000.0);
  // Expectations: 1440 SEUs (sd ~38), 90 permanents (sd ~9.5).
  EXPECT_NEAR(static_cast<double>(inj.seu_injected()), 1440.0, 200.0);
  EXPECT_NEAR(static_cast<double>(inj.permanent_injected()), 90.0, 40.0);
  EXPECT_GT(mod.stuck_bit_count(), 0u);
  // Ideal detection: every stuck symbol is a detected erasure.
  EXPECT_EQ(mod.detected_erasures(), mod.stuck_symbols());
}

TEST(FaultInjector, ZeroRatesInjectNothing) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  FaultInjector inj{FaultRates{}, sim::Rng{5}, q, mod};
  inj.start();
  q.run_until(1000.0);
  EXPECT_EQ(inj.seu_injected(), 0u);
  EXPECT_EQ(inj.permanent_injected(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(FaultInjector, DetectionLatencyDefersErasureInfo) {
  sim::EventQueue q;
  MemoryModule mod{18, 8};
  mod.write(std::vector<Element>(18, 0));
  FaultRates rates;
  rates.perm_rate_per_symbol_hour = 1.0;  // frequent
  rates.detection_latency_hours = 5.0;
  FaultInjector inj{rates, sim::Rng{6}, q, mod};
  inj.start();
  // Run just far enough that some faults exist whose detection is pending.
  q.run_until(0.5);
  ASSERT_GT(inj.permanent_injected(), 0u);
  EXPECT_LT(mod.detected_erasures().size(), mod.stuck_symbols().size() + 1);
  const auto undetected_at_half =
      mod.stuck_symbols().size() - mod.detected_erasures().size();
  EXPECT_GT(undetected_at_half, 0u);
  // After the latency elapses, those faults are detected.
  q.run_until(6.0);
  EXPECT_GE(mod.detected_erasures().size(), undetected_at_half);
}

}  // namespace
}  // namespace rsmem::memory

// Tests for the simulation substrate: RNG determinism and distribution
// sanity, and the event queue with its tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace rsmem::sim {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng root{999};
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1_again = root.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformPositiveNeverZero) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.uniform_positive(), 0.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng{9};
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++hits[v];
  }
  for (const int h : hits) EXPECT_GT(h, 700);  // ~1000 each
}

TEST(Rng, BernoulliEdges) {
  Rng rng{10};
  EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{11};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, PoissonMeanAndVariance) {
  Rng rng{12};
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  const double mean = 6.5;
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.poisson(mean));
    sum += x;
    sum2 += x * x;
  }
  const double mu = sum / n;
  const double var = sum2 / n - mu * mu;
  EXPECT_NEAR(mu, mean, 0.1);
  EXPECT_NEAR(var, mean, 0.2);
}

TEST(Rng, PoissonLargeMeanChunking) {
  Rng rng{13};
  const double mean = 1800.0;  // exercises the chunked path
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
  EXPECT_NEAR(sum / n / mean, 1.0, 0.01);
}

TEST(Rng, PoissonRejectsNonFiniteMean) {
  // +inf used to loop forever in the chunking loop; NaN returned 0.
  Rng rng{14};
  EXPECT_THROW(rng.poisson(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(rng.poisson(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Rng, ExponentialRejectsNonFiniteRate) {
  // NaN used to return NaN and +inf to return 0.
  Rng rng{15};
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Rng, BernoulliRejectsNaN) {
  // NaN used to return false.
  Rng rng{16};
  EXPECT_THROW(rng.bernoulli(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// Rng is an in-house MT19937-64; std::mt19937_64 is its oracle. mix() is a
// test-local copy of the SplitMix64 finalizer Rng applies to its seed, and
// unmix() its inverse, so a test can choose the engine seed an Rng gets.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t unxorshift(std::uint64_t y, unsigned shift) {
  std::uint64_t x = y;
  for (unsigned i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}

std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
  std::uint64_t x = odd;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return x;
}

std::uint64_t unmix(std::uint64_t z) {
  z = unxorshift(z, 31) * inverse_mod_2_64(0x94D049BB133111EBull);
  z = unxorshift(z, 27) * inverse_mod_2_64(0xBF58476D1CE4E5B9ull);
  return unxorshift(z, 30) - 0x9E3779B97F4A7C15ull;
}

std::mt19937_64 oracle(std::uint64_t seed) {
  return std::mt19937_64{mix(seed)};
}

// Seeds spread over the whole range plus the extremes.
std::uint64_t test_seed(unsigned i) {
  if (i == 0) return 0;
  if (i == 1) return ~std::uint64_t{0};
  return i * 0x9E3779B97F4A7C15ull + (i >> 3);
}

// Block-0 runs end every 16 words and the first twist reads up to 156
// words ahead; blocks end every 312 words.
const std::vector<unsigned> kBoundaryDraws = {
    0,   1,   2,   3,   15,  16,  17,  31,  32,  33,  140, 155,
    156, 157, 171, 172, 173, 223, 295, 296, 303, 304, 305, 311,
    312, 313, 623, 624, 625, 935, 936, 1000, 2100};

// The root seed plus the optional engine it replaced.
static_assert(sizeof(Rng) <= sizeof(std::uint64_t) +
                                 sizeof(std::optional<std::mt19937_64>),
              "Rng must not outgrow the std::mt19937_64 it replaced");

TEST(Rng, MatchesStdMt19937_64AcrossSeedsAndDrawCounts) {
  // Every prefix of 0..2,100 draws of 2,000 seeds: draw counts cover the
  // block-0 runs, the seed-ahead edge and three later bulk blocks.
  std::uint64_t mismatches = 0;
  for (unsigned i = 0; i < 2000; ++i) {
    const std::uint64_t seed = test_seed(i);
    Rng rng{seed};
    std::mt19937_64 ref = oracle(seed);
    for (unsigned draw = 0; draw < 2100; ++draw) {
      mismatches += rng.next_u64() != ref();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, CopyAfterEveryDrawCountContinuesLikeTheOracle) {
  // A copy moves only the words written so far; taken after any count from
  // 0 to 2,100 it continues the standard sequence.
  for (unsigned count = 0; count <= 2100; ++count) {
    const std::uint64_t seed = test_seed(count + 7);
    Rng rng{seed};
    std::mt19937_64 ref = oracle(seed);
    for (unsigned d = 0; d < count; ++d) rng.next_u64();
    ref.discard(count);
    Rng copy{rng};
    for (unsigned d = 0; d < 20; ++d) {
      ASSERT_EQ(copy.next_u64(), ref()) << "count " << count << " +" << d;
    }
  }
}

TEST(Rng, CopiesTakenMidBlockContinueIdentically) {
  for (const unsigned count : kBoundaryDraws) {
    for (unsigned i = 0; i < 20; ++i) {
      const std::uint64_t seed = test_seed(i);
      Rng source{seed};
      for (unsigned d = 0; d < count; ++d) source.next_u64();

      const Rng copied{source};
      // Assignment targets that have written none, some and all of their
      // state words, so the copied prefix is shorter and longer than what
      // the target already holds.
      std::vector<Rng> assigned;
      for (const unsigned target_draws : {0u, 1u, 200u, 700u}) {
        Rng target{seed ^ 0xA5A5A5A5u};
        for (unsigned d = 0; d < target_draws; ++d) target.next_u64();
        target = source;
        assigned.push_back(target);
      }
      Rng& alias = source;
      source = alias;

      std::mt19937_64 ref = oracle(seed);
      ref.discard(count);
      Rng copy = copied;
      for (unsigned d = 0; d < 700; ++d) {
        const std::uint64_t want = ref();
        ASSERT_EQ(source.next_u64(), want) << "count " << count;
        ASSERT_EQ(copy.next_u64(), want) << "count " << count;
        for (Rng& a : assigned) ASSERT_EQ(a.next_u64(), want) << count;
      }
    }
  }
}

TEST(Rng, SplitIgnoresDrawsTaken) {
  for (const unsigned count : kBoundaryDraws) {
    Rng drawn{test_seed(count)};
    for (unsigned d = 0; d < count; ++d) drawn.next_u64();
    const Rng fresh{test_seed(count)};
    for (const std::uint64_t stream : {0ull, 1ull, 0x57EAull, ~0ull}) {
      Rng a = drawn.split(stream);
      Rng b = fresh.split(stream);
      for (unsigned d = 0; d < 400; ++d) {
        ASSERT_EQ(a.next_u64(), b.next_u64()) << count << "/" << stream;
      }
    }
  }
}

TEST(Rng, KnownAnswers) {
  // Literal outputs (also produced by an independent transcription of the
  // MT19937-64 reference code), so this does not rest on the oracle alone.
  Rng zero{0};
  EXPECT_EQ(zero.next_u64(), 0xE472A21D82B9E8C8ull);
  EXPECT_EQ(zero.next_u64(), 0xEC92536DBA8BE242ull);
  EXPECT_EQ(zero.next_u64(), 0xC63899882968E434ull);
  Rng other{20260101};
  EXPECT_EQ(other.next_u64(), 0x997A43DF8243FAFEull);
  EXPECT_EQ(other.next_u64(), 0xEA46FEA39D079281ull);
  EXPECT_EQ(other.next_u64(), 0xC8C7D93BDF506299ull);
}

TEST(Rng, TenThousandthOutputIsTheStandardsRequiredValue) {
  // The C++ standard requires the 10000th output of a default-seeded
  // (5489) mt19937_64 to be 9981545732273789042.
  ASSERT_EQ(mix(unmix(5489)), 5489u);
  Rng rng{unmix(5489)};
  for (int i = 0; i < 9999; ++i) rng.next_u64();
  EXPECT_EQ(rng.next_u64(), 9981545732273789042ull);
}

// uniform_int on the oracle: rejection sampling below
// 2^64 - (2^64 mod bound), then x mod bound. Counts the words it consumed.
std::uint64_t oracle_uniform_int(std::mt19937_64& ref, std::uint64_t bound,
                                 std::uint64_t& words) {
  const std::uint64_t limit =
      ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  for (;;) {
    const std::uint64_t x = ref();
    ++words;
    if (x < limit) return x % bound;
  }
}

// Bulk-draw counts around the block-0 runs, the seed-ahead edge and the
// end of block 0.
const std::vector<std::size_t> kBulkCounts = {0,   1,   15,  16,  17,  155,
                                              156, 157, 311, 312, 313, 1000};

// How a stream is set up before the bulk draw: draws taken first (within
// the first run, mid-block, past block 0) and whether it is a copy.
struct BulkStart {
  unsigned draws;
  bool copied;
};
const std::vector<BulkStart> kBulkStarts = {
    {0, false}, {5, false}, {200, false}, {400, false},
    {0, true},  {5, true},  {200, true},  {400, true}};

// Checks uniform_ints(bound, out) against uniform_int calls on a twin
// stream and against the oracle, then checks that all three streams go on
// alike. Returns the oracle words the draw consumed.
template <typename T>
std::uint64_t expect_bulk_matches(std::uint64_t seed, BulkStart start,
                                  std::uint64_t bound, std::size_t count) {
  Rng source{seed};
  Rng single{seed};
  std::mt19937_64 ref = oracle(seed);
  for (unsigned d = 0; d < start.draws; ++d) {
    source.next_u64();
    single.next_u64();
  }
  ref.discard(start.draws);
  std::optional<Rng> copy;
  if (start.copied) copy.emplace(source);
  Rng& bulk = start.copied ? *copy : source;
  std::vector<T> out(count, T{7});
  bulk.uniform_ints(bound, std::span<T>(out));
  std::uint64_t words = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t want = oracle_uniform_int(ref, bound, words);
    EXPECT_EQ(single.uniform_int(bound), want);
    if (out[i] != want) {
      ADD_FAILURE() << "seed " << seed << " start " << start.draws
                    << (start.copied ? " (copy)" : "") << " bound " << bound
                    << " count " << count << ": value " << i;
      return words;
    }
  }
  for (unsigned d = 0; d < 40; ++d) {
    const std::uint64_t want = ref();
    EXPECT_EQ(bulk.next_u64(), want) << "after the bulk draw, " << d;
    EXPECT_EQ(single.next_u64(), want);
  }
  return words;
}

TEST(RngBulk, MatchesUniformIntAndTheOracle) {
  // Power-of-two and other bounds, each in the 32-bit and 64-bit forms.
  const std::vector<std::uint64_t> bounds = {1,   2,    3,    7,     255,
                                             256, 1000, 1024, 65536, 1u << 31};
  unsigned seed = 0;
  for (const std::uint64_t bound : bounds) {
    for (const BulkStart start : kBulkStarts) {
      for (const std::size_t count : kBulkCounts) {
        expect_bulk_matches<std::uint32_t>(test_seed(seed++), start, bound,
                                           count);
        expect_bulk_matches<std::uint64_t>(test_seed(seed++), start, bound,
                                           count);
      }
    }
  }
}

TEST(RngBulk, TheRejectionBranchRuns) {
  // 2^63 keeps x < 2^63 and 2^63 + 1 keeps x < 2^63 + 1: each rejects about
  // half of all words, so the bulk loop crosses refills mid-value. Only
  // the 64-bit form takes these bounds.
  for (const std::uint64_t bound :
       {std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1}) {
    std::uint64_t values = 0;
    std::uint64_t words = 0;
    unsigned seed = 500;
    for (const BulkStart start : kBulkStarts) {
      for (const std::size_t count : kBulkCounts) {
        words += expect_bulk_matches<std::uint64_t>(test_seed(seed++), start,
                                                    bound, count);
        values += count;
      }
    }
    EXPECT_GT(words, values + values / 2) << "bound " << bound;
    EXPECT_LT(words, values * 3) << "bound " << bound;
  }
}

TEST(RngBulk, RejectsAZeroBoundAndValuesThatDoNotFit) {
  Rng rng{17};
  std::vector<std::uint32_t> narrow(4);
  std::vector<std::uint64_t> wide(4);
  EXPECT_THROW(rng.uniform_ints(0, std::span<std::uint32_t>(narrow)),
               std::invalid_argument);
  EXPECT_THROW(rng.uniform_ints(0, std::span<std::uint64_t>(wide)),
               std::invalid_argument);
  EXPECT_THROW(rng.uniform_ints(0, std::span<std::uint64_t>()),
               std::invalid_argument);
  EXPECT_THROW(rng.uniform_ints((std::uint64_t{1} << 32) + 1,
                                std::span<std::uint32_t>(narrow)),
               std::invalid_argument);
  // The rejected calls drew nothing; 2^32 still fits the 32-bit form.
  Rng twin{17};
  rng.uniform_ints(std::uint64_t{1} << 32, std::span<std::uint32_t>(narrow));
  for (const std::uint32_t value : narrow) {
    EXPECT_EQ(value, twin.uniform_int(std::uint64_t{1} << 32));
  }
}

TEST(RngLockstep, SeededGroupsDrawLikeLazilySeededStreams) {
  // Groups of 1-9 streams, so lanes of four leave every remainder. Some
  // members drew before (within the first run, past block 0), some are
  // copies of fresh or drawn streams, and one appears twice.
  for (unsigned size = 1; size <= 9; ++size) {
    std::vector<Rng> streams;
    std::vector<Rng> lazy;
    std::vector<std::mt19937_64> refs;
    std::vector<std::uint64_t> seeds;
    for (unsigned i = 0; i < size; ++i) {
      const std::uint64_t seed = test_seed(100 * size + i);
      Rng stream{seed};
      std::mt19937_64 ref = oracle(seed);
      const unsigned draws = i % 3 == 1 ? 3 : (i % 5 == 4 ? 400 : 0);
      for (unsigned d = 0; d < draws; ++d) stream.next_u64();
      ref.discard(draws);
      lazy.push_back(stream);
      streams.push_back(i % 4 == 2 ? Rng{stream} : stream);
      refs.push_back(ref);
    }
    std::vector<Rng*> group;
    for (Rng& stream : streams) group.push_back(&stream);
    if (size > 2) group.push_back(&streams[1]);
    Rng::seed_lockstep(group);
    for (unsigned i = 0; i < size; ++i) {
      for (unsigned d = 0; d < 1000; ++d) {
        const std::uint64_t want = refs[i]();
        ASSERT_EQ(streams[i].next_u64(), want)
            << "group " << size << " stream " << i << " draw " << d;
        ASSERT_EQ(lazy[i].next_u64(), want);
      }
    }
  }
}

TEST(RngLockstep, SeededStreamsCopyAndBulkDrawLikeTheOracle) {
  const std::uint64_t seeds[] = {test_seed(1), test_seed(2), test_seed(3)};
  Rng a{seeds[0]};
  Rng b{seeds[1]};
  Rng c{seeds[2]};
  Rng* group[] = {&a, &b, &c};
  Rng::seed_lockstep(group);
  // A copy of a seeded stream moves its whole seeded block.
  Rng copy = b;
  std::mt19937_64 ref_a = oracle(seeds[0]);
  std::mt19937_64 ref_b = oracle(seeds[1]);
  std::mt19937_64 ref_c = oracle(seeds[2]);
  std::vector<std::uint32_t> bulk(223);
  a.uniform_ints(256, std::span<std::uint32_t>(bulk));
  std::uint64_t words = 0;
  for (const std::uint32_t value : bulk) {
    ASSERT_EQ(value, oracle_uniform_int(ref_a, 256, words));
  }
  for (unsigned d = 0; d < 700; ++d) {
    const std::uint64_t want = ref_b();
    ASSERT_EQ(b.next_u64(), want) << d;
    ASSERT_EQ(copy.next_u64(), want) << d;
    ASSERT_EQ(c.next_u64(), ref_c()) << d;
    ASSERT_EQ(a.next_u64(), ref_a()) << d;
  }
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(3); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.5, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(3.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> ping = [&] {
    ++count;
    if (count < 5) q.schedule_in(1.0, ping);
  };
  q.schedule_at(0.5, ping);
  q.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, EventScheduledAtNowRunsAfterQueuedSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(1);
    q.schedule_at(q.now(), [&] { order.push_back(4); });
  });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(3); });
  q.schedule_at(2.0, [&] { order.push_back(5); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// A functor that counts its copies; moving it is free. Its user-declared
// copy constructor keeps it out of std::function's small buffer, so the
// queue can move an action only by moving its std::function.
struct CopyCountingAction {
  int* copies;
  int* runs;
  CopyCountingAction(int* copies_out, int* runs_out)
      : copies(copies_out), runs(runs_out) {}
  CopyCountingAction(const CopyCountingAction& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCountingAction(CopyCountingAction&&) noexcept = default;
  void operator()() const { ++*runs; }
};

TEST(EventQueue, RunsActionsWithoutCopyingThem) {
  EventQueue q;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(static_cast<double>(16 - i),
                  CopyCountingAction{&copies, &runs});
  }
  q.schedule_in(0.5, CopyCountingAction{&copies, &runs});
  ASSERT_EQ(copies, 0);
  EXPECT_TRUE(q.step());
  q.run_until(20.0);
  EXPECT_EQ(runs, 17);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, RejectsPastAndNonFinite) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run_until(5.0);
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(
      q.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(q.schedule_at(6.0, EventAction{}), std::invalid_argument);
  EXPECT_THROW(q.run_until(1.0), std::invalid_argument);
}

TEST(EventQueue, StepSingleEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

// A randomized event program with integer times, so ties are common. Heap
// events and tick occurrences log themselves and may schedule heap events,
// some at now(); each one's script is drawn from its own id, so both ways
// of running the tick below face the same program.
class TickProgram {
 public:
  enum class Mode { kTick, kSelfSchedulingClosure };

  explicit TickProgram(std::uint64_t seed) : seed_(seed) {
    Rng rng{seed};
    ticks_ = 1 + static_cast<unsigned>(rng.uniform_int(40));
    first_tick_ = static_cast<double>(rng.uniform_int(4));
    stop_with_nan_ = rng.bernoulli(0.5);
  }

  std::vector<std::string> run(Mode mode) {
    EventQueue q;
    std::vector<std::string> log;
    unsigned next_id = 0;
    unsigned occurrence = 0;
    const auto note = [&](const char* what, unsigned id) {
      log.push_back(std::string(what) + std::to_string(id) + "@" +
                    std::to_string(q.now()) + " pending " +
                    std::to_string(q.pending()));
    };
    // Schedules `count` heap events at now() + delay, delays in [0, 3].
    std::function<void(Rng&, unsigned)> spawn = [&](Rng& script,
                                                    unsigned count) {
      for (unsigned c = 0; c < count; ++c) {
        const double when =
            q.now() + static_cast<double>(script.uniform_int(4));
        const unsigned id = next_id++;
        q.schedule_at(when, [&, id] {
          note("event ", id);
          Rng child = Rng{seed_}.split(1 + id);
          // Half the events spawn 0-2 children, and none past id 400.
          const unsigned children = static_cast<unsigned>(child.uniform_int(3));
          const bool spawns = child.bernoulli(0.5) && id < 400;
          spawn(child, spawns ? children : 0u);
        });
      }
    };
    const std::function<double()> tick = [&] {
      note("tick ", occurrence);
      Rng script = Rng{seed_}.split(1'000'000 + occurrence);
      spawn(script, static_cast<unsigned>(script.uniform_int(3)));
      if (++occurrence == ticks_) {
        return stop_with_nan_ ? std::numeric_limits<double>::quiet_NaN()
                              : std::numeric_limits<double>::infinity();
      }
      return q.now() + static_cast<double>(script.uniform_int(3));
    };
    std::function<void()> tick_event = [&] {
      const double next = tick();
      if (std::isfinite(next)) q.schedule_at(next, tick_event);
    };

    Rng setup = Rng{seed_}.split(0);
    spawn(setup, static_cast<unsigned>(setup.uniform_int(6)));
    if (mode == Mode::kTick) {
      q.set_tick(first_tick_, tick);
    } else {
      q.schedule_at(first_tick_, tick_event);
    }
    spawn(setup, static_cast<unsigned>(setup.uniform_int(6)));
    // Drive with a mix of single steps and run_until boundaries, including
    // boundaries that fall on event times.
    double until = 0.0;
    for (int round = 0; round < 200 && !q.empty(); ++round) {
      if (setup.bernoulli(0.3)) {
        log.push_back(q.step() ? "step" : "idle");
      } else {
        until = std::max(until, q.now()) +
                static_cast<double>(setup.uniform_int(3));
        q.run_until(until);
        note("boundary ", static_cast<unsigned>(until));
      }
    }
    log.push_back(q.empty() ? "drained" : "left over");
    return log;
  }

 private:
  std::uint64_t seed_;
  unsigned ticks_;
  double first_tick_;
  bool stop_with_nan_;
};

TEST(EventQueueTick, RunsExactlyLikeASelfSchedulingClosure) {
  std::size_t entries = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    TickProgram program{seed};
    const std::vector<std::string> tick =
        program.run(TickProgram::Mode::kTick);
    const std::vector<std::string> closure =
        program.run(TickProgram::Mode::kSelfSchedulingClosure);
    ASSERT_EQ(tick, closure) << "seed " << seed;
    entries += tick.size();
  }
  EXPECT_GT(entries, 10'000u);  // the programs are not trivially short
}

TEST(EventQueueTick, NonFiniteReturnStopsTheTick) {
  for (const double stop : {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EventQueue q;
    int runs = 0;
    q.set_tick(1.0, [&] { return ++runs < 3 ? q.now() + 1.0 : stop; });
    q.run_until(100.0);
    EXPECT_EQ(runs, 3);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.step());
  }
}

TEST(EventQueueTick, RunUntilStopsAtItsBoundaryWithTheTickPending) {
  EventQueue q;
  std::vector<double> at;
  q.set_tick(1.0, [&] {
    at.push_back(q.now());
    return q.now() + 1.5;
  });
  q.run_until(4.0);  // a tick at exactly 4.0 would run; the next is at 5.5
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.5, 4.0}));
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(5.0);
  EXPECT_EQ(at.size(), 3u);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.run_until(5.5);
  EXPECT_EQ(at.size(), 4u);
}

TEST(EventQueueTick, StepRunsTheTick) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.set_tick(1.0, [&] {
    order.push_back(1);
    return q.now() + 5.0;
  });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.step());  // the tick again, at 6.0
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_DOUBLE_EQ(q.now(), 6.0);
}

TEST(EventQueueTick, EmptyAndPendingCountAnArmedTick) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.set_tick(3.0, [] { return std::numeric_limits<double>::infinity(); });
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.schedule_at(1.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.run_until(2.0);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(3.0);  // the tick ran and stopped
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTick, RejectsPastOrNonFiniteFirstTimes) {
  EventQueue q;
  q.run_until(5.0);
  const auto tick = [] { return std::numeric_limits<double>::infinity(); };
  EXPECT_THROW(q.set_tick(4.0, tick), std::invalid_argument);
  EXPECT_THROW(q.set_tick(std::numeric_limits<double>::infinity(), tick),
               std::invalid_argument);
  EXPECT_THROW(q.set_tick(std::numeric_limits<double>::quiet_NaN(), tick),
               std::invalid_argument);
  EXPECT_THROW(q.set_tick(6.0, TickAction{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  q.set_tick(5.0, tick);  // the rejected calls left no tick behind
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_THROW(q.set_tick(7.0, tick), std::logic_error);  // one per queue
}

TEST(EventQueueTick, ResetEmptiesTheQueueAndAllowsANewTick) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(-1); });
  q.schedule_at(9.0, [&] { order.push_back(-2); });
  q.set_tick(1.0, [&] {
    order.push_back(0);
    return q.now() + 1.5;
  });
  q.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{0, -1, 0}));
  // Without a reset the queue keeps its one tick.
  EXPECT_THROW(q.set_tick(4.0, [] { return 5.0; }), std::logic_error);

  q.reset();
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());  // the events at 9.0 and the tick are gone
  order.clear();
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.set_tick(1.0, [&] {
    order.push_back(2);
    return std::numeric_limits<double>::infinity();
  });
  q.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(q.pending(), 3u);
  q.run_until(20.0);
  // Ties still break by insertion order, counted afresh.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.set_tick(21.0, [] { return 22.0; }), std::logic_error);
}

TEST(EventQueueTick, ReturningAPastTimeThrowsAndStopsTheTick) {
  EventQueue q;
  q.set_tick(2.0, [&] { return q.now() - 1.0; });
  EXPECT_THROW(q.run_until(3.0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace rsmem::sim

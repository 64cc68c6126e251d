// Equivalence tests for the parallel sweep engine: the cached/parallel
// path must reproduce a serial per-point build-and-solve for every figure
// workload of the paper, identically across thread counts, and the chain
// cache's replayed generators must be bitwise equal to direct builds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "analysis/code_search.h"
#include "analysis/experiment.h"
#include "core/units.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/chain_cache.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::analysis {
namespace {

constexpr SweepOptions kEngine1{1};
constexpr SweepOptions kEngine4{4};

// Serial reference: one curve per rate point, each chain built and solved
// from scratch by the convenience wrappers (rates per hour).
struct RefPoint {
  std::string label;
  double seu_per_hour = 0.0;
  double erasure_per_hour = 0.0;
  double scrub_per_hour = 0.0;
};

std::vector<Series> reference_sweep(Arrangement arrangement,
                                    const CodeSpec& code,
                                    const std::vector<RefPoint>& points,
                                    const std::vector<double>& times_hours,
                                    const std::vector<double>& x) {
  const markov::UniformizationSolver solver;
  std::vector<Series> series;
  for (const RefPoint& point : points) {
    models::BerCurve curve;
    if (arrangement == Arrangement::kSimplex) {
      models::SimplexParams p;
      p.n = code.n;
      p.k = code.k;
      p.m = code.m;
      p.seu_rate_per_bit_hour = point.seu_per_hour;
      p.erasure_rate_per_symbol_hour = point.erasure_per_hour;
      p.scrub_rate_per_hour = point.scrub_per_hour;
      curve = models::simplex_ber_curve(p, times_hours, solver);
    } else {
      models::DuplexParams p;
      p.n = code.n;
      p.k = code.k;
      p.m = code.m;
      p.seu_rate_per_bit_hour = point.seu_per_hour;
      p.erasure_rate_per_symbol_hour = point.erasure_per_hour;
      p.scrub_rate_per_hour = point.scrub_per_hour;
      curve = models::duplex_ber_curve(p, times_hours, solver);
    }
    series.push_back({point.label, x, curve.ber});
  }
  return series;
}

std::string rate_label(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1E", v);
  return buf;
}

std::vector<Series> reference_seu_sweep(Arrangement arrangement,
                                        const CodeSpec& code,
                                        std::span<const double> seu_per_day,
                                        double t_end_hours,
                                        std::size_t points) {
  std::vector<RefPoint> refs;
  for (const double r : seu_per_day) {
    refs.push_back({"lambda=" + rate_label(r) + "/bit/day",
                    core::per_day_to_per_hour(r)});
  }
  const std::vector<double> times =
      models::time_grid_hours(t_end_hours, points);
  return reference_sweep(arrangement, code, refs, times, times);
}

std::vector<Series> reference_scrub_sweep(Arrangement arrangement,
                                          const CodeSpec& code,
                                          double seu_per_day,
                                          std::span<const double> periods_s,
                                          double t_end_hours,
                                          std::size_t points) {
  std::vector<RefPoint> refs;
  for (const double period : periods_s) {
    char label[32];
    std::snprintf(label, sizeof label, "Tsc=%.0f s", period);
    refs.push_back({label, core::per_day_to_per_hour(seu_per_day), 0.0,
                    core::scrub_rate_per_hour(period)});
  }
  const std::vector<double> times =
      models::time_grid_hours(t_end_hours, points);
  return reference_sweep(arrangement, code, refs, times, times);
}

std::vector<Series> reference_permanent_sweep(
    Arrangement arrangement, const CodeSpec& code,
    std::span<const double> erasure_per_day, double t_end_months,
    std::size_t points) {
  std::vector<RefPoint> refs;
  for (const double r : erasure_per_day) {
    refs.push_back({"lambda_e=" + rate_label(r) + "/sym/day", 0.0,
                    core::per_day_to_per_hour(r)});
  }
  const std::vector<double> times =
      models::time_grid_hours(core::months_to_hours(t_end_months), points);
  std::vector<double> months;
  for (const double t : times) months.push_back(core::hours_to_months(t));
  return reference_sweep(arrangement, code, refs, times, months);
}

double max_rel_diff(const std::vector<Series>& a,
                    const std::vector<Series>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t s = 0; s < a.size() && s < b.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label);
    EXPECT_EQ(a[s].x, b[s].x);
    EXPECT_EQ(a[s].y.size(), b[s].y.size());
    for (std::size_t i = 0; i < a[s].y.size() && i < b[s].y.size(); ++i) {
      const double scale =
          std::max({std::fabs(a[s].y[i]), std::fabs(b[s].y[i]), 1e-300});
      worst = std::max(worst, std::fabs(a[s].y[i] - b[s].y[i]) / scale);
    }
  }
  return worst;
}

void expect_bitwise(const std::vector<Series>& a,
                    const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].label, b[s].label);
    EXPECT_EQ(a[s].x, b[s].x);
    EXPECT_EQ(a[s].y, b[s].y) << "series=" << a[s].label;
  }
}

// Reduced point counts vs the figure benches (25): the equivalence is per
// point, so 7 points per curve exercise the same code paths in a fraction
// of the time.
constexpr std::size_t kPoints = 7;
constexpr double kSeuRates[] = {1.7e-5, 3.6e-6, 7.3e-7};
constexpr double kPermRates[] = {1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
constexpr double kScrubPeriods[] = {900.0, 1200.0, 1800.0, 3600.0};

TEST(SweepEngine, Fig5SimplexSeuMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto legacy = reference_seu_sweep(Arrangement::kSimplex, code,
                                          kSeuRates, 48.0, kPoints);
  const auto engine = seu_rate_sweep(Arrangement::kSimplex, code, kSeuRates,
                                     48.0, kPoints, kEngine4);
  EXPECT_LE(max_rel_diff(legacy, engine), 1e-12);
}

TEST(SweepEngine, Fig6DuplexSeuMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto legacy = reference_seu_sweep(Arrangement::kDuplex, code,
                                          kSeuRates, 48.0, kPoints);
  const auto engine = seu_rate_sweep(Arrangement::kDuplex, code, kSeuRates,
                                     48.0, kPoints, kEngine4);
  EXPECT_LE(max_rel_diff(legacy, engine), 1e-12);
}

TEST(SweepEngine, Fig7DuplexScrubbingMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  const auto legacy = reference_scrub_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                            kScrubPeriods, 48.0, kPoints);
  const auto engine = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                         kScrubPeriods, 48.0, kPoints,
                                         kEngine4);
  EXPECT_LE(max_rel_diff(legacy, engine), 1e-12);
}

TEST(SweepEngine, Fig8And9PermanentMatchesLegacy) {
  const CodeSpec code{18, 16, 8};
  for (const Arrangement arr :
       {Arrangement::kSimplex, Arrangement::kDuplex}) {
    const auto legacy =
        reference_permanent_sweep(arr, code, kPermRates, 24.0, kPoints);
    const auto engine =
        permanent_rate_sweep(arr, code, kPermRates, 24.0, kPoints, kEngine4);
    EXPECT_LE(max_rel_diff(legacy, engine), 1e-12) << to_string(arr);
  }
}

TEST(SweepEngine, Fig10Rs3616PermanentMatchesLegacy) {
  const CodeSpec wide{36, 16, 8};
  const auto legacy = reference_permanent_sweep(Arrangement::kSimplex, wide,
                                                kPermRates, 24.0, kPoints);
  const auto engine = permanent_rate_sweep(Arrangement::kSimplex, wide,
                                           kPermRates, 24.0, kPoints, kEngine4);
  EXPECT_LE(max_rel_diff(legacy, engine), 1e-12);
}

TEST(SweepEngine, ThreadCountDoesNotChangeResults) {
  const CodeSpec code{18, 16, 8};
  const auto one = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                      kScrubPeriods, 48.0, kPoints, kEngine1);
  const auto four = scrub_period_sweep(Arrangement::kDuplex, code, 1.7e-5,
                                       kScrubPeriods, 48.0, kPoints, kEngine4);
  expect_bitwise(one, four);
  const auto perm1 = permanent_rate_sweep(Arrangement::kSimplex, code,
                                          kPermRates, 24.0, kPoints, kEngine1);
  const auto perm4 = permanent_rate_sweep(Arrangement::kSimplex, code,
                                          kPermRates, 24.0, kPoints, kEngine4);
  expect_bitwise(perm1, perm4);
}

TEST(ChainCacheTest, ReplayedChainBitwiseMatchesDirectBuild) {
  models::ChainCache cache;
  models::SimplexParams base;
  base.n = 18;
  base.k = 16;
  base.m = 8;
  base.scrub_rate_per_hour = 4.0;
  // First rate point: a direct build that records the structure.
  base.seu_rate_per_bit_hour = 1e-6;
  const auto first = cache.simplex(base);
  EXPECT_EQ(cache.stats().builds, 1u);
  // Further points with the same zero-pattern: replays.
  for (const double rate : {2e-6, 5e-7, 1.7e-5 / 24.0}) {
    models::SimplexParams p = base;
    p.seu_rate_per_bit_hour = rate;
    const auto cached = cache.simplex(p);
    const markov::StateSpace direct = models::SimplexModel{p}.build();
    ASSERT_EQ(cached->size(), direct.size());
    EXPECT_EQ(cached->states, direct.states);
    EXPECT_EQ(cached->chain.initial_state(), direct.chain.initial_state());
    const linalg::CsrMatrix& a = cached->chain.generator();
    const linalg::CsrMatrix& b = direct.chain.generator();
    ASSERT_EQ(a.nnz(), b.nnz());
    EXPECT_TRUE(std::equal(a.values().begin(), a.values().end(),
                           b.values().begin()));
    EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                           b.col_indices().begin()));
    EXPECT_TRUE(std::equal(a.row_pointers().begin(), a.row_pointers().end(),
                           b.row_pointers().begin()));
  }
  EXPECT_EQ(cache.stats().replays, 3u);
  EXPECT_EQ(cache.stats().replay_fallbacks, 0u);
  // Exactly repeated params short-circuit to the shared memo entry.
  const auto again = cache.simplex(base);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_GE(cache.stats().exact_hits, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().builds, 0u);
}

TEST(ChainCacheTest, DuplexReplayAndZeroPatternSeparation) {
  models::ChainCache cache;
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-6;
  cache.duplex(p);
  p.seu_rate_per_bit_hour = 3e-6;
  const auto cached = cache.duplex(p);
  const markov::StateSpace direct = models::DuplexModel{p}.build();
  EXPECT_EQ(cached->states, direct.states);
  const linalg::CsrMatrix& a = cached->chain.generator();
  const linalg::CsrMatrix& b = direct.chain.generator();
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_TRUE(
      std::equal(a.values().begin(), a.values().end(), b.values().begin()));
  EXPECT_EQ(cache.stats().replays, 1u);
  // Turning a rate on changes the reachable set: must be a fresh build,
  // not a replay of the SEU-only structure.
  p.erasure_rate_per_symbol_hour = 1e-7;
  const auto wider = cache.duplex(p);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_GT(wider->size(), cached->size());
}

TEST(ChainCacheTest, MemoEvictsItsOldestEntryPerArrangement) {
  constexpr std::size_t kMax = models::ChainCache::kMaxMemo;
  static_assert(kMax == 256);
  models::ChainCache cache;
  // A small code keeps the 2 * (kMax + 1) chains cheap; every rate point
  // shares one zero-pattern, so each new point is a replay.
  models::SimplexParams simplex;
  simplex.n = 7;
  simplex.k = 3;
  simplex.m = 3;
  models::DuplexParams duplex;
  duplex.n = 7;
  duplex.k = 3;
  duplex.m = 3;
  const auto at = [&](std::size_t i) {
    simplex.seu_rate_per_bit_hour = 1e-6 * static_cast<double>(i + 1);
    duplex.seu_rate_per_bit_hour = simplex.seu_rate_per_bit_hour;
  };
  for (std::size_t i = 0; i < kMax; ++i) {
    at(i);
    cache.simplex(simplex);
  }
  for (std::size_t i = 0; i < kMax; ++i) {
    at(i);
    cache.duplex(duplex);
  }
  models::ChainCache::Stats expected;
  expected.builds = 2;
  expected.replays = 2 * (kMax - 1);
  const auto expect_stats = [&](const char* step) {
    const models::ChainCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.builds, expected.builds) << step;
    EXPECT_EQ(stats.replays, expected.replays) << step;
    EXPECT_EQ(stats.exact_hits, expected.exact_hits) << step;
    EXPECT_EQ(stats.replay_fallbacks, 0u) << step;
  };
  expect_stats("filled");
  // A full duplex memo did not evict the first simplex entry, nor the
  // reverse.
  at(0);
  cache.simplex(simplex);
  cache.duplex(duplex);
  expected.exact_hits += 2;
  expect_stats("oldest entries still memoized");
  // One more simplex point evicts the oldest simplex entry only.
  at(kMax);
  cache.simplex(simplex);
  ++expected.replays;
  at(0);
  cache.duplex(duplex);
  ++expected.exact_hits;
  expect_stats("simplex eviction left the duplex memo alone");
  cache.simplex(simplex);
  ++expected.replays;
  expect_stats("evicted simplex entry replays");
  // The same for duplex.
  at(kMax);
  cache.duplex(duplex);
  ++expected.replays;
  at(0);
  cache.duplex(duplex);
  ++expected.replays;
  expect_stats("evicted duplex entry replays");
  // Re-inserting entry 0 evicted entry 1; entry 2 is still memoized.
  at(2);
  cache.simplex(simplex);
  cache.duplex(duplex);
  expected.exact_hits += 2;
  expect_stats("entry 2 still memoized");
}

TEST(CodeSearch, ParallelEvaluationMatchesSerial) {
  CodeSearchSpec spec;
  spec.base.seu_rate_per_bit_day = 1.7e-5;
  const std::vector<CodeCandidate> candidates = default_candidates(16);
  spec.threads = 1;
  const auto serial = evaluate_candidates(spec, candidates);
  spec.threads = 4;
  const auto parallel = evaluate_candidates(spec, candidates);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].candidate.n, parallel[i].candidate.n);
    EXPECT_EQ(serial[i].candidate.arrangement, parallel[i].candidate.arrangement);
    EXPECT_EQ(serial[i].ber, parallel[i].ber) << "i=" << i;
    EXPECT_EQ(serial[i].storage_overhead, parallel[i].storage_overhead);
    EXPECT_EQ(serial[i].decode_cycles, parallel[i].decode_cycles);
    EXPECT_EQ(serial[i].area_gates, parallel[i].area_gates);
    EXPECT_EQ(serial[i].pareto_efficient, parallel[i].pareto_efficient);
  }
}

}  // namespace
}  // namespace rsmem::analysis

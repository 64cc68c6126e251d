// Tests for the parallel Monte-Carlo campaign engine: the thread pool, the
// sharded runner, the bit-identical-across-thread-counts guarantee, and
// parallel_for_indexed on the process-wide workers. Own binary with the
// `campaign` label, which tools/run_sanitizers.sh runs under TSan.
#include "analysis/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/monte_carlo.h"
#include "sim/thread_pool.h"

namespace rsmem::analysis {
namespace {

memory::SimplexSystemConfig busy_simplex() {
  memory::SimplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 1e-3;
  cfg.rates.perm_rate_per_symbol_hour = 5e-4;
  cfg.scrub_policy = memory::ScrubPolicy::kExponential;
  cfg.scrub_period_hours = 4.0;
  return cfg;
}

memory::DuplexSystemConfig busy_duplex() {
  memory::DuplexSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = 1e-3;
  cfg.rates.perm_rate_per_symbol_hour = 5e-4;
  return cfg;
}

void expect_identical(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.failure.trials, b.failure.trials);
  EXPECT_EQ(a.failure.failures, b.failure.failures);
  // Bitwise equality is intended: the accumulator sums integers held in
  // doubles, so merging in chunk order is exact for any shard layout.
  EXPECT_EQ(a.mean_seu_per_trial, b.mean_seu_per_trial);
  EXPECT_EQ(a.mean_permanent_per_trial, b.mean_permanent_per_trial);
  EXPECT_EQ(a.scrub_failures, b.scrub_failures);
  EXPECT_EQ(a.scrub_miscorrections, b.scrub_miscorrections);
  EXPECT_EQ(a.no_output_failures, b.no_output_failures);
  EXPECT_EQ(a.wrong_data_failures, b.wrong_data_failures);
}

// ---- ThreadPool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  sim::ThreadPool pool{4};
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 250; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 250);
  // The pool is reusable after going idle.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 251);
}

TEST(ThreadPool, ResolveZeroPicksHardwareConcurrency) {
  EXPECT_GE(sim::ThreadPool::resolve(0), 1u);
  EXPECT_EQ(sim::ThreadPool::resolve(3), 3u);
}

// ---- run_chunked ----

TEST(Campaign, ChunksPartitionTrialRangeExactly) {
  CampaignConfig config;
  config.trials = 1000;
  config.chunk_trials = 333;  // trials not divisible by chunk size
  config.threads = 2;
  EXPECT_EQ(campaign_chunk_count(config), 4u);

  std::vector<char> seen(config.trials, 0);
  std::atomic<std::size_t> chunks_run{0};
  CampaignReport report;
  CampaignProgress progress;
  run_chunked(
      config,
      [&](std::size_t chunk, std::size_t first, std::size_t last) {
        EXPECT_EQ(first, chunk * config.chunk_trials);
        EXPECT_LE(last, config.trials);
        for (std::size_t t = first; t < last; ++t) seen[t] = 1;
        chunks_run.fetch_add(1);
      },
      &report, &progress);

  EXPECT_EQ(chunks_run.load(), 4u);
  for (std::size_t t = 0; t < config.trials; ++t) {
    EXPECT_TRUE(seen[t]) << "trial " << t << " never ran";
  }
  EXPECT_EQ(report.trials, config.trials);
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_EQ(report.threads_used, 2u);
  EXPECT_GE(report.trials_per_second, 0.0);
  EXPECT_EQ(progress.trials_completed.load(), config.trials);
  EXPECT_EQ(progress.chunks_completed.load(), 4u);
}

TEST(Campaign, NeverSpawnsMoreThreadsThanChunks) {
  CampaignConfig config;
  config.trials = 10;
  config.chunk_trials = 8;  // 2 chunks
  config.threads = 16;
  CampaignReport report;
  run_chunked(
      config, [](std::size_t, std::size_t, std::size_t) {}, &report);
  EXPECT_EQ(report.threads_used, 2u);
}

TEST(Campaign, RunsOnTheSharedWorkersWithoutOversubscribing) {
  // A request above the core count runs on the caller plus the shared
  // workers, and the report counts those participants.
  const unsigned cores = sim::ThreadPool::resolve(0);
  CampaignConfig config;
  config.trials = 4096;
  config.chunk_trials = 16;  // 256 chunks
  config.threads = cores + 4;
  std::mutex mutex;
  std::vector<std::thread::id> seen;
  CampaignReport report;
  run_chunked(
      config,
      [&](std::size_t, std::size_t, std::size_t) {
        std::lock_guard<std::mutex> lock(mutex);
        const std::thread::id self = std::this_thread::get_id();
        if (std::find(seen.begin(), seen.end(), self) == seen.end()) {
          seen.push_back(self);
        }
      },
      &report);
  EXPECT_EQ(report.threads_used, std::max(2u, cores));
  EXPECT_LE(seen.size(), report.threads_used);
}

TEST(Campaign, RejectsEmptyCampaigns) {
  CampaignConfig config;
  config.trials = 0;
  EXPECT_THROW(campaign_chunk_count(config), std::invalid_argument);
  config.trials = 10;
  config.chunk_trials = 0;
  EXPECT_THROW(
      run_chunked(config, [](std::size_t, std::size_t, std::size_t) {}),
      std::invalid_argument);
}

TEST(Campaign, PropagatesFirstChunkErrorByIndex) {
  CampaignConfig config;
  config.trials = 64;
  config.chunk_trials = 8;
  config.threads = 4;
  try {
    run_chunked(config,
                [](std::size_t chunk, std::size_t, std::size_t) {
                  if (chunk == 2 || chunk == 6) {
                    throw std::runtime_error("chunk " + std::to_string(chunk));
                  }
                });
    FAIL() << "expected the chunk error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");  // lowest failing index wins
  }
}

// ---- parallel_for_indexed ----

TEST(ParallelForIndexed, RunsEveryIndexExactlyOnce) {
  for (const std::size_t count : {1ul, 3ul, 1000ul}) {
    for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
      std::vector<std::atomic<int>> runs(count);
      parallel_for_indexed(count, threads, [&runs](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(runs[i].load(), 1)
            << "count " << count << " threads " << threads << " index " << i;
      }
    }
  }
  parallel_for_indexed(0, 4, [](std::size_t) { FAIL() << "count 0 ran"; });
}

TEST(ParallelForIndexed, EveryIndexRunsAndFirstThrowByIndexIsRethrown) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<int>> runs(64);
    try {
      parallel_for_indexed(runs.size(), threads, [&runs](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 5 || i == 2) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected the index error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 2");  // lowest failing index wins
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ParallelForIndexed, NestedCallCompletes) {
  // Every outer index may hold a shared worker while it waits on its own
  // inner call; the inner callers run their indices themselves.
  std::vector<std::atomic<int>> inner_runs(8 * 16);
  parallel_for_indexed(8, 4, [&inner_runs](std::size_t outer) {
    parallel_for_indexed(16, 4, [&inner_runs, outer](std::size_t inner) {
      inner_runs[outer * 16 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < inner_runs.size(); ++i) {
    EXPECT_EQ(inner_runs[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForIndexed, ConcurrentCallersSeeOnlyTheirOwnIndices) {
  // Four callers share the workers; each has its own count, so an index
  // from another caller's job would land out of range or twice.
  constexpr int kCallers = 4;
  std::vector<std::vector<std::atomic<int>>> runs;
  for (int c = 0; c < kCallers; ++c) runs.emplace_back(200 + 37 * c);
  std::vector<std::atomic<int>> out_of_range(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>>& mine = runs[c];
        parallel_for_indexed(mine.size(), 4, [&, c](std::size_t i) {
          if (i >= mine.size()) {
            out_of_range[c].fetch_add(1, std::memory_order_relaxed);
            return;
          }
          mine[i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(out_of_range[c].load(), 0) << "caller " << c;
    for (std::size_t i = 0; i < runs[c].size(); ++i) {
      ASSERT_EQ(runs[c][i].load(), 20) << "caller " << c << " index " << i;
    }
  }
}

// ---- run_sharded fold order ----

TEST(Campaign, ShardedFoldsInChunkOrder) {
  CampaignConfig config;
  config.trials = 100;
  config.chunk_trials = 10;
  config.threads = 8;
  const auto order = run_sharded<std::vector<std::size_t>>(
      config,
      [](std::size_t first, std::size_t, std::vector<std::size_t>& acc) {
        acc.push_back(first);
      },
      [](std::vector<std::size_t>& total,
         const std::vector<std::size_t>& shard) {
        total.insert(total.end(), shard.begin(), shard.end());
      });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i * 10) << "fold order must follow chunk index";
  }
}

// ---- MonteCarloAccumulator merge ----

TEST(Campaign, AccumulatorMergeIsAssociative) {
  MonteCarloAccumulator a, b, c;
  a.trials = 100; a.failures = 3; a.seu_sum = 211.0; a.permanent_sum = 17.0;
  a.scrub_failures = 2; a.scrub_miscorrections = 1;
  a.no_output_failures = 2; a.wrong_data_failures = 1;
  b.trials = 50; b.failures = 7; b.seu_sum = 99.0; b.permanent_sum = 5.0;
  b.scrub_failures = 0; b.scrub_miscorrections = 3;
  b.no_output_failures = 6; b.wrong_data_failures = 1;
  c.trials = 75; c.failures = 1; c.seu_sum = 143.0; c.permanent_sum = 29.0;
  c.scrub_failures = 4; c.scrub_miscorrections = 0;
  c.no_output_failures = 0; c.wrong_data_failures = 1;

  // (a + b) + c
  MonteCarloAccumulator left = a;
  left.merge_from(b);
  left.merge_from(c);
  // a + (b + c)
  MonteCarloAccumulator right_tail = b;
  right_tail.merge_from(c);
  MonteCarloAccumulator right = a;
  right.merge_from(right_tail);

  expect_identical(left.finalize(), right.finalize());
  EXPECT_EQ(left.trials, 225u);
  EXPECT_EQ(left.failures, 11u);
  EXPECT_EQ(left.seu_sum, 453.0);  // integer-valued double sums are exact
}

// ---- End-to-end determinism across thread counts ----

TEST(Campaign, SimplexResultIdenticalForAnyThreadCount) {
  MonteCarloConfig mc;
  mc.trials = 3000;
  mc.t_end_hours = 24.0;
  mc.seed = 1234;
  mc.chunk_trials = 256;

  mc.threads = 1;
  const MonteCarloResult one = run_simplex_trials(busy_simplex(), mc);
  EXPECT_GT(one.failure.failures, 0u);  // the campaign actually exercises faults

  for (unsigned threads : {2u, 8u}) {
    mc.threads = threads;
    expect_identical(one, run_simplex_trials(busy_simplex(), mc));
  }
}

TEST(Campaign, DuplexResultIdenticalForAnyThreadCount) {
  MonteCarloConfig mc;
  mc.trials = 1500;
  mc.t_end_hours = 24.0;
  mc.seed = 4321;
  mc.chunk_trials = 128;

  mc.threads = 1;
  const MonteCarloResult one = run_duplex_trials(busy_duplex(), mc);

  for (unsigned threads : {2u, 8u}) {
    mc.threads = threads;
    expect_identical(one, run_duplex_trials(busy_duplex(), mc));
  }
}

TEST(Campaign, ResultIndependentOfChunkSize) {
  // Chunk-boundary invariance: shard layout must not leak into the result,
  // including a partial final chunk and a single-chunk campaign.
  MonteCarloConfig mc;
  mc.trials = 1000;
  mc.t_end_hours = 24.0;
  mc.seed = 99;
  mc.threads = 4;

  mc.chunk_trials = 1000;  // one chunk
  const MonteCarloResult whole = run_simplex_trials(busy_simplex(), mc);
  for (std::size_t chunk_trials : {7ul, 333ul, 1024ul}) {
    mc.chunk_trials = chunk_trials;
    expect_identical(whole, run_simplex_trials(busy_simplex(), mc));
  }
}

TEST(Campaign, ObserverSeesEveryTrialExactlyOnce) {
  MonteCarloConfig mc;
  mc.trials = 500;
  mc.t_end_hours = 24.0;
  mc.seed = 7;
  mc.threads = 4;
  mc.chunk_trials = 64;
  std::vector<std::atomic<int>> seen(mc.trials);
  mc.observer = [&seen](const TrialRecord& record) {
    ASSERT_LT(record.trial_index, seen.size());
    seen[record.trial_index].fetch_add(1);
  };
  run_simplex_trials(busy_simplex(), mc);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t].load(), 1) << "trial " << t;
  }
}

}  // namespace
}  // namespace rsmem::analysis

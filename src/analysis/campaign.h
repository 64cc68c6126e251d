// Sharded Monte-Carlo campaign runner.
//
// Partitions a campaign of `trials` independent trials into fixed-size
// chunks, runs the chunks through parallel_for_indexed (the caller and the
// process-wide workers), and folds the per-chunk accumulators IN
// CHUNK-INDEX ORDER. Together with per-trial RNG streams
// keyed by the GLOBAL trial index (not by shard or thread), this makes the
// campaign result bit-identical for every thread count, including 1:
//
//  * which trials exist, and each trial's random stream, depend only on the
//    campaign seed and the global trial index;
//  * chunk boundaries depend only on `chunk_trials`, never on `threads`;
//  * the merge fold visits chunks in ascending index order, so even
//    non-associative accumulator arithmetic (floating-point sums) combines
//    in one fixed order.
//
// The scheduler is free to run chunks in any order on any worker; only the
// fold order is pinned.
#ifndef RSMEM_ANALYSIS_CAMPAIGN_H
#define RSMEM_ANALYSIS_CAMPAIGN_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace rsmem::analysis {

struct CampaignConfig {
  std::size_t trials = 0;
  // Shard granularity. Results do not depend on it (see fold-order note
  // above), but it trades scheduling slack against task overhead.
  std::size_t chunk_trials = 1024;
  // Threads that run chunks, the caller included; 0 selects the hardware
  // concurrency. Never more than the chunks, nor than the process-wide
  // workers plus the caller (see parallel_for_indexed).
  unsigned threads = 0;
};

// Live per-shard progress, safe to read from other threads while the
// campaign runs (e.g. for a bench progress line).
struct CampaignProgress {
  std::atomic<std::uint64_t> trials_completed{0};
  std::atomic<std::uint64_t> chunks_completed{0};
};

// Filled in after the campaign finishes.
struct CampaignReport {
  std::size_t trials = 0;
  std::size_t chunks = 0;
  unsigned threads_used = 0;
  double elapsed_seconds = 0.0;
  double trials_per_second = 0.0;
};

// Number of chunks the config partitions into (ceil division).
std::size_t campaign_chunk_count(const CampaignConfig& config);

// Type-erased core: calls `run_chunk(chunk_index, first_trial, last_trial)`
// for every chunk (half-open trial range) through parallel_for_indexed with
// `config.threads`, so a campaign starts no threads and its caller runs
// chunks too. The single-thread path runs inline. Exceptions thrown by a
// chunk are captured and the FIRST one (by chunk index) is rethrown after
// all other chunks finish. Throws std::invalid_argument for an empty
// campaign or zero chunk size.
using ChunkRunner = std::function<void(
    std::size_t chunk_index, std::size_t first_trial, std::size_t last_trial)>;
void run_chunked(const CampaignConfig& config, const ChunkRunner& run_chunk,
                 CampaignReport* report = nullptr,
                 CampaignProgress* progress = nullptr);

// Splits a chunk's half-open trial range into fixed-width sub-batches and
// calls `fn(first, last)` for each, in ascending order. The batched
// Monte-Carlo gather/decode/scatter path uses this to bound how many live
// systems one worker holds; because the batch boundaries depend only on
// `width` (never on threads or chunk layout) and every trial's work is
// independent, the batch width cannot change campaign results.
template <typename Fn>
void for_each_batch(std::size_t first, std::size_t last, std::size_t width,
                    Fn&& fn) {
  for (std::size_t base = first; base < last;) {
    const std::size_t stop = std::min(last, base + width);
    fn(base, stop);
    base = stop;
  }
}

// Index-parallel helper (the Markov sweeps, code search and fault
// campaigns): runs fn(i) for every i in [0, count) with
// p = min(threads, count) participants (threads 0 = hardware concurrency).
// With p <= 1 it runs inline. Otherwise the calling thread and up to p-1
// helpers claim indices from one shared counter; the helpers are workers
// of one process-wide pool of hardware_concurrency()-1 threads (at least
// 1), started by the first parallel call, so a call starts no threads and
// a request above the core count does not oversubscribe. The call returns
// once every index has finished, and it waits only for indices other
// threads have claimed, so calls may nest inside fn and may come from
// several threads at once. Deterministic whenever fn(i) writes only its
// own slot i. Every index runs even when some throw; the first exception
// by index is rethrown. count == 0 is a no-op.
void parallel_for_indexed(std::size_t count, unsigned threads,
                          const std::function<void(std::size_t)>& fn);

// Accumulator-typed front end. `chunk_fn(first, last, shard)` fills a
// default-constructed shard accumulator for its trial range; `merge(total,
// shard)` folds shards into the running total in chunk order.
template <typename Accumulator, typename ChunkFn, typename MergeFn>
Accumulator run_sharded(const CampaignConfig& config, ChunkFn&& chunk_fn,
                        MergeFn&& merge, CampaignReport* report = nullptr,
                        CampaignProgress* progress = nullptr) {
  std::vector<Accumulator> shards(campaign_chunk_count(config));
  run_chunked(
      config,
      [&](std::size_t chunk, std::size_t first, std::size_t last) {
        chunk_fn(first, last, shards[chunk]);
      },
      report, progress);
  Accumulator total{};
  for (const Accumulator& shard : shards) merge(total, shard);
  return total;
}

}  // namespace rsmem::analysis

#endif  // RSMEM_ANALYSIS_CAMPAIGN_H

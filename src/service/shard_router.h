// N-shard front for the rsmem-serve analysis plane.
//
// A ShardRouter owns N independent AnalysisScheduler shards — each with
// its own bounded pending queue, dispatcher thread, worker pool, and
// single-flight ResultCache — and routes every request to exactly one
// shard by shard_of_key(canonical_cache_key(request), N). Because the
// cache key IS the routing key, repeated identical queries always land on
// the shard that cached them: N per-shard caches serve hot traffic as
// effectively as one global cache, without a global mutex on the hot
// path.
//
// Admission control is two-level:
//   * per shard — each scheduler's bounded queue rejects kOverloaded when
//     ITS max_queue is full (an elephant-flow key cannot starve the other
//     shards);
//   * global backstop — an atomic in-flight counter across all shards
//     rejects kOverloaded before touching any shard once
//     global_max_pending requests are admitted-but-unanswered, so the
//     daemon's total memory/latency exposure stays bounded no matter how
//     traffic skews. Both rejections are typed; nothing is ever dropped
//     silently.
//
// stats() merges per-shard counters (sums; max_batch as a max) and also
// exposes the raw per-shard snapshots for the server's `stats` response.
// Responses remain bit-identical to direct core:: calls for EVERY shard
// count: routing only selects which cache/queue a request uses, never how
// it computes (tests/test_service.cpp pins shards=1 vs shards=4
// byte-for-byte).
#ifndef RSMEM_SERVICE_SHARD_ROUTER_H
#define RSMEM_SERVICE_SHARD_ROUTER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "service/scheduler.h"

namespace rsmem::service {

struct ShardRouterConfig {
  unsigned shards = 1;        // independent scheduler/cache shards (>= 1)
  // Per-shard knobs. `scheduler.threads` is the TOTAL worker budget: the
  // router gives each shard max(1, resolve(threads) / shards) workers.
  // max_queue / cache_capacity / batch_max apply per shard.
  SchedulerConfig scheduler;
  // Global admission backstop on requests in flight (admitted, not yet
  // answered) across all shards; 0 = shards * scheduler.max_queue.
  std::size_t global_max_pending = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(const ShardRouterConfig& config);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Routes to the owning shard and submits. Ok => `done` fires exactly
  // once from a shard worker; kOverloaded (backstop or shard queue) =>
  // `done` will never be invoked.
  core::Status submit(Request request, std::function<void(Response)> done);

  // Synchronous execution on the owning shard's cache (tests, warm-up).
  Response execute(const Request& request);

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  std::size_t shard_of(const Request& request) const;
  std::size_t global_max_pending() const { return global_max_; }

  struct Stats {
    AnalysisScheduler::Stats scheduler;  // merged across shards
    ResultCache::Stats cache;            // merged across shards
    std::uint64_t rejected_global = 0;   // backstop rejections
    std::size_t global_pending = 0;      // in flight right now
    std::vector<AnalysisScheduler::Stats> shard_scheduler;
    std::vector<ResultCache::Stats> shard_cache;
  };
  Stats stats() const;
  AnalysisScheduler::Stats scheduler_stats() const;  // merged only
  ResultCache::Stats cache_stats() const;            // merged only

  // Crash-safe cache persistence (result_cache.h has the file format).
  // save_snapshot gathers every shard's entries into ONE file; the server
  // calls it after the drain on shutdown, so the entries are final.
  // load_snapshot routes each entry to the shard that owns its key —
  // a snapshot taken at any shard count warms a server with any other —
  // and returns how many entries were loaded. Corrupt/torn/mismatched
  // snapshots come back as a typed Status; the caller treats every
  // failure as a cold start.
  core::Status save_snapshot(const std::string& path) const;
  core::Result<std::size_t> load_snapshot(const std::string& path);

  // Stops every shard (drain semantics per AnalysisScheduler::stop).
  // Idempotent; also run by the destructor.
  void stop();

 private:
  const unsigned shard_count_;
  const std::size_t global_max_;
  std::vector<std::unique_ptr<AnalysisScheduler>> shards_;
  std::atomic<std::size_t> global_pending_{0};
  std::atomic<std::uint64_t> rejected_global_{0};
};

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_SHARD_ROUTER_H

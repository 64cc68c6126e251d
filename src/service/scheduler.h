// Request scheduler of rsmem-serve: admission control, deadline policing,
// compatibility batching, and execution on the shared analysis engines.
// One AnalysisScheduler is one SHARD of the service (service/shard_router.h
// routes requests to shards by canonical-cache-key hash); a single-shard
// deployment is simply a router with one scheduler.
//
// Life of a request:
//   1. submit() — ADMISSION: the pending queue is a deque under one
//      mutex. When it already holds max_queue requests the submission is
//      rejected immediately with a typed kOverloaded Status (never a
//      silent drop, never a blocked producer) and nothing is enqueued.
//      Otherwise the request is pushed under the lock and a condition
//      variable wakes the dispatcher.
//   2. The dispatcher thread drains up to batch_max pending requests at a
//      time and groups them by COMPATIBILITY KEY — the structural identity
//      of the Markov chain they need (arrangement, code geometry, rate
//      zero-pattern, analysis family). Each group becomes one task on the
//      sim::ThreadPool: distinct groups run concurrently, requests inside
//      a group run back-to-back so the first solve warms the
//      models::ChainCache structure and the ResultCache, and the rest of
//      the group replays/hits instead of re-enumerating.
//   3. DEADLINE: policed twice. A request whose deadline_ms elapsed by the
//      time the dispatcher drains it is answered kDeadlineExceeded without
//      ever occupying a worker; and because a group can sit behind earlier
//      groups on a busy pool, the deadline is RE-CHECKED when the shard
//      worker dequeues the request for execution — a request queued past
//      its deadline gets the typed rejection, not a late success.
//   4. Execution routes through the core try_* facade (global ChainCache +
//      per-thread SolverWorkspace) via the single-flight ResultCache, so
//      results are bit-identical to direct core:: calls.
// stop() drains: accepted requests still complete, new submissions are
// rejected kOverloaded("scheduler stopping"). stop() sets the flag under
// the queue lock that submit() holds while it checks the flag and pushes,
// so every push lands before the dispatcher's last look at the queue.
#ifndef RSMEM_SERVICE_SCHEDULER_H
#define RSMEM_SERVICE_SCHEDULER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/result_cache.h"
#include "sim/thread_pool.h"

namespace rsmem::service {

struct SchedulerConfig {
  unsigned threads = 0;            // worker pool size; 0 = hardware
  std::size_t max_queue = 128;     // admission bound on pending requests
  std::size_t cache_capacity = 256;
  std::size_t batch_max = 16;      // max requests drained per dispatch

  // Brown-out (always on): graceful degradation under SUSTAINED overload,
  // watermarked on in-flight depth (accepted - completed: queue + pool
  // queue + executing). Reaching 3/4 of max_queue (at least 1) puts the
  // shard in brown-out: cache-MISS analysis work is shed with a typed
  // kBrownout rejection (carrying a 50 ms retry-after hint), while cache
  // HITS are answered inline from submit() and the control plane stays
  // untouched. The mode is self-draining — no new misses are admitted, so
  // depth falls — and clears once depth falls to max_queue / 4.

  // Watchdog: a shard with in-flight work but no completion progress for
  // longer than this is reported stuck in stats (a starved/wedged shard
  // must be VISIBLE, not silent). <= 0 disables.
  double watchdog_stall_ms = 2000.0;
};

class AnalysisScheduler {
 public:
  explicit AnalysisScheduler(const SchedulerConfig& config);
  ~AnalysisScheduler();
  AnalysisScheduler(const AnalysisScheduler&) = delete;
  AnalysisScheduler& operator=(const AnalysisScheduler&) = delete;

  // Admission-controlled enqueue. Ok => `done` fires exactly once with
  // the final Response — from a worker thread, or INLINE from submit()
  // when a brown-out serves a cache hit without queueing. Non-ok
  // (kOverloaded / kBrownout) => `done` was NOT and will not be invoked;
  // the caller owns the rejection.
  core::Status submit(Request request, std::function<void(Response)> done);

  // Executes one request synchronously on the caller's thread through the
  // same cache + engines (used by tests and the router's sync path).
  Response execute(const Request& request);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;        // dispatcher drains
    std::uint64_t batch_groups = 0;   // pool tasks dispatched
    std::uint64_t max_batch = 0;      // largest single drain
    std::size_t queue_depth = 0;      // pending right now
    std::size_t in_flight = 0;        // accepted - completed
    // Brown-out telemetry.
    bool brownout_active = false;
    std::uint64_t brownout_entries = 0;  // times brown-out engaged
    std::uint64_t brownout_shed = 0;     // misses rejected kBrownout
    std::uint64_t brownout_hits = 0;     // hits served inline from submit
    // Watchdog: stalled_ms = time since the last completion while work is
    // in flight (0 when idle); stuck = stalled past watchdog_stall_ms.
    bool stuck = false;
    double stalled_ms = 0.0;

    // Counter-wise sum used by the shard router's stats merge
    // (max_batch/stalled_ms merge as a max, the bools as OR,
    // queue_depth/in_flight as sums).
    Stats& merge(const Stats& other);
  };
  Stats stats() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

  // Warm-start surfaces (the router's snapshot save/load goes through
  // these; see result_cache.h).
  std::vector<SnapshotEntry> export_cache_entries() const {
    return cache_.export_entries();
  }
  void warm_cache_entry(const std::string& key,
                        std::shared_ptr<const std::string> value) {
    cache_.insert(key, std::move(value));
  }

  // Rejects new work, drains everything already accepted, joins workers.
  // Idempotent; also run by the destructor.
  void stop();

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Request request;
    std::function<void(Response)> done;
    Clock::time_point deadline;  // time_point::max() = none
  };

  void dispatcher_loop();
  void dispatch_batch(std::vector<Pending>& batch);
  void run_group(std::shared_ptr<std::vector<Pending>> group);
  void answer_deadline_expired(Pending& pending);
  Response execute_timed(const Request& request);
  void note_progress();
  std::size_t in_flight_now() const;

  const SchedulerConfig config_;
  const std::size_t brownout_enter_;  // thresholds (see SchedulerConfig)
  const std::size_t brownout_exit_;
  ResultCache cache_;
  sim::ThreadPool pool_;

  // Dispatch queue. stopping_ is written only under mutex_; it is atomic
  // so submit() can reject early without taking the lock.
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<Pending> pending_;
  std::atomic<bool> stopping_{false};

  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_overload{0};
    std::atomic<std::uint64_t> deadline_expired{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> batch_groups{0};
    std::atomic<std::uint64_t> max_batch{0};
    std::atomic<std::uint64_t> brownout_entries{0};
    std::atomic<std::uint64_t> brownout_shed{0};
    std::atomic<std::uint64_t> brownout_hits{0};
  };
  AtomicStats stats_;
  std::atomic<bool> brownout_{false};
  // Watchdog heartbeat: steady-clock ns of the last completion (or of
  // construction). A shard whose in-flight count stays > 0 while this
  // timestamp ages past watchdog_stall_ms is reported stuck.
  std::atomic<std::int64_t> last_progress_ns_{0};
  std::thread dispatcher_;
};

// Compatibility key used for batching: requests with equal keys share the
// same chain structure in models::ChainCache. Exposed for tests.
std::string batch_compatibility_key(const Request& request);

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_SCHEDULER_H

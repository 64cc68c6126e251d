#include "analysis/campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "sim/thread_pool.h"

namespace rsmem::analysis {

namespace {

// The workers behind parallel_for_indexed: one pool per process, started
// on the first parallel call. The calling thread is always a participant,
// so the pool leaves it one core.
sim::ThreadPool& shared_workers() {
  static sim::ThreadPool pool{std::max(1u, sim::ThreadPool::resolve(0) - 1)};
  return pool;
}

// One parallel_for_indexed call, shared by the caller and its helpers.
// Helpers hold it by shared_ptr, so a helper that starts after the call
// returned still finds a live counter; it then claims nothing and never
// touches `fn`.
class IndexedJob {
 public:
  IndexedJob(std::size_t count, const std::function<void(std::size_t)>& fn)
      : count_(count), fn_(&fn) {}

  // Claims and runs indices until none are left.
  void run() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      std::exception_ptr thrown;
      try {
        (*fn_)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (thrown && i < error_index_) {
        error_index_ = i;
        error_ = thrown;
      }
      if (++finished_ == count_) all_finished_.notify_all();
    }
  }

  // Blocks until every index has finished (only indices other threads
  // claimed can still be running), then rethrows the first exception by
  // index.
  void wait_and_rethrow() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_finished_.wait(lock, [this] { return finished_ == count_; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t count_;
  const std::function<void(std::size_t)>* fn_;
  std::atomic<std::size_t> next_{0};
  std::mutex mutex_;
  std::condition_variable all_finished_;
  std::size_t finished_ = 0;            // guarded by mutex_
  std::size_t error_index_ = SIZE_MAX;  // guarded by mutex_
  std::exception_ptr error_;            // guarded by mutex_
};

// Threads a parallel_for_indexed call over `count` > 0 indices runs on:
// the caller plus up to threads - 1 pool workers. A helper beyond the
// pool's size could only start after another helper of the same call ran
// out of indices, so it would claim none.
std::size_t participants(std::size_t count, unsigned threads) {
  const std::size_t wanted =
      std::min<std::size_t>(sim::ThreadPool::resolve(threads), count);
  if (wanted <= 1) return 1;
  return 1 + std::min<std::size_t>(wanted - 1, shared_workers().size());
}

}  // namespace

std::size_t campaign_chunk_count(const CampaignConfig& config) {
  if (config.trials == 0) {
    throw std::invalid_argument("campaign: need at least 1 trial");
  }
  if (config.chunk_trials == 0) {
    throw std::invalid_argument("campaign: chunk_trials must be > 0");
  }
  return (config.trials + config.chunk_trials - 1) / config.chunk_trials;
}

void run_chunked(const CampaignConfig& config, const ChunkRunner& run_chunk,
                 CampaignReport* report, CampaignProgress* progress) {
  const std::size_t chunks = campaign_chunk_count(config);
  const auto start = std::chrono::steady_clock::now();
  parallel_for_indexed(chunks, config.threads, [&](std::size_t chunk) {
    const std::size_t first = chunk * config.chunk_trials;
    const std::size_t last =
        std::min(config.trials, first + config.chunk_trials);
    run_chunk(chunk, first, last);
    if (progress != nullptr) {
      progress->trials_completed.fetch_add(last - first,
                                           std::memory_order_relaxed);
      progress->chunks_completed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (report != nullptr) {
    report->trials = config.trials;
    report->chunks = chunks;
    report->threads_used =
        static_cast<unsigned>(participants(chunks, config.threads));
    report->elapsed_seconds = elapsed;
    report->trials_per_second =
        elapsed > 0.0 ? static_cast<double>(config.trials) / elapsed : 0.0;
  }
}

void parallel_for_indexed(std::size_t count, unsigned threads,
                          const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto job = std::make_shared<IndexedJob>(count, fn);
  const std::size_t helpers = participants(count, threads) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    shared_workers().submit([job] { job->run(); });
  }
  job->run();
  job->wait_and_rethrow();
}

}  // namespace rsmem::analysis

// A small fixed-size worker pool for CPU-bound simulation campaigns.
//
// Tasks are closures executed FIFO by `threads` workers. The pool makes no
// ordering guarantee between tasks running on different workers, so callers
// that need deterministic results must make tasks independent and combine
// their outputs in a fixed order (see analysis/campaign.h, which does
// exactly that for Monte-Carlo shards).
#ifndef RSMEM_SIM_THREAD_POOL_H
#define RSMEM_SIM_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rsmem::sim {

class ThreadPool {
 public:
  // Spawns `threads` workers; 0 selects the hardware concurrency (at least
  // 1 even when the runtime cannot report it).
  explicit ThreadPool(unsigned threads = 0);
  // Joins the workers after draining already-submitted tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueues a task. A task MAY throw: the exception is captured in the
  // worker (the pool keeps running) and the FIRST captured exception is
  // rethrown to the caller from the next wait_idle(). Callers that need a
  // specific exception-selection order (e.g. first by task index) should
  // still wrap tasks and pick their own winner, as
  // analysis::parallel_for_indexed does for its indices.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished running, then rethrows
  // the first exception captured from a task since the previous wait_idle()
  // (if any). The pool remains usable after the rethrow.
  void wait_idle();

  // 0 -> std::thread::hardware_concurrency(), clamped to >= 1.
  static unsigned resolve(unsigned requested);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::size_t in_flight_ = 0;  // queued + currently running tasks
  std::exception_ptr first_exception_;  // first task throw since last wait
  bool stop_ = false;
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_THREAD_POOL_H

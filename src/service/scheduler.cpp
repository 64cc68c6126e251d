#include "service/scheduler.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/api.h"

namespace rsmem::service {

namespace {

JsonObject curve_to_json(const models::BerCurve& curve) {
  JsonObject object;
  object.emplace("times_hours", Json::from_doubles(curve.times_hours));
  object.emplace("fail_probability",
                 Json::from_doubles(curve.fail_probability));
  object.emplace("ber", Json::from_doubles(curve.ber));
  return object;
}

core::Result<std::string> compute_ber(const Request& request) {
  const core::Result<models::BerCurve> curve =
      request.periodic
          ? try_analyze_ber_periodic_scrub(request.spec, request.times_hours)
          : try_analyze_ber(request.spec, request.times_hours);
  if (!curve.ok()) return curve.status();
  return Json(curve_to_json(curve.value())).serialize();
}

core::Result<std::string> compute_mttf(const Request& request) {
  const core::Result<double> hours = try_mttf_hours(request.spec);
  if (!hours.ok()) return hours.status();
  JsonObject object;
  object.emplace("mttf_hours", hours.value());
  return Json(std::move(object)).serialize();
}

// Mirrors the CLI sweep command point for point: one single-time
// analyze_ber per swept value, same mutation of the base spec, so service
// sweeps are bit-identical to `rsmem_cli sweep`.
core::Result<std::string> compute_sweep(const Request& request) {
  std::vector<double> fail_probability;
  std::vector<double> ber;
  fail_probability.reserve(request.sweep_values.size());
  ber.reserve(request.sweep_values.size());
  for (const double value : request.sweep_values) {
    core::MemorySystemSpec spec = request.spec;
    if (request.sweep_param == "seu") {
      spec.seu_rate_per_bit_day = value;
    } else if (request.sweep_param == "perm") {
      spec.erasure_rate_per_symbol_day = value;
    } else {
      spec.scrub_period_seconds = value;
    }
    const double times[] = {request.sweep_hours};
    const core::Result<models::BerCurve> curve = try_analyze_ber(spec, times);
    if (!curve.ok()) return curve.status();
    fail_probability.push_back(curve.value().fail_probability.front());
    ber.push_back(curve.value().ber.front());
  }
  JsonObject object;
  object.emplace("param", request.sweep_param);
  object.emplace("hours", request.sweep_hours);
  object.emplace("values", Json::from_doubles(request.sweep_values));
  object.emplace("fail_probability", Json::from_doubles(fail_probability));
  object.emplace("ber", Json::from_doubles(ber));
  return Json(std::move(object)).serialize();
}

core::Result<std::string> compute_result(const Request& request) {
  switch (request.kind) {
    case RequestKind::kBer:
      return compute_ber(request);
    case RequestKind::kMttf:
      return compute_mttf(request);
    case RequestKind::kSweep:
      return compute_sweep(request);
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kShutdown:
      break;
  }
  return core::Status::invalid_config(
      std::string("request kind '") + to_string(request.kind) +
      "' is handled by the server control plane, not the scheduler");
}

void update_max(std::atomic<std::uint64_t>& slot, std::uint64_t candidate) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !slot.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string batch_compatibility_key(const Request& request) {
  // The chain structure depends on the geometry and on WHICH rates are
  // nonzero (models::ChainCache's structural key), not their magnitudes;
  // the analysis family decides which solver path runs.
  std::string key;
  key.reserve(48);
  key += to_string(request.kind);
  key += request.periodic ? "|periodic" : "|chain";
  key += "|";
  key += analysis::to_string(request.spec.arrangement);
  key += "|n=" + std::to_string(request.spec.code.n);
  key += "|k=" + std::to_string(request.spec.code.k);
  key += "|m=" + std::to_string(request.spec.code.m);
  key += request.spec.seu_rate_per_bit_day != 0.0 ? "|seu" : "|noseu";
  key += request.spec.erasure_rate_per_symbol_day != 0.0 ? "|perm" : "|noperm";
  key += request.spec.scrub_period_seconds != 0.0 ? "|scrub" : "|noscrub";
  if (request.kind == RequestKind::kSweep) key += "|" + request.sweep_param;
  return key;
}

AnalysisScheduler::Stats& AnalysisScheduler::Stats::merge(const Stats& other) {
  accepted += other.accepted;
  rejected_overload += other.rejected_overload;
  deadline_expired += other.deadline_expired;
  completed += other.completed;
  batches += other.batches;
  batch_groups += other.batch_groups;
  max_batch = std::max(max_batch, other.max_batch);
  queue_depth += other.queue_depth;
  in_flight += other.in_flight;
  brownout_active = brownout_active || other.brownout_active;
  brownout_entries += other.brownout_entries;
  brownout_shed += other.brownout_shed;
  brownout_hits += other.brownout_hits;
  stuck = stuck || other.stuck;
  stalled_ms = std::max(stalled_ms, other.stalled_ms);
  return *this;
}

namespace {

// The retry-after hint a brown-out refusal carries.
constexpr double kBrownoutRetryAfterMs = 50.0;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AnalysisScheduler::AnalysisScheduler(const SchedulerConfig& config)
    : config_(config),
      brownout_enter_(std::max<std::size_t>(1, 3 * config.max_queue / 4)),
      brownout_exit_(config.max_queue / 4),
      cache_(config.cache_capacity),
      pool_(config.threads),
      last_progress_ns_(steady_now_ns()),
      dispatcher_([this] { dispatcher_loop(); }) {}

AnalysisScheduler::~AnalysisScheduler() { stop(); }

core::Status AnalysisScheduler::submit(Request request,
                                       std::function<void(Response)> done) {
  Pending pending;
  pending.deadline = request.deadline_ms > 0.0
                         ? Clock::now() + std::chrono::microseconds(
                               static_cast<std::int64_t>(
                                   request.deadline_ms * 1000.0))
                         : Clock::time_point::max();
  pending.request = std::move(request);
  pending.done = std::move(done);

  // Checked before the brown-out branch so a stopped shard never serves
  // an inline hit; re-checked under the lock before the push.
  if (stopping_.load(std::memory_order_acquire)) {
    stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    return core::Status::overloaded("scheduler stopping");
  }

  // Brown-out state machine, watermarked on in-flight depth. The checks
  // are heuristic (racing submitters may each flip the flag; that's fine,
  // entries are counted via exchange) — correctness only needs: while the
  // flag is set, misses are shed typed and hits are served inline.
  const std::size_t in_flight = in_flight_now();
  bool active = brownout_.load(std::memory_order_relaxed);
  if (active && in_flight <= brownout_exit_) {
    brownout_.store(false, std::memory_order_relaxed);
    active = false;
  } else if (!active && in_flight >= brownout_enter_) {
    if (!brownout_.exchange(true, std::memory_order_relaxed)) {
      stats_.brownout_entries.fetch_add(1, std::memory_order_relaxed);
    }
    active = true;
  }
  if (active) {
    const std::string key = canonical_cache_key(pending.request);
    if (auto value = cache_.lookup(key); value != nullptr) {
      // Hits stay cheap even in brown-out: answer inline, no queueing.
      Response response;
      response.id = pending.request.id;
      response.status = core::Status::ok();
      response.cache = CacheSource::kHit;
      response.result_json = *value;
      stats_.accepted.fetch_add(1, std::memory_order_relaxed);
      stats_.completed.fetch_add(1, std::memory_order_relaxed);
      stats_.brownout_hits.fetch_add(1, std::memory_order_relaxed);
      note_progress();
      pending.done(std::move(response));
      return core::Status::ok();
    }
    stats_.brownout_shed.fetch_add(1, std::memory_order_relaxed);
    return core::Status::brownout(
        "shard in brown-out (" + std::to_string(in_flight) +
        " in flight): shedding cache-miss work, hits still served; "
        "retry after " + format_double(kBrownoutRetryAfterMs) + " ms");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load()) {
      stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      return core::Status::overloaded("scheduler stopping");
    }
    const std::size_t depth = pending_.size();
    if (depth >= config_.max_queue) {
      stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      return core::Status::overloaded(
          "request queue full (" + std::to_string(depth) + "/" +
          std::to_string(config_.max_queue) +
          " pending); retry with backoff");
    }
    pending_.push_back(std::move(pending));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  }
  work_ready_.notify_one();
  return core::Status::ok();
}

void AnalysisScheduler::dispatcher_loop() {
  std::vector<Pending> batch;
  batch.reserve(config_.batch_max);
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load();
      });
      // Exits only on an empty queue after stop(): no push can follow.
      if (pending_.empty()) return;
      do {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      } while (!pending_.empty() && batch.size() < config_.batch_max);
    }
    dispatch_batch(batch);
  }
}

void AnalysisScheduler::dispatch_batch(std::vector<Pending>& batch) {
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  update_max(stats_.max_batch, batch.size());
  // Stable grouping by compatibility key: order within a group is the
  // arrival order, so deadline fairness is preserved per group. Requests
  // already past their deadline are answered here — they never occupy a
  // pool worker.
  std::map<std::string, std::shared_ptr<std::vector<Pending>>> groups;
  for (Pending& pending : batch) {
    if (Clock::now() > pending.deadline) {
      answer_deadline_expired(pending);
      continue;
    }
    auto& group = groups[batch_compatibility_key(pending.request)];
    if (!group) group = std::make_shared<std::vector<Pending>>();
    group->push_back(std::move(pending));
  }
  stats_.batch_groups.fetch_add(groups.size(), std::memory_order_relaxed);
  for (auto& [key, group] : groups) {
    pool_.submit([this, group] { run_group(group); });
  }
}

void AnalysisScheduler::answer_deadline_expired(Pending& pending) {
  Response response;
  response.id = pending.request.id;
  response.status = core::Status::deadline_exceeded(
      "deadline of " + format_double(pending.request.deadline_ms) +
      " ms expired before execution started");
  stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  note_progress();
  pending.done(std::move(response));
}

void AnalysisScheduler::note_progress() {
  last_progress_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

std::size_t AnalysisScheduler::in_flight_now() const {
  const std::uint64_t accepted =
      stats_.accepted.load(std::memory_order_relaxed);
  const std::uint64_t completed =
      stats_.completed.load(std::memory_order_relaxed);
  // Loaded separately, so completed can transiently read AHEAD of the
  // accepted it belongs to; clamp instead of wrapping.
  return accepted > completed ? accepted - completed : 0;
}

void AnalysisScheduler::run_group(std::shared_ptr<std::vector<Pending>> group) {
  for (Pending& pending : *group) {
    // Deadline re-check at worker dequeue: the group may have waited
    // behind other groups (or behind earlier requests in this group) on a
    // busy pool, so dispatch-time policing alone would let an expired
    // request compute and return a late success.
    if (Clock::now() > pending.deadline) {
      answer_deadline_expired(pending);
      continue;
    }
    Response response = execute_timed(pending.request);
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    note_progress();
    pending.done(std::move(response));
  }
}

Response AnalysisScheduler::execute_timed(const Request& request) {
  Response response;
  response.id = request.id;
  const std::string key = canonical_cache_key(request);
  if (key.empty()) {
    response.status = core::Status::invalid_config(
        "request kind is not executable by the scheduler");
    return response;
  }
  const auto start = Clock::now();
  ResultCache::Outcome outcome = cache_.get_or_compute(
      key, [&] { return compute_result(request); });
  response.compute_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  response.cache = outcome.source;
  response.status = outcome.status;
  if (outcome.value) response.result_json = *outcome.value;
  return response;
}

Response AnalysisScheduler::execute(const Request& request) {
  return execute_timed(request);
}

AnalysisScheduler::Stats AnalysisScheduler::stats() const {
  Stats snapshot;
  snapshot.accepted = stats_.accepted.load(std::memory_order_relaxed);
  snapshot.rejected_overload =
      stats_.rejected_overload.load(std::memory_order_relaxed);
  snapshot.deadline_expired =
      stats_.deadline_expired.load(std::memory_order_relaxed);
  snapshot.completed = stats_.completed.load(std::memory_order_relaxed);
  snapshot.batches = stats_.batches.load(std::memory_order_relaxed);
  snapshot.batch_groups = stats_.batch_groups.load(std::memory_order_relaxed);
  snapshot.max_batch = stats_.max_batch.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.queue_depth = pending_.size();
  }
  snapshot.in_flight = in_flight_now();
  snapshot.brownout_active = brownout_.load(std::memory_order_relaxed);
  snapshot.brownout_entries =
      stats_.brownout_entries.load(std::memory_order_relaxed);
  snapshot.brownout_shed =
      stats_.brownout_shed.load(std::memory_order_relaxed);
  snapshot.brownout_hits =
      stats_.brownout_hits.load(std::memory_order_relaxed);
  if (snapshot.in_flight > 0) {
    const std::int64_t idle_ns =
        steady_now_ns() - last_progress_ns_.load(std::memory_order_relaxed);
    snapshot.stalled_ms = static_cast<double>(idle_ns) / 1e6;
    snapshot.stuck = config_.watchdog_stall_ms > 0 &&
                     snapshot.stalled_ms > config_.watchdog_stall_ms;
  }
  return snapshot;
}

void AnalysisScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.exchange(true)) return;
  }
  work_ready_.notify_all();
  dispatcher_.join();
  pool_.wait_idle();
}

}  // namespace rsmem::service

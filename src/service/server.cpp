#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "core/api.h"

namespace rsmem::service {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

core::Status Server::Connection::write_response(const Response& response) {
  const std::string payload = response.to_json();
  std::unique_lock<std::mutex> lock(write_mutex);
  touch();  // outbound traffic keeps a connection out of the idle reaper
  if (chaos) return chaos->write_frame(fd, payload);
  return write_frame(fd, payload);
}

void Server::Connection::touch() {
  last_activity_ns.store(steady_now_ns(), std::memory_order_relaxed);
}

core::Result<std::unique_ptr<Server>> Server::start(
    const ServerConfig& config) {
  core::Result<int> listen_fd = listen_on(config.endpoint, config.backlog);
  if (!listen_fd.ok()) {
    core::Status status = listen_fd.status();
    return status.with_context("rsmem-serve start");
  }
  core::Result<Endpoint> bound =
      bound_endpoint(listen_fd.value(), config.endpoint);
  if (!bound.ok()) {
    ::close(listen_fd.value());
    core::Status status = bound.status();
    return status.with_context("rsmem-serve start");
  }
  // make_unique needs a public constructor; bare new keeps it private.
  std::unique_ptr<Server> server(
      new Server(config, bound.value(), listen_fd.value()));
  return server;
}

Server::Server(ServerConfig config, Endpoint bound, int listen_fd)
    : config_(std::move(config)),
      endpoint_(std::move(bound)),
      listen_fd_(listen_fd),
      router_(std::make_unique<ShardRouter>(config_.router)) {
  if (!config_.snapshot_path.empty()) {
    // Warm start. EVERY failure mode — missing file, torn write, CRC or
    // version mismatch — degrades to a cold start; the outcome is
    // surfaced in `stats`, never fatal.
    core::Result<std::size_t> loaded =
        router_->load_snapshot(config_.snapshot_path);
    if (loaded.ok()) {
      warm_start_entries_ = loaded.value();
    } else if (loaded.status().message().find("no snapshot") ==
               std::string::npos) {
      warm_start_error_ = loaded.status().message();
    }
  }
  if (config_.idle_timeout_ms > 0) {
    reaper_thread_ = std::thread([this] { reaper_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::accept_loop() {
  while (true) {
    join_finished_readers();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (shutdown_requested_.load()) return;  // listener closed on purpose
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Out of descriptors or memory, possibly transiently: back off
        // and retry rather than silently becoming a daemon that looks
        // healthy but never accepts again.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      return;  // EBADF/EINVAL etc.: the listener itself is gone
    }
    if (config_.chaos && config_.chaos->should_fail_accept()) {
      // Injected accept-time failure: the client sees an immediate reset
      // before any frame is exchanged (retry territory, not an error the
      // server can answer).
      chaos::hard_reset(fd);
      ::close(fd);
      continue;
    }
    auto connection = std::make_shared<Connection>(fd);
    if (config_.chaos) connection->chaos = config_.chaos->make_session();
    connection->touch();
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_requested_.load()) {
      lock.unlock();
      // Late arrival during teardown: refuse politely instead of hanging.
      Response refusal;
      refusal.status = core::Status::overloaded("server shutting down");
      (void)connection->write_response(refusal);
      continue;
    }
    connections_.push_back(connection);
    // Registered under the lock BEFORE the reader can run to completion:
    // its self-reap needs this same mutex, so the handle is always in
    // reader_threads_ by the time the reader looks for it.
    reader_threads_.emplace(
        connection.get(),
        std::thread([this, connection] { serve_connection(connection); }));
  }
}

void Server::reaper_loop() {
  const double idle_ms = config_.idle_timeout_ms;
  // Poll a few times per timeout so reaping latency stays proportional,
  // bounded to [10, 250] ms so tiny timeouts don't spin and huge ones
  // still notice shutdown promptly.
  const auto poll = std::chrono::milliseconds(std::clamp<std::int64_t>(
      static_cast<std::int64_t>(idle_ms / 4.0), 10, 250));
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (shutdown_cv_.wait_for(lock, poll,
                              [&] { return shutdown_requested_.load(); })) {
      return;
    }
    const std::int64_t now = steady_now_ns();
    for (const auto& connection : connections_) {
      const std::int64_t last =
          connection->last_activity_ns.load(std::memory_order_relaxed);
      if (static_cast<double>(now - last) * 1e-6 <= idle_ms) continue;
      if (connection->reaped.exchange(true)) continue;  // already poked
      // SHUT_RD, not RDWR: the blocked reader wakes up and exits (which
      // self-reaps the connection and closes the fd), while any response
      // still being flushed by a worker goes out intact.
      ::shutdown(connection->fd, SHUT_RD);
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Server::join_finished_readers() {
  std::vector<std::thread> finished;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    finished.swap(finished_readers_);
  }
  for (std::thread& reader : finished) {
    if (reader.joinable()) reader.join();
  }
}

void Server::serve_connection(std::shared_ptr<Connection> connection) {
  read_requests(connection);
  // Self-reap: drop the connection's entry so its fd closes as soon as
  // in-flight scheduler callbacks release their references, and park the
  // thread handle for the accept loop (or shutdown) to join. During
  // shutdown the handle may already be gone — shutdown() owns it then.
  std::unique_lock<std::mutex> lock(mutex_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), connection),
      connections_.end());
  const auto it = reader_threads_.find(connection.get());
  if (it != reader_threads_.end()) {
    finished_readers_.push_back(std::move(it->second));
    reader_threads_.erase(it);
  }
}

void Server::read_requests(const std::shared_ptr<Connection>& connection) {
  // Per-connection frame-rate token bucket (burst = one second's worth,
  // never below one frame). Purely local state: each connection meters
  // itself, so one abusive client cannot consume another's budget.
  const double rate = config_.max_frames_per_second;
  const double burst = rate > 0 ? std::max(1.0, rate) : 0.0;
  double tokens = burst;
  std::int64_t last_refill = steady_now_ns();
  while (true) {
    core::Result<FrameRead> frame =
        connection->chaos
            ? connection->chaos->read_frame(connection->fd,
                                            config_.max_frame_bytes)
            : read_frame(connection->fd, config_.max_frame_bytes);
    if (!frame.ok()) {
      if (frame.status().code() == core::StatusCode::kInvalidConfig) {
        // Oversized frame announcement, rejected before allocation. The
        // client gets the typed reason, then the connection closes — the
        // stream cannot resync past a body we refused to read.
        oversized_frames_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.status = frame.status();
        (void)connection->write_response(response);
      }
      return;  // framing broken or socket torn down
    }
    if (frame.value().eof) return;
    connection->touch();
    core::Result<Request> request = Request::from_json(frame.value().payload);
    if (!request.ok()) {
      // Malformed but well-framed: answer with the typed status and keep
      // the connection (the stream is still in sync).
      Response response;
      core::Status status = request.status();
      response.status = status.with_context("parse request");
      if (!connection->write_response(response).is_ok()) return;
      continue;
    }
    if (rate > 0) {
      const std::int64_t now = steady_now_ns();
      tokens = std::min(
          burst, tokens + static_cast<double>(now - last_refill) * 1e-9 * rate);
      last_refill = now;
      if (tokens < 1.0) {
        // Over budget: typed rejection echoing the request id (so a
        // pipelining client can match it), frame discarded, stream still
        // in sync — the connection survives.
        rate_limited_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.id = request.value().id;
        response.status = core::Status::overloaded(
            "per-connection frame rate limit exceeded (max " +
            format_double(rate) + " frames/s); retry with backoff");
        if (!connection->write_response(response).is_ok()) return;
        continue;
      }
      tokens -= 1.0;
    }
    handle_request(connection, std::move(request).value());
  }
}

void Server::handle_request(const std::shared_ptr<Connection>& connection,
                            Request request) {
  Response response;
  response.id = request.id;
  switch (request.kind) {
    case RequestKind::kPing: {
      JsonObject object;
      object.emplace("version", rsmem::version());
      response.status = core::Status::ok();
      response.result_json = Json(std::move(object)).serialize();
      (void)connection->write_response(response);
      return;
    }
    case RequestKind::kStats: {
      response.status = core::Status::ok();
      response.result_json = stats_result_json();
      (void)connection->write_response(response);
      return;
    }
    case RequestKind::kShutdown: {
      response.status = core::Status::ok();
      (void)connection->write_response(response);
      shutdown_requested_.store(true);
      shutdown_cv_.notify_all();
      return;
    }
    case RequestKind::kBer:
    case RequestKind::kMttf:
    case RequestKind::kSweep:
      break;
  }
  core::Status admitted = router_->submit(
      std::move(request), [connection](Response completed) {
        // Write failures mean the client went away; the result stays in
        // the cache for the next asker, nothing else to do.
        (void)connection->write_response(completed);
      });
  if (!admitted.is_ok()) {
    response.status = admitted;  // typed kOverloaded rejection
    (void)connection->write_response(response);
  }
}

namespace {

JsonObject scheduler_stats_json(const AnalysisScheduler::Stats& scheduler) {
  JsonObject scheduler_json;
  scheduler_json.emplace("accepted", scheduler.accepted);
  scheduler_json.emplace("rejected_overload", scheduler.rejected_overload);
  scheduler_json.emplace("deadline_expired", scheduler.deadline_expired);
  scheduler_json.emplace("completed", scheduler.completed);
  scheduler_json.emplace("batches", scheduler.batches);
  scheduler_json.emplace("batch_groups", scheduler.batch_groups);
  scheduler_json.emplace("max_batch", scheduler.max_batch);
  scheduler_json.emplace("queue_depth",
                         static_cast<std::uint64_t>(scheduler.queue_depth));
  scheduler_json.emplace("in_flight",
                         static_cast<std::uint64_t>(scheduler.in_flight));
  scheduler_json.emplace("brownout_active", scheduler.brownout_active);
  scheduler_json.emplace("brownout_entries", scheduler.brownout_entries);
  scheduler_json.emplace("brownout_shed", scheduler.brownout_shed);
  scheduler_json.emplace("brownout_hits", scheduler.brownout_hits);
  scheduler_json.emplace("stuck", scheduler.stuck);
  scheduler_json.emplace("stalled_ms", scheduler.stalled_ms);
  return scheduler_json;
}

JsonObject cache_stats_json(const ResultCache::Stats& cache) {
  JsonObject cache_json;
  cache_json.emplace("hits", cache.hits);
  cache_json.emplace("misses", cache.misses);
  cache_json.emplace("waits", cache.waits);
  cache_json.emplace("evictions", cache.evictions);
  cache_json.emplace("failures", cache.failures);
  cache_json.emplace("warm_loads", cache.warm_loads);
  cache_json.emplace("size", static_cast<std::uint64_t>(cache.size));
  cache_json.emplace("hit_rate", cache.hit_rate());
  return cache_json;
}

}  // namespace

std::string Server::stats_result_json() const {
  const ShardRouter::Stats stats = router_->stats();
  // Top-level `scheduler`/`cache` stay the merged totals (pre-sharding
  // schema); the `shards` array carries the per-shard breakdown.
  JsonObject object;
  object.emplace("scheduler", scheduler_stats_json(stats.scheduler));
  object.emplace("cache", cache_stats_json(stats.cache));
  object.emplace("shard_count",
                 static_cast<std::uint64_t>(router_->shard_count()));
  object.emplace("rejected_global", stats.rejected_global);
  object.emplace("global_pending",
                 static_cast<std::uint64_t>(stats.global_pending));
  JsonArray shards;
  shards.reserve(stats.shard_scheduler.size());
  for (std::size_t i = 0; i < stats.shard_scheduler.size(); ++i) {
    JsonObject shard;
    shard.emplace("scheduler", scheduler_stats_json(stats.shard_scheduler[i]));
    shard.emplace("cache", cache_stats_json(stats.shard_cache[i]));
    shards.push_back(Json(std::move(shard)));
  }
  object.emplace("shards", Json(std::move(shards)));
  // Transport-hardening telemetry.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    object.emplace("connections_open",
                   static_cast<std::uint64_t>(connections_.size()));
  }
  object.emplace("idle_reaped", idle_reaped_.load(std::memory_order_relaxed));
  object.emplace("rate_limited",
                 rate_limited_.load(std::memory_order_relaxed));
  object.emplace("oversized_frames",
                 oversized_frames_.load(std::memory_order_relaxed));
  object.emplace("warm_start_entries",
                 static_cast<std::uint64_t>(warm_start_entries_));
  object.emplace("warm_start_error", warm_start_error_);
  if (config_.chaos) {
    object.emplace("chaos_faults_injected", config_.chaos->counters().total());
  }
  object.emplace("version", rsmem::version());
  return Json(std::move(object)).serialize();
}

bool Server::wait_for_shutdown(std::chrono::milliseconds poll) {
  std::unique_lock<std::mutex> lock(mutex_);
  return shutdown_cv_.wait_for(lock, poll,
                               [&] { return shutdown_requested_.load(); });
}

void Server::shutdown() {
  if (stopped_.exchange(true)) return;
  shutdown_requested_.store(true);
  shutdown_cv_.notify_all();

  // 1. Stop accepting: closing the listener unblocks ::accept. The idle
  //    reaper wakes on the cv and exits on the same flag.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();

  // 2. Stop reading: half-close every connection so reader threads see
  //    EOF, while the write sides stay open for in-flight responses.
  //    Taking the handles out of reader_threads_ here means readers that
  //    exit concurrently skip their self-reap; every handle is joined
  //    exactly once, either below or via finished_readers_.
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> readers;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    connections = connections_;
    readers.reserve(reader_threads_.size() + finished_readers_.size());
    for (auto& [unused, reader] : reader_threads_) {
      readers.push_back(std::move(reader));
    }
    reader_threads_.clear();
    for (std::thread& reader : finished_readers_) {
      readers.push_back(std::move(reader));
    }
    finished_readers_.clear();
  }
  for (const auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RD);
  }
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }

  // 3. Drain: every admitted request completes and flushes its response.
  router_->stop();

  // 3b. Persist the drained caches. Post-drain means the snapshot holds
  //     every completed result; write failures leave any previous
  //     snapshot intact (tmp + atomic rename) and the next boot simply
  //     cold-starts.
  if (!config_.snapshot_path.empty()) {
    (void)router_->save_snapshot(config_.snapshot_path);
  }

  // 4. Release the sockets (fds close when the last shared_ptr drops) and
  //    remove a Unix socket file we created.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    connections_.clear();
  }
  connections.clear();
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

}  // namespace rsmem::service

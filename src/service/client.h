// Client library for rsmem-serve.
//
// A Client owns one connected socket and offers two surfaces:
//   * synchronous call(): write one request frame, read frames until the
//     response with the matching id arrives. Single-threaded by design —
//     run one per worker (closed-loop loadgen does exactly that).
//   * pipelined send()/receive(): send() writes a frame and returns its id
//     without waiting; receive() blocks for the NEXT response frame,
//     whatever its id. The supported concurrency is exactly one sender
//     thread plus one receiver thread on the same Client (the open-loop
//     loadgen's shape); the two directions of the socket are independent,
//     but neither method may be called from two threads at once, and
//     call() must not be mixed with in-flight send()s.
//
// On top of Client sits ResilientClient: retry with capped exponential
// backoff + decorrelated jitter, a deadline BUDGET shared across attempts
// (a retry never runs past the caller's deadline), idempotency-keyed
// retries (the request keeps one id across attempts — safe because
// responses are deterministic and cache-keyed), and optional hedged
// second attempts for tail latency. Every terminal outcome is a typed
// Status; nothing is ever silently dropped.
#ifndef RSMEM_SERVICE_CLIENT_H
#define RSMEM_SERVICE_CLIENT_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "service/chaos.h"
#include "service/endpoint.h"
#include "service/protocol.h"
#include "sim/rng.h"

namespace rsmem::service {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(Client&& other) noexcept
      : fd_(other.fd_),
        next_id_(other.next_id_),
        chaos_engine_(std::move(other.chaos_engine_)),
        chaos_(std::move(other.chaos_)) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // An optional chaos engine wraps this connection's socket I/O in a
  // deterministic fault-injection session (service/chaos.h); null = clean
  // transport, zero cost.
  static core::Result<Client> connect(
      const Endpoint& endpoint,
      std::shared_ptr<chaos::ChaosEngine> chaos_engine = nullptr);

  bool connected() const { return fd_ >= 0; }
  void close();

  // Aborts any blocked read/write on this socket from ANOTHER thread
  // without closing the fd (plain close() does not reliably unblock a
  // blocked read; shutdown() does). The owner still calls close().
  // Used to cancel the losing lane of a hedged request.
  void cancel();

  // Arms SO_RCVTIMEO: every subsequent blocking read fails typed
  // ("socket read timed out") instead of hanging if the peer goes quiet.
  // The chaos campaign uses this as its hang detector. timeout_ms <= 0
  // disarms.
  core::Status set_receive_timeout(double timeout_ms);

  // Sends the request (assigning a fresh id when request.id == 0) and
  // blocks for its response. Transport failures come back as kInternal;
  // application failures arrive as the Response's own status. When the
  // write fails because the server answered early and closed (a typed
  // rejection of an oversized frame), that answer is returned and this
  // connection is closed.
  core::Result<Response> call(Request request);

  // Pipelined surface (one sender thread + one receiver thread):
  // send() writes the frame and returns the id it was assigned without
  // waiting for the response; receive() blocks for the next response
  // frame regardless of id (the caller matches ids itself — a sharded
  // server completes pipelined requests out of order).
  core::Result<std::uint64_t> send(Request request);
  core::Result<Response> receive();

 private:
  explicit Client(int fd) : fd_(fd) {}

  core::Status write_one(std::string_view payload);
  core::Result<FrameRead> read_one();

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::shared_ptr<chaos::ChaosEngine> chaos_engine_;  // keeps sessions valid
  std::unique_ptr<chaos::ChaosSession> chaos_;
};

// ---------------------------------------------------------------------------
// Retry / hedging layer.

struct RetryPolicy {
  unsigned max_attempts = 4;
  // Decorrelated-jitter backoff: sleep_k = min(max_backoff_ms,
  // uniform(base_backoff_ms, sleep_{k-1} * backoff_multiplier)). The
  // sequence is deterministic for a fixed seed.
  double base_backoff_ms = 5.0;
  double max_backoff_ms = 500.0;
  double backoff_multiplier = 3.0;
  // Wall-clock budget shared by ALL attempts of one call (backoff sleeps
  // included). 0 falls back to the request's own deadline_ms; both 0 =
  // unbounded. A call that would sleep past the budget stops immediately
  // with kDeadlineExceeded — it never retries past the caller's deadline.
  double budget_ms = 0.0;
  // > 0 enables hedging on the first attempt: if no response lands within
  // hedge_after_ms, a second connection races the same request and the
  // loser is cancelled.
  double hedge_after_ms = 0.0;
  std::uint64_t seed = 1;
};

// The deterministic backoff schedule (exposed for tests: same policy +
// seed => same sleep sequence).
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy);
  double next_ms();

 private:
  RetryPolicy policy_;
  sim::Rng rng_;
  double previous_ms_;
};

// Which failures are worth another attempt: transport breakage
// (kInternal), saturation (kOverloaded), and brown-out shedding
// (kBrownout — the server explicitly asked us to come back). Semantic
// failures (kInvalidConfig, solver statuses, ...) are final.
bool status_is_retryable(const core::Status& status);

class ResilientClient {
 public:
  struct Counters {
    std::uint64_t attempts = 0;        // connection attempts incl. retries
    std::uint64_t retries = 0;         // backoff sleeps taken
    std::uint64_t reconnects = 0;      // fresh connections after a break
    std::uint64_t hedges = 0;          // hedge lanes launched
    std::uint64_t hedge_wins = 0;      // hedge lane beat the primary
    std::uint64_t budget_exhausted = 0;
  };

  ResilientClient(Endpoint endpoint, RetryPolicy policy,
                  std::shared_ptr<chaos::ChaosEngine> chaos_engine = nullptr);

  // Single-threaded like Client::call. Reuses one connection across calls
  // while it stays healthy; reconnects (counted) after transport errors.
  core::Result<Response> call(Request request);

  // Applied to every connection this client opens (hang detector).
  void set_receive_timeout(double timeout_ms) {
    receive_timeout_ms_ = timeout_ms;
  }

  const Counters& counters() const { return counters_; }

 private:
  core::Result<Response> plain_attempt(const Request& request);
  core::Result<Response> hedged_attempt(const Request& request);
  core::Result<Client> open_connection();

  Endpoint endpoint_;
  RetryPolicy policy_;
  std::shared_ptr<chaos::ChaosEngine> chaos_engine_;
  std::optional<Client> primary_;
  bool ever_connected_ = false;
  double receive_timeout_ms_ = 0.0;
  std::uint64_t next_id_ = 1;
  Counters counters_;
};

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_CLIENT_H

#include "service/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace rsmem::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string format_ms(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", ms);
  return buffer;
}

}  // namespace

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    next_id_ = other.next_id_;
    chaos_engine_ = std::move(other.chaos_engine_);
    chaos_ = std::move(other.chaos_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::cancel() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

core::Status Client::set_receive_timeout(double timeout_ms) {
  if (fd_ < 0) return core::Status::internal("client is not connected");
  if (timeout_ms < 0) timeout_ms = 0;  // 0 disarms
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      std::fmod(timeout_ms, 1000.0) * 1000.0);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return core::Status::internal("setsockopt(SO_RCVTIMEO) failed");
  }
  return core::Status::ok();
}

core::Result<Client> Client::connect(
    const Endpoint& endpoint,
    std::shared_ptr<chaos::ChaosEngine> chaos_engine) {
  core::Result<int> fd = connect_to(endpoint);
  if (!fd.ok()) {
    core::Status status = fd.status();
    return status.with_context("client connect");
  }
  Client client(fd.value());
  if (chaos_engine != nullptr) {
    client.chaos_ = chaos_engine->make_session();
    client.chaos_engine_ = std::move(chaos_engine);
  }
  return client;
}

core::Status Client::write_one(std::string_view payload) {
  return chaos_ ? chaos_->write_frame(fd_, payload)
                : write_frame(fd_, payload);
}

core::Result<FrameRead> Client::read_one() {
  return chaos_ ? chaos_->read_frame(fd_, kMaxFrameBytes)
                : read_frame(fd_);
}

core::Result<std::uint64_t> Client::send(Request request) {
  if (fd_ < 0) {
    return core::Status::internal("client is not connected");
  }
  if (request.id == 0) request.id = next_id_++;
  core::Status wrote = write_one(request.to_json());
  if (!wrote.is_ok()) return wrote.with_context("client send");
  return request.id;
}

core::Result<Response> Client::receive() {
  if (fd_ < 0) {
    return core::Status::internal("client is not connected");
  }
  core::Result<FrameRead> frame = read_one();
  if (!frame.ok()) {
    core::Status status = frame.status();
    return status.with_context("client receive");
  }
  if (frame.value().eof) {
    return core::Status::internal(
        "server closed the connection before responding");
  }
  core::Result<Response> response = Response::from_json(frame.value().payload);
  if (!response.ok()) {
    core::Status status = response.status();
    return status.with_context("client receive");
  }
  return response;
}

core::Result<Response> Client::call(Request request) {
  if (fd_ < 0) {
    return core::Status::internal("client is not connected");
  }
  if (request.id == 0) request.id = next_id_++;
  core::Status wrote = write_one(request.to_json());
  if (!wrote.is_ok()) {
    // The server may have answered before reading the whole request and
    // closed (a typed InvalidConfig for an oversized frame): the write then
    // fails with a broken pipe while the answer sits unread. Read once, and
    // only if the socket is readable now. A peer that answered and closed
    // has left its answer (or EOF) in the receive buffer; a write that
    // failed before sending a byte (a payload over kMaxFrameBytes) has
    // nothing to wait for, and a read would block. A whole frame answering
    // this call is that answer, and the stream is done. The read bypasses
    // the chaos session: its injected write faults have already shut the
    // socket down, so this read sees EOF and the session's fault stream is
    // not consumed.
    pollfd readable{fd_, POLLIN, 0};
    if (::poll(&readable, 1, 0) == 1) {
      core::Result<FrameRead> frame = read_frame(fd_);
      if (frame.ok() && !frame.value().eof) {
        core::Result<Response> response =
            Response::from_json(frame.value().payload);
        if (response.ok() && (response.value().id == request.id ||
                              response.value().id == 0)) {
          close();
          return response;
        }
      }
    }
    return wrote.with_context("client call");
  }
  // Skip frames for other ids (stale pipelined completions after an
  // earlier caller gave up); bounded so a confused peer cannot wedge us.
  for (int skipped = 0; skipped < 1024; ++skipped) {
    core::Result<FrameRead> frame = read_one();
    if (!frame.ok()) {
      core::Status status = frame.status();
      return status.with_context("client call");
    }
    if (frame.value().eof) {
      return core::Status::internal(
          "server closed the connection before responding");
    }
    core::Result<Response> response =
        Response::from_json(frame.value().payload);
    if (!response.ok()) {
      core::Status status = response.status();
      return status.with_context("client call");
    }
    if (response.value().id == request.id || response.value().id == 0) {
      return response;
    }
  }
  return core::Status::internal("no response for request id " +
                                std::to_string(request.id) +
                                " within 1024 frames");
}

// ---------------------------------------------------------------------------
// Retry / hedging layer.

Backoff::Backoff(const RetryPolicy& policy)
    : policy_(policy),
      rng_(sim::Rng(policy.seed).split(0xB0FF)),
      previous_ms_(std::max(0.0, policy.base_backoff_ms)) {}

double Backoff::next_ms() {
  const double base = std::max(0.0, policy_.base_backoff_ms);
  const double high =
      std::max(base, previous_ms_ * std::max(1.0, policy_.backoff_multiplier));
  double next = base + (high - base) * rng_.uniform();
  if (policy_.max_backoff_ms > 0) next = std::min(next, policy_.max_backoff_ms);
  previous_ms_ = next;
  return next;
}

bool status_is_retryable(const core::Status& status) {
  switch (status.code()) {
    case core::StatusCode::kInternal:    // transport breakage
    case core::StatusCode::kOverloaded:  // queue full; back off and retry
    case core::StatusCode::kBrownout:    // shedding; server said "come back"
      return true;
    default:
      return false;
  }
}

ResilientClient::ResilientClient(
    Endpoint endpoint, RetryPolicy policy,
    std::shared_ptr<chaos::ChaosEngine> chaos_engine)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      chaos_engine_(std::move(chaos_engine)) {}

core::Result<Client> ResilientClient::open_connection() {
  core::Result<Client> connected = Client::connect(endpoint_, chaos_engine_);
  if (!connected.ok()) return connected;
  if (receive_timeout_ms_ > 0) {
    const core::Status armed =
        connected.value().set_receive_timeout(receive_timeout_ms_);
    if (!armed.is_ok()) return armed;
  }
  if (ever_connected_) ++counters_.reconnects;
  ever_connected_ = true;
  return connected;
}

core::Result<Response> ResilientClient::plain_attempt(const Request& request) {
  if (!primary_.has_value() || !primary_->connected()) {
    core::Result<Client> connected = open_connection();
    if (!connected.ok()) {
      primary_.reset();
      return connected.status();
    }
    primary_ = std::move(connected).value();
  }
  core::Result<Response> result = primary_->call(request);
  // A failed exchange poisons the stream (a late response frame for this
  // id could otherwise be mis-matched to the NEXT call); reconnect.
  if (!result.ok()) primary_.reset();
  return result;
}

core::Result<Response> ResilientClient::hedged_attempt(
    const Request& request) {
  // Two lanes race the same idempotent request on separate connections;
  // the first to produce any result wins and the loser is cancelled via
  // Client::cancel() (shutdown(2) reliably unblocks its pending read).
  struct Lane {
    std::optional<Client> client;
    std::optional<core::Result<Response>> result;
    bool cancelled = false;
    std::thread thread;
  };
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    Lane lanes[2];
  };
  auto shared = std::make_shared<Shared>();

  // Lane threads run concurrently, so they must not touch counters_ or
  // ever_connected_ — they connect through this race-free helper instead
  // of open_connection().
  const auto connect_lane = [this]() -> core::Result<Client> {
    core::Result<Client> connected = Client::connect(endpoint_, chaos_engine_);
    if (!connected.ok()) return connected;
    if (receive_timeout_ms_ > 0) {
      const core::Status armed =
          connected.value().set_receive_timeout(receive_timeout_ms_);
      if (!armed.is_ok()) return armed;
    }
    return connected;
  };

  const auto launch = [this, shared, &request, &connect_lane](int index) {
    shared->lanes[index].thread =
        std::thread([shared, request, index, connect_lane] {
      Lane& lane = shared->lanes[index];
      core::Result<Client> connected = connect_lane();
      if (!connected.ok()) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        lane.result = connected.status();
        shared->cv.notify_all();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(shared->mutex);
        if (lane.cancelled) {
          lane.result = core::Status::internal("hedge lane cancelled");
          shared->cv.notify_all();
          return;
        }
        lane.client = std::move(connected).value();
      }
      core::Result<Response> result = lane.client->call(request);
      std::lock_guard<std::mutex> lock(shared->mutex);
      lane.result = std::move(result);
      shared->cv.notify_all();
    });
  };

  const auto deadline =
      Clock::now() + std::chrono::duration<double, std::milli>(
                         std::max(0.1, policy_.hedge_after_ms));
  launch(0);
  int winner = -1;
  {
    std::unique_lock<std::mutex> lock(shared->mutex);
    if (shared->cv.wait_until(lock, deadline, [&] {
          return shared->lanes[0].result.has_value();
        })) {
      winner = 0;
    }
  }
  if (winner < 0) {
    // Primary lane is slow: hedge.
    ++counters_.hedges;
    launch(1);
    std::unique_lock<std::mutex> lock(shared->mutex);
    // A lane that fails (connect refused, peer reset) must not preempt the
    // other lane's still-possible success: settle early only on an OK
    // result, otherwise wait until both lanes have reported.
    const auto lane_ok = [&](int index) {
      const std::optional<core::Result<Response>>& result =
          shared->lanes[index].result;
      return result.has_value() && result->ok();
    };
    shared->cv.wait(lock, [&] {
      return lane_ok(0) || lane_ok(1) ||
             (shared->lanes[0].result.has_value() &&
              shared->lanes[1].result.has_value());
    });
    winner = lane_ok(0) ? 0 : (lane_ok(1) ? 1 : 0);
    if (winner == 1) ++counters_.hedge_wins;
    // Cancel the loser so its blocked read unwinds; the thread records a
    // typed result and exits.
    Lane& loser = shared->lanes[1 - winner];
    loser.cancelled = true;
    if (loser.client.has_value()) loser.client->cancel();
  }
  for (Lane& lane : shared->lanes) {
    if (lane.thread.joinable()) lane.thread.join();
  }
  return std::move(*shared->lanes[winner].result);
}

core::Result<Response> ResilientClient::call(Request request) {
  // One id across every attempt: the idempotency key. Responses are
  // deterministic and cache-keyed, so re-submitting the same id is safe.
  if (request.id == 0) request.id = next_id_++;
  const auto start = Clock::now();
  const double budget =
      policy_.budget_ms > 0 ? policy_.budget_ms : request.deadline_ms;
  const unsigned max_attempts = std::max(1u, policy_.max_attempts);
  Backoff backoff(policy_);
  core::Status last = core::Status::ok();
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    ++counters_.attempts;
    core::Result<Response> result =
        (attempt == 1 && policy_.hedge_after_ms > 0) ? hedged_attempt(request)
                                                     : plain_attempt(request);
    if (result.ok()) {
      const core::StatusCode code = result.value().status.code();
      if (code != core::StatusCode::kOverloaded &&
          code != core::StatusCode::kBrownout) {
        return result;  // the server's (possibly typed-failure) answer
      }
      last = result.value().status;  // server asked us to back off
    } else {
      last = result.status();
      if (!status_is_retryable(last)) return last;
    }
    if (attempt == max_attempts) break;
    const double delay = backoff.next_ms();
    const double spent = ms_since(start);
    if (budget > 0 && spent + delay >= budget) {
      ++counters_.budget_exhausted;
      return core::Status::deadline_exceeded(
          "retry budget exhausted after " + std::to_string(attempt) +
          " attempt(s) (" + format_ms(spent) + " of " + format_ms(budget) +
          " ms); last error: " + last.to_string());
    }
    ++counters_.retries;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay));
  }
  return core::Status::retry_exhausted(
      "gave up after " + std::to_string(max_attempts) +
      " attempt(s); last error: " + last.to_string());
}

}  // namespace rsmem::service

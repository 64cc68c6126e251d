// Resilience battery for chaos-hardened rsmem-serve (ctest label `chaos`;
// tools/run_sanitizers.sh runs it under ASan and TSan):
//   * RetryPolicy/Backoff: deterministic decorrelated-jitter schedules,
//     typed retry exhaustion, deadline-budget enforcement;
//   * hedged attempts: the hedge lane wins when the primary goes silent,
//     and the losing lane is cancelled, not leaked;
//   * chaos shim end-to-end: accept failures are retried to success;
//   * brown-out: misses shed with a typed kBrownout + retry-after hint
//     while cache hits are served inline and the watchdog reports stalls;
//   * server hardening: per-connection frame-rate limits, max-frame
//     rejection, and the idle reaper — each typed, never a silent drop;
//   * crash-safe warm start: snapshot -> restart -> byte-identical hits;
//     corrupt snapshot -> cold start, never a crash;
//   * the chaos campaign itself: passes, and its report is deterministic
//     for a fixed seed.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/chaos.h"
#include "service/chaos_campaign.h"
#include "service/client.h"
#include "service/endpoint.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace rsmem::service {
namespace {

Endpoint chaos_test_endpoint(const char* tag) {
  return Endpoint::unix_socket("/tmp/rsmem-chaos-test-" + std::string(tag) +
                               "-" + std::to_string(::getpid()) + ".sock");
}

// Removes a socket file at scope exit, so a failed ASSERT that returns
// early still leaves nothing behind in /tmp.
class UnlinkAtExit {
 public:
  explicit UnlinkAtExit(std::string path) : path_(std::move(path)) {}
  UnlinkAtExit(const UnlinkAtExit&) = delete;
  UnlinkAtExit& operator=(const UnlinkAtExit&) = delete;
  ~UnlinkAtExit() { ::unlink(path_.c_str()); }

 private:
  std::string path_;
};

Request ping_request() {
  Request request;
  request.kind = RequestKind::kPing;
  return request;
}

// A deliberately expensive analysis request: 16 transient points of the
// paper's duplex RS(18,16) system. `variant` varies the time grid so each
// variant is a distinct cache key.
Request heavy_request(unsigned variant) {
  Request request;
  request.kind = RequestKind::kBer;
  request.spec.arrangement = analysis::Arrangement::kDuplex;
  request.spec.code = {18, 16, 8, 1};
  request.spec.seu_rate_per_bit_day = 1e-2;
  request.spec.scrub_period_seconds = 3600.0;
  for (int point = 0; point < 16; ++point) {
    request.times_hours.push_back(6.0 * point + variant);
  }
  return request;
}

RetryPolicy fast_retry_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 0.2;
  policy.max_backoff_ms = 2.0;
  policy.seed = seed;
  return policy;
}

core::Result<Json> server_stats(const Endpoint& endpoint) {
  auto connected = Client::connect(endpoint);
  if (!connected.ok()) return connected.status();
  (void)connected.value().set_receive_timeout(5000);
  Request request;
  request.kind = RequestKind::kStats;
  auto called = connected.value().call(request);
  if (!called.ok()) return called.status();
  if (!called.value().status.is_ok()) return called.value().status;
  return Json::parse(called.value().result_json);
}

// ---------------------------------------------------------------------------
// RetryPolicy / Backoff.

TEST(RetryBackoff, SameSeedReplaysSameSchedule) {
  RetryPolicy policy;
  policy.base_backoff_ms = 5.0;
  policy.max_backoff_ms = 100.0;
  policy.backoff_multiplier = 3.0;
  policy.seed = 42;
  Backoff first(policy);
  Backoff second(policy);
  bool saw_variation = false;
  double previous = -1.0;
  for (int draw = 0; draw < 32; ++draw) {
    const double a = first.next_ms();
    const double b = second.next_ms();
    EXPECT_EQ(a, b) << "draw " << draw;  // exact: same stream, same draw
    EXPECT_GE(a, policy.base_backoff_ms);
    EXPECT_LE(a, policy.max_backoff_ms);
    if (previous >= 0.0 && a != previous) saw_variation = true;
    previous = a;
  }
  // Jitter must actually jitter — a constant schedule synchronizes
  // retrying clients into thundering herds.
  EXPECT_TRUE(saw_variation);

  RetryPolicy reseeded = policy;
  reseeded.seed = 43;
  Backoff other(reseeded);
  Backoff replay(policy);
  bool differs = false;
  for (int draw = 0; draw < 8 && !differs; ++draw) {
    differs = other.next_ms() != replay.next_ms();
  }
  EXPECT_TRUE(differs) << "seed is not feeding the jitter stream";
}

TEST(RetryBackoff, RetryableClassification) {
  EXPECT_TRUE(status_is_retryable(core::Status::internal("broken pipe")));
  EXPECT_TRUE(status_is_retryable(core::Status::overloaded("queue full")));
  EXPECT_TRUE(status_is_retryable(core::Status::brownout("come back")));
  EXPECT_FALSE(status_is_retryable(core::Status::ok()));
  EXPECT_FALSE(status_is_retryable(core::Status::invalid_config("bad n")));
  EXPECT_FALSE(
      status_is_retryable(core::Status::deadline_exceeded("too late")));
  EXPECT_FALSE(status_is_retryable(core::Status::retry_exhausted("gave up")));
}

TEST(ResilientClientRetry, DeadEndpointExhaustsTypedNotSilently) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.1;
  policy.max_backoff_ms = 0.3;
  ResilientClient client(
      Endpoint::unix_socket("/tmp/rsmem-chaos-test-no-such-daemon.sock"),
      policy);
  const auto result = client.call(ping_request());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kRetryExhausted);
  // The terminal status names the attempt count and carries the last
  // underlying error — enough to act on without log spelunking.
  EXPECT_NE(result.status().message().find("3 attempt"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(client.counters().attempts, 3u);
  EXPECT_EQ(client.counters().retries, 2u);
}

TEST(ResilientClientRetry, BudgetStopsRetriesWithDeadlineExceeded) {
  RetryPolicy policy;
  policy.max_attempts = 100;           // budget, not attempts, must stop it
  policy.base_backoff_ms = 30.0;
  policy.max_backoff_ms = 50.0;
  policy.budget_ms = 25.0;             // first backoff sleep would overrun
  ResilientClient client(
      Endpoint::unix_socket("/tmp/rsmem-chaos-test-no-such-daemon.sock"),
      policy);
  const auto start = std::chrono::steady_clock::now();
  const auto result = client.call(ping_request());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_GE(client.counters().budget_exhausted, 1u);
  // It stopped BEFORE sleeping past the budget, not after.
  EXPECT_LT(elapsed_ms, 1000.0);
}

// ---------------------------------------------------------------------------
// Chaos shim end-to-end: injected accept failures are survived by retry.

TEST(ChaosTransport, AcceptFailuresAreRetriedToSuccess) {
  chaos::ChaosPolicy faulty;
  faulty.seed = 2005;
  faulty.accept_fail = 0.5;
  auto engine = std::make_shared<chaos::ChaosEngine>(faulty);
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("accept");
  config.router.shards = 1;
  config.chaos = engine;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();

  ResilientClient client(started.value()->endpoint(), fast_retry_policy(1));
  client.set_receive_timeout(5000);
  for (int call = 0; call < 8; ++call) {
    const auto result = client.call(ping_request());
    ASSERT_TRUE(result.ok()) << call << ": " << result.status().to_string();
    EXPECT_TRUE(result.value().status.is_ok());
  }
  // The shim actually fired — these pings survived real resets.
  EXPECT_GE(engine->counters().accept_failures, 1u);
  EXPECT_GE(client.counters().reconnects, 1u);
}

// ---------------------------------------------------------------------------
// Hedging: a silent primary is beaten by the hedge lane; the loser is
// cancelled (its blocked read unwinds) instead of leaking.

TEST(ResilientClientHedging, HedgeLaneWinsWhenPrimaryIsSilent) {
  const Endpoint endpoint = chaos_test_endpoint("hedge");
  // Runs after the ::close(listen_fd) below: nothing else removes the path.
  const UnlinkAtExit unlink_socket{endpoint.path};
  auto listening = listen_on(endpoint, 4);
  ASSERT_TRUE(listening.ok()) << listening.status().to_string();
  const int listen_fd = listening.value();

  // A hand-rolled server that starves the FIRST connection (accepts it,
  // never answers) and serves the SECOND — the deterministic worst case
  // hedging exists for.
  std::thread server([listen_fd] {
    const int starved = ::accept(listen_fd, nullptr, nullptr);
    const int served = ::accept(listen_fd, nullptr, nullptr);
    if (served >= 0) {
      const auto frame = read_frame(served);
      if (frame.ok() && !frame.value().eof) {
        const auto request = Request::from_json(frame.value().payload);
        Response response;
        response.id = request.ok() ? request.value().id : 0;
        response.status = core::Status::ok();
        (void)write_frame(served, response.to_json());
      }
      ::close(served);
    }
    if (starved >= 0) ::close(starved);
  });

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.hedge_after_ms = 20.0;
  ResilientClient client(endpoint, policy);
  client.set_receive_timeout(5000);
  const auto result = client.call(ping_request());
  server.join();
  ::close(listen_fd);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().status.is_ok());
  EXPECT_EQ(client.counters().hedges, 1u);
  EXPECT_EQ(client.counters().hedge_wins, 1u);
}

// ---------------------------------------------------------------------------
// Brown-out + watchdog (scheduler level).

// Holds a one-worker scheduler's worker inside the first request callback
// that runs, until release(). The worker counts a request completed and
// notes progress before it calls the callback, so while it is held nothing
// more completes: in-flight depth cannot fall, and the time since the last
// progress only grows. Declare it before the scheduler, so callbacks that
// run while ~AnalysisScheduler drains still reach it, and a ReleaseAtExit
// after the scheduler.
class WorkerHold {
 public:
  void hold_if_first() {
    if (!taken_.exchange(true)) released_.wait();
  }
  // Idempotent; called from the test thread only.
  void release() {
    if (!released_.try_wait()) released_.count_down();
  }

 private:
  std::atomic<bool> taken_{false};
  std::latch released_{1};
};

// Releases the hold at scope exit, so a failed ASSERT that returns early
// cannot leave ~AnalysisScheduler waiting on the held worker.
class ReleaseAtExit {
 public:
  explicit ReleaseAtExit(WorkerHold& hold) : hold_(hold) {}
  ReleaseAtExit(const ReleaseAtExit&) = delete;
  ReleaseAtExit& operator=(const ReleaseAtExit&) = delete;
  ~ReleaseAtExit() { hold_.release(); }

 private:
  WorkerHold& hold_;
};

TEST(SchedulerBrownout, ShedsMissesTypedAndServesHitsInline) {
  SchedulerConfig config;
  config.threads = 1;
  config.max_queue = 8;  // derived watermarks: enter 6, exit 2
  config.batch_max = 4;
  config.cache_capacity = 64;
  WorkerHold hold;
  AnalysisScheduler scheduler(config);
  const ReleaseAtExit release_hold{hold};

  // Warm one key the normal way, so a brown-out has a hit to serve.
  const Request warm = heavy_request(1000);
  const Response warmed = scheduler.execute(warm);
  ASSERT_TRUE(warmed.status.is_ok()) << warmed.status.to_string();

  // Flood with distinct misses: one worker cannot drain 16-point duplex
  // solves as fast as submit() offers them, so in-flight depth crosses
  // the enter watermark while the flood is still being offered.
  std::atomic<int> answered{0};
  std::uint64_t shed = 0;
  std::uint64_t accepted = 0;
  const int kFlood = 64;
  for (int i = 0; i < kFlood; ++i) {
    const core::Status admitted = scheduler.submit(
        heavy_request(static_cast<unsigned>(i)),
        [&answered, &hold](Response) {
          hold.hold_if_first();
          answered.fetch_add(1);
        });
    if (admitted.is_ok()) {
      ++accepted;
    } else {
      // Sheds must be TYPED, and the brown-out flavor carries the
      // retry-after hint the client's backoff acts on.
      ASSERT_TRUE(admitted.code() == core::StatusCode::kBrownout ||
                  admitted.code() == core::StatusCode::kOverloaded)
          << admitted.to_string();
      if (admitted.code() == core::StatusCode::kBrownout) {
        ++shed;
        EXPECT_NE(admitted.message().find("retry"), std::string::npos)
            << admitted.to_string();
      }
    }
  }
  EXPECT_GE(shed, 1u) << "flood never engaged the brown-out";

  // While the shard is still browned out, the warmed key must be answered
  // INLINE from submit() — degradation sheds work, not answers.
  std::atomic<bool> hit_answered{false};
  Response hit_response;
  const core::Status hit_admitted =
      scheduler.submit(warm, [&](Response response) {
        hit_response = std::move(response);
        hit_answered.store(true);
      });
  ASSERT_TRUE(hit_admitted.is_ok()) << hit_admitted.to_string();
  ASSERT_TRUE(hit_answered.load())
      << "cache hit was queued instead of served inline during brown-out";
  EXPECT_TRUE(hit_response.status.is_ok());
  EXPECT_EQ(hit_response.result_json, warmed.result_json);

  hold.release();
  scheduler.stop();  // drains: every accepted flood callback fires exactly
                     // once (the warm hit used its own callback above)
  EXPECT_EQ(static_cast<std::uint64_t>(answered.load()), accepted);
  const AnalysisScheduler::Stats stats = scheduler.stats();
  EXPECT_GE(stats.brownout_entries, 1u);
  EXPECT_EQ(stats.brownout_shed, shed);
  EXPECT_GE(stats.brownout_hits, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(kFlood) + 1,
            stats.accepted + stats.brownout_shed + stats.rejected_overload);
}

TEST(SchedulerWatchdog, SurfacesStallWhileInFlightAndClearsWhenIdle) {
  SchedulerConfig config;
  config.threads = 1;
  config.max_queue = 64;
  config.watchdog_stall_ms = 0.0001;  // any in-flight instant counts
  WorkerHold hold;
  AnalysisScheduler scheduler(config);
  const ReleaseAtExit release_hold{hold};
  std::atomic<int> answered{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler
                    .submit(heavy_request(static_cast<unsigned>(i)),
                            [&answered, &hold](Response) {
                              hold.hold_if_first();
                              answered.fetch_add(1);
                            })
                    .is_ok());
  }
  bool observed_stuck = false;
  for (int poll = 0; poll < 20000 && answered.load() < 8; ++poll) {
    const AnalysisScheduler::Stats stats = scheduler.stats();
    if (stats.stuck) {
      observed_stuck = true;
      EXPECT_GT(stats.stalled_ms, 0.0);
      EXPECT_GT(stats.in_flight, 0u);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_TRUE(observed_stuck)
      << "watchdog never reported the busy shard as stalled";
  hold.release();
  scheduler.stop();
  const AnalysisScheduler::Stats idle = scheduler.stats();
  EXPECT_FALSE(idle.stuck);  // stall is a live condition, not a latch
  EXPECT_EQ(idle.stalled_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Server hardening, end to end.

TEST(ServerHardening, FrameRateLimitIsTypedAndKeepsTheConnection) {
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("rate");
  config.router.shards = 1;
  config.max_frames_per_second = 2.0;  // burst of 2, then ~0 refill
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto connected = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  (void)connected.value().set_receive_timeout(5000);

  int ok = 0, limited = 0;
  for (int call = 0; call < 6; ++call) {
    Request request = ping_request();
    request.id = static_cast<std::uint64_t>(call) + 1;
    const auto result = connected.value().call(request);
    // Every call gets a response on the SAME connection: the rejection
    // echoes the request id, so the stream never desynchronizes.
    ASSERT_TRUE(result.ok()) << call << ": " << result.status().to_string();
    EXPECT_EQ(result.value().id, request.id);
    if (result.value().status.is_ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.value().status.code(), core::StatusCode::kOverloaded);
      EXPECT_NE(result.value().status.message().find("frame rate"),
                std::string::npos)
          << result.value().status.to_string();
      ++limited;
    }
  }
  EXPECT_GE(ok, 2);       // the burst allowance
  EXPECT_GE(limited, 1);  // the ceiling engaged
  EXPECT_EQ(ok + limited, 6);
  const auto stats = server_stats(started.value()->endpoint());
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_GE(stats.value().number_or("rate_limited", 0), 1.0);
}

TEST(ServerHardening, OversizedFrameTypedRejectThenClose) {
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("maxframe");
  config.router.shards = 1;
  config.max_frame_bytes = 256;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto connected = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  (void)connected.value().set_receive_timeout(5000);

  Request oversized = heavy_request(0);
  for (int point = 0; point < 64; ++point) {
    oversized.times_hours.push_back(1000.0 + point);  // payload >> 256 B
  }
  const auto result = connected.value().call(oversized);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().status.code(), core::StatusCode::kInvalidConfig);
  // The stream cannot resync past an unread oversized body, so the server
  // closes after the typed reply; the NEXT call fails at transport level.
  const auto after = connected.value().call(ping_request());
  EXPECT_FALSE(after.ok());
  const auto stats = server_stats(started.value()->endpoint());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().number_or("oversized_frames", 0), 1.0);
  // A frame under the cap still works on a fresh connection.
  auto again = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(again.ok());
  const auto small = again.value().call(ping_request());
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small.value().status.is_ok());
}

// A request whose JSON body is megabytes long: far more than a socket
// buffer holds, so the client is still writing when the server rejects the
// header and closes.
Request oversized_request() {
  Request request = heavy_request(0);
  for (int point = 0; point < 200000; ++point) {
    request.times_hours.push_back(1000.0 + 1e-3 * point);
  }
  return request;
}

ServerConfig max_frame_config(const char* tag) {
  ServerConfig config;
  config.endpoint = chaos_test_endpoint(tag);
  config.router.shards = 1;
  config.max_frame_bytes = 256;
  return config;
}

TEST(ServerHardening, OversizedBodyBeyondSocketBufferStillGetsTypedReject) {
  auto started = Server::start(max_frame_config("maxframe-big"));
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto connected = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  (void)connected.value().set_receive_timeout(5000);

  const Request oversized = oversized_request();
  ASSERT_GT(oversized.to_json().size(), std::size_t{1} << 21);
  // The write fails with a broken pipe; the typed answer the server sent
  // before closing is what the caller gets, not the transport error.
  const auto result = connected.value().call(oversized);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().status.code(), core::StatusCode::kInvalidConfig);
  EXPECT_FALSE(connected.value().connected());
}

// A request over kMaxFrameBytes never leaves the client: write_frame
// refuses it before sending a byte, so the server has nothing to answer.
// With no receive timeout armed, a read for that answer would block for
// good; the call must fail at once instead. The watchdog unblocks such a
// read so a regression fails here rather than hanging the suite.
TEST(ServerHardening, RequestOverFrameCapFailsAtOnceWithoutReceiveTimeout) {
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("framecap");
  config.router.shards = 1;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto connected = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  Request request;
  request.kind = RequestKind::kSweep;
  request.sweep_param.assign(kMaxFrameBytes, 'x');
  std::future<core::Result<Response>> call = std::async(
      std::launch::async, [&client, &request] { return client.call(request); });
  if (call.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    client.cancel();
    call.wait();
    FAIL() << "Client::call blocked on a request it never sent";
  }
  const auto result = call.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("kMaxFrameBytes"),
            std::string::npos)
      << result.status().to_string();
  // Nothing reached the socket, so the stream is intact.
  const auto ping = client.call(ping_request());
  ASSERT_TRUE(ping.ok()) << ping.status().to_string();
  EXPECT_TRUE(ping.value().status.is_ok());
}

TEST(ResilientClientRetry, OversizedRejectIsFinalAfterOneAttempt) {
  auto started = Server::start(max_frame_config("maxframe-retry"));
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  ResilientClient client(started.value()->endpoint(), fast_retry_policy(5));
  client.set_receive_timeout(5000);
  const auto result = client.call(oversized_request());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().status.code(), core::StatusCode::kInvalidConfig);
  EXPECT_EQ(client.counters().attempts, 1u);
  EXPECT_EQ(client.counters().retries, 0u);
}

TEST(ServerHardening, IdleReaperFreesQuietConnections) {
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("reaper");
  config.router.shards = 1;
  config.idle_timeout_ms = 50.0;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto idler = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(idler.ok());
  (void)idler.value().set_receive_timeout(5000);
  const auto first = idler.value().call(ping_request());
  ASSERT_TRUE(first.ok());

  // Go quiet and wait for the reaper to notice (poll the stats plane
  // through fresh, promptly-used connections).
  bool reaped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!reaped && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const auto stats = server_stats(started.value()->endpoint());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    reaped = stats.value().number_or("idle_reaped", 0) >= 1.0;
  }
  EXPECT_TRUE(reaped) << "idle connection was never reaped";
  // The reaped connection is actually dead from the client's side.
  const auto after = idler.value().call(ping_request());
  EXPECT_FALSE(after.ok());
}

// ---------------------------------------------------------------------------
// Crash-safe warm start, end to end.

class WarmStartTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!snapshot_path_.empty()) std::remove(snapshot_path_.c_str());
  }
  std::string snapshot_path_;
};

TEST_F(WarmStartTest, RestartServesIdenticalBytesAsCacheHits) {
  snapshot_path_ = "/tmp/rsmem-chaos-test-warm-" +
                   std::to_string(::getpid()) + ".snap";
  std::remove(snapshot_path_.c_str());
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("warm-a");
  config.router.shards = 2;
  config.snapshot_path = snapshot_path_;

  std::vector<std::string> expected;
  {
    auto started = Server::start(config);
    ASSERT_TRUE(started.ok()) << started.status().to_string();
    auto connected = Client::connect(started.value()->endpoint());
    ASSERT_TRUE(connected.ok());
    for (unsigned variant = 0; variant < 3; ++variant) {
      const auto result = connected.value().call(heavy_request(variant));
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result.value().status.is_ok());
      expected.push_back(result.value().result_json);
    }
    started.value()->shutdown();  // drain + snapshot
  }

  // Restart — different socket and DIFFERENT shard count: snapshot
  // entries re-route to whichever shard owns them now.
  config.endpoint = chaos_test_endpoint("warm-b");
  config.router.shards = 1;
  auto restarted = Server::start(config);
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  EXPECT_GE(restarted.value()->cache_stats().warm_loads, 3u);
  const auto stats = server_stats(restarted.value()->endpoint());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().number_or("warm_start_entries", 0), 3.0);
  EXPECT_EQ(stats.value().string_or("warm_start_error", "x"), "");

  auto connected = Client::connect(restarted.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  for (unsigned variant = 0; variant < 3; ++variant) {
    const auto result = connected.value().call(heavy_request(variant));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value().status.is_ok());
    // Warmed keys HIT — the restart recomputed nothing — and the bytes
    // are identical to the pre-restart answers.
    EXPECT_EQ(result.value().cache, CacheSource::kHit) << variant;
    EXPECT_EQ(result.value().result_json, expected[variant]) << variant;
  }
}

TEST_F(WarmStartTest, CorruptSnapshotColdStartsAndSurfacesTheError) {
  snapshot_path_ = "/tmp/rsmem-chaos-test-corrupt-" +
                   std::to_string(::getpid()) + ".snap";
  {
    std::ofstream out(snapshot_path_, std::ios::binary | std::ios::trunc);
    out << "RSMSgarbage-not-a-valid-snapshot-body";
  }
  ServerConfig config;
  config.endpoint = chaos_test_endpoint("cold");
  config.router.shards = 1;
  config.snapshot_path = snapshot_path_;
  auto started = Server::start(config);  // must not crash or refuse
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  const auto stats = server_stats(started.value()->endpoint());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().number_or("warm_start_entries", -1), 0.0);
  // The corruption is SURFACED (ops can see it), just not fatal.
  EXPECT_NE(stats.value().string_or("warm_start_error", ""), "");
  auto connected = Client::connect(started.value()->endpoint());
  ASSERT_TRUE(connected.ok());
  const auto result = connected.value().call(heavy_request(0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().status.is_ok());
}

// ---------------------------------------------------------------------------
// The campaign itself: it passes, and its report is byte-deterministic
// for a fixed seed (the acceptance bar `rsmem_cli chaos` is held to).

TEST(ChaosCampaign, SmokePassesAndReportIsDeterministic) {
  ChaosCampaignConfig config;
  config.seed = 11;
  config.requests_per_scenario = 6;
  config.distinct = 2;
  const auto first = run_chaos_campaign(config);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_TRUE(first.value().passed())
      << format_chaos_report(config, first.value());
  EXPECT_EQ(first.value().scenarios.size(), 16u);
  EXPECT_EQ(first.value().timeouts, 0u);
  EXPECT_EQ(first.value().mismatches, 0u);

  const auto second = run_chaos_campaign(config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(format_chaos_report(config, first.value()),
            format_chaos_report(config, second.value()));
}

// Files the campaign itself names /tmp/rsmem-chaos-<pid>-*.bin (snapshots).
std::vector<std::string> campaign_snapshot_files() {
  const std::string prefix = "rsmem-chaos-" + std::to_string(::getpid()) + "-";
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.size() >= 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      found.push_back(entry.path().string());
    }
  }
  return found;
}

TEST(ChaosCampaign, LeavesNoSnapshotFileBehind) {
  // A server saves its cache to its snapshot path when it is destroyed, so
  // each scenario may remove its snapshot only after its server is gone.
  ChaosCampaignConfig config;
  config.seed = 12;
  config.requests_per_scenario = 4;
  config.distinct = 2;
  const auto report = run_chaos_campaign(config);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const std::vector<std::string> left = campaign_snapshot_files();
  EXPECT_EQ(left, std::vector<std::string>{});
  for (const std::string& path : left) std::remove(path.c_str());
}

TEST(ChaosCampaign, RejectsNonsensicalConfig) {
  ChaosCampaignConfig config;
  config.requests_per_scenario = 0;
  const auto result = run_chaos_campaign(config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace rsmem::service

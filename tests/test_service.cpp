// End-to-end rsmem-serve tests: a real Server on a Unix socket, real
// Clients, concurrent traffic. Pins the headline guarantees:
//   * responses are BIT-IDENTICAL to direct core:: calls for the paper
//     presets (RS(18,16) duplex, RS(36,16) simplex) — at EVERY shard
//     count: the sharded-vs-unsharded differential proves --shards 1 and
//     --shards 4 answer byte-for-byte identically;
//   * concurrent identical requests single-flight (compute once);
//   * admission control rejects with typed kOverloaded, never drops —
//     per shard AND at the router's global backstop;
//   * expired deadlines answer kDeadlineExceeded, both when the
//     dispatcher drains them late and when they expire while queued
//     behind a slow group on a shard worker;
//   * merged `stats` counters are exactly the sum of the per-shard ones;
//   * shutdown drains every admitted request, and submitters racing
//     stop() are answered exactly once or rejected typed.
// The whole file runs under TSan via tools/run_sanitizers.sh (label
// `service`).
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/api.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/shard_router.h"

namespace rsmem::service {
namespace {

Endpoint test_endpoint(const char* tag) {
  return Endpoint::unix_socket("/tmp/rsmem-test-" + std::string(tag) + "-" +
                               std::to_string(::getpid()) + ".sock");
}

core::MemorySystemSpec paper_duplex_spec() {
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kDuplex;
  spec.code = {18, 16, 8, 1};
  spec.seu_rate_per_bit_day = 1e-2;
  spec.scrub_period_seconds = 3600.0;
  return spec;
}

core::MemorySystemSpec paper_simplex_spec() {
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kSimplex;
  spec.code = {36, 16, 8, 1};
  spec.seu_rate_per_bit_day = 1.7e-5;
  spec.erasure_rate_per_symbol_day = 1e-4;
  return spec;
}

std::vector<double> result_doubles(const Response& response,
                                   const char* field) {
  const auto parsed = Json::parse(response.result_json);
  EXPECT_TRUE(parsed.ok()) << response.result_json;
  if (!parsed.ok()) return {};
  auto values = parsed.value().doubles_at(field);
  EXPECT_TRUE(values.ok()) << field;
  return values.ok() ? std::move(values).value() : std::vector<double>{};
}

void expect_bit_identical(const std::vector<double>& service_values,
                          const std::vector<double>& direct_values,
                          const char* what) {
  ASSERT_EQ(service_values.size(), direct_values.size()) << what;
  for (std::size_t i = 0; i < direct_values.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison: bit-identity, not epsilon.
    EXPECT_EQ(service_values[i], direct_values[i])
        << what << " diverges at index " << i;
  }
}

TEST(ServiceE2E, BerResponsesBitIdenticalToDirectCalls) {
  ServerConfig config;
  config.endpoint = test_endpoint("diff");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const std::vector<double> times = {0.0, 12.0, 24.0, 48.0};
  for (const core::MemorySystemSpec& spec :
       {paper_duplex_spec(), paper_simplex_spec()}) {
    Request request;
    request.kind = RequestKind::kBer;
    request.spec = spec;
    request.times_hours = times;
    auto response = client.value().call(request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok())
        << response.value().status.to_string();

    const models::BerCurve direct = rsmem::analyze_ber(spec, times);
    expect_bit_identical(result_doubles(response.value(), "fail_probability"),
                         direct.fail_probability, "P_fail");
    expect_bit_identical(result_doubles(response.value(), "ber"), direct.ber,
                         "BER");
    expect_bit_identical(result_doubles(response.value(), "times_hours"),
                         direct.times_hours, "times");

    // Second ask: served from cache, still the same bytes.
    auto cached = client.value().call(request);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.value().cache, CacheSource::kHit);
    EXPECT_EQ(cached.value().result_json, response.value().result_json);
  }
  server->shutdown();
}

TEST(ServiceE2E, SweepAndMttfBitIdenticalToDirectCalls) {
  ServerConfig config;
  config.endpoint = test_endpoint("sweep");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok());

  Request request;
  request.kind = RequestKind::kSweep;
  request.spec = paper_duplex_spec();
  request.sweep_param = "tsc";
  request.sweep_values = {600.0, 1800.0, 3600.0, 7200.0};
  request.sweep_hours = 48.0;
  auto response = client.value().call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().status.is_ok())
      << response.value().status.to_string();

  std::vector<double> direct_pfail, direct_ber;
  for (const double value : request.sweep_values) {
    core::MemorySystemSpec spec = request.spec;
    spec.scrub_period_seconds = value;
    const double times[] = {request.sweep_hours};
    const models::BerCurve curve = rsmem::analyze_ber(spec, times);
    direct_pfail.push_back(curve.fail_probability.front());
    direct_ber.push_back(curve.ber.front());
  }
  expect_bit_identical(result_doubles(response.value(), "fail_probability"),
                       direct_pfail, "sweep P_fail");
  expect_bit_identical(result_doubles(response.value(), "ber"), direct_ber,
                       "sweep BER");

  Request mttf;
  mttf.kind = RequestKind::kMttf;
  mttf.spec = paper_duplex_spec();
  auto mttf_response = client.value().call(mttf);
  ASSERT_TRUE(mttf_response.ok());
  ASSERT_TRUE(mttf_response.value().status.is_ok());
  const auto parsed = Json::parse(mttf_response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().number_or("mttf_hours", -1.0),
            rsmem::mttf_hours(mttf.spec));
  server->shutdown();
}

TEST(ServiceE2E, ConcurrentIdenticalSweepsComputeOnce) {
  ServerConfig config;
  config.endpoint = test_endpoint("flight");
  config.router.scheduler.threads = 4;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<core::Status> statuses(kClients);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        auto client = Client::connect(server->endpoint());
        if (!client.ok()) {
          statuses[i] = client.status();
          return;
        }
        Request request;
        request.kind = RequestKind::kBer;
        request.spec = paper_duplex_spec();
        request.times_hours = {0.0, 24.0, 48.0};
        auto response = client.value().call(request);
        statuses[i] =
            response.ok() ? response.value().status : response.status();
        if (response.ok()) payloads[i] = response.value().result_json;
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(statuses[i].is_ok()) << i << ": " << statuses[i].to_string();
    EXPECT_EQ(payloads[i], payloads[0]) << "client " << i;
  }
  // Single-flight + cache: the chain was computed exactly once.
  const ResultCache::Stats cache = server->cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits + cache.waits, static_cast<std::uint64_t>(kClients - 1));
  server->shutdown();
}

// Bare socket, no Client: lets a test send a frame and vanish without
// waiting for the response.
int raw_connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServiceE2E, SurvivesClientGoneBeforeResponse) {
  // A client that submits an analysis request and disconnects before the
  // scheduler worker writes the response makes that write hit a closed
  // socket. It must surface as an EPIPE Status, not a SIGPIPE that kills
  // the daemon (which lives in this test process).
  ServerConfig config;
  config.endpoint = test_endpoint("gone");
  config.router.scheduler.threads = 1;
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  for (int i = 0; i < 3; ++i) {
    const int fd = raw_connect_unix(server->endpoint().path);
    ASSERT_GE(fd, 0);
    Request request;
    request.id = 1;
    request.kind = RequestKind::kBer;
    request.spec = paper_duplex_spec();
    // Distinct times => distinct cache keys => real compute after close.
    request.times_hours = {24.0 + i};
    ASSERT_TRUE(write_frame(fd, request.to_json()).is_ok());
    ::close(fd);
  }

  // The daemon is still alive: a fresh client gets answers.
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Request ping;
  ping.kind = RequestKind::kPing;
  auto response = client.value().call(ping);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().status.is_ok());

  server->shutdown();  // drains the three orphaned requests
  EXPECT_EQ(server->scheduler_stats().completed, 3u);
}

TEST(ServiceE2E, ReapsDisconnectedClients) {
  // Connection churn must not accumulate fds or threads: each
  // disconnected client is reaped when its reader sees EOF, not hoarded
  // until shutdown.
  ServerConfig config;
  config.endpoint = test_endpoint("churn");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok()) << started.status().to_string();
  auto& server = started.value();

  const auto ping_once = [&] {
    auto client = Client::connect(server->endpoint());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    Request ping;
    ping.kind = RequestKind::kPing;
    ASSERT_TRUE(client.value().call(ping).ok());
  };

  // Settle lazily-created fds before taking the baseline.
  ping_once();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t baseline = open_fd_count();
  ASSERT_GT(baseline, 0u);

  for (int i = 0; i < 32; ++i) ping_once();  // each closes on scope exit

  bool reaped = false;
  for (int i = 0; i < 250 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reaped = open_fd_count() <= baseline + 2;
  }
  EXPECT_TRUE(reaped) << open_fd_count() << " open fds vs baseline "
                      << baseline;
  server->shutdown();
}

TEST(ServiceE2E, ControlPlaneAndErrors) {
  ServerConfig config;
  config.endpoint = test_endpoint("ctl");
  auto started = Server::start(config);
  ASSERT_TRUE(started.ok());
  auto& server = started.value();
  auto client = Client::connect(server->endpoint());
  ASSERT_TRUE(client.ok());

  Request ping;
  ping.kind = RequestKind::kPing;
  auto response = client.value().call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.is_ok());
  EXPECT_NE(response.value().result_json.find(rsmem::version()),
            std::string::npos);

  // An invalid spec comes back as a typed InvalidConfig response.
  Request bad;
  bad.kind = RequestKind::kMttf;
  bad.spec = paper_duplex_spec();
  bad.spec.code.k = bad.spec.code.n;  // k must be < n
  response = client.value().call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status.code(), core::StatusCode::kInvalidConfig);

  Request stats;
  stats.kind = RequestKind::kStats;
  response = client.value().call(stats);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().status.is_ok());
  const auto parsed = Json::parse(response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value().find("scheduler"), nullptr);
  EXPECT_NE(parsed.value().find("cache"), nullptr);

  // Shutdown over the wire; the server acknowledges, then tears down.
  Request shutdown;
  shutdown.kind = RequestKind::kShutdown;
  response = client.value().call(shutdown);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.is_ok());
  EXPECT_TRUE(server->wait_for_shutdown(std::chrono::seconds(5)));
  server->shutdown();
  // The socket file is gone after an orderly shutdown.
  EXPECT_NE(::access(server->endpoint().path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// Sharding: routing, bit-identity across shard counts, stats merge, and
// the router's global admission backstop.

TEST(ShardRouting, ShardOfKeyIsDeterministicAndCoversAllShards) {
  // Control-plane kinds have empty keys and pin to shard 0, as does a
  // single-shard deployment.
  EXPECT_EQ(shard_of_key("", 4), 0u);
  EXPECT_EQ(shard_of_key("any key at all", 1), 0u);
  EXPECT_EQ(shard_of_key("any key at all", 0), 0u);

  std::set<std::uint32_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "ber|duplex|18,16|t=" + std::to_string(i);
    const std::uint32_t shard = shard_of_key(key, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, shard_of_key(key, 4));  // deterministic
    // The routing rule is pinned: xor-fold of the 64-bit FNV-1a, mod N.
    const std::uint64_t hash = cache_key_hash(key);
    EXPECT_EQ(shard,
              static_cast<std::uint32_t>(hash ^ (hash >> 32)) % 4u);
    seen.insert(shard);
  }
  // FNV-1a spreads these near-identical keys across every shard.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRouting, RouterSendsEqualKeysToTheSameShard) {
  ShardRouterConfig config;
  config.shards = 4;
  config.scheduler.threads = 1;
  ShardRouter router(config);
  ASSERT_EQ(router.shard_count(), 4u);

  Request request;
  request.kind = RequestKind::kBer;
  request.spec = paper_duplex_spec();
  request.times_hours = {0.0, 24.0, 48.0};
  const std::size_t home = router.shard_of(request);
  Request identical = request;
  identical.id = 999;          // ids are not semantic content
  identical.deadline_ms = 50;  // neither are deadlines
  EXPECT_EQ(router.shard_of(identical), home);
  EXPECT_EQ(home, shard_of_key(canonical_cache_key(request), 4));

  // Execute twice through the router: the second is a HIT — the per-shard
  // cache works because equal keys always land on the same shard.
  const Response first = router.execute(request);
  ASSERT_TRUE(first.status.is_ok()) << first.status.to_string();
  EXPECT_EQ(first.cache, CacheSource::kMiss);
  const Response second = router.execute(identical);
  ASSERT_TRUE(second.status.is_ok());
  EXPECT_EQ(second.cache, CacheSource::kHit);
  EXPECT_EQ(second.result_json, first.result_json);
  router.stop();
}

// The tentpole differential: one identical request mix against a
// 1-shard and a 4-shard server must produce byte-identical responses
// (and match direct core:: calls), and the 4-shard server's merged stats
// must be exactly the sum of its per-shard counters.
TEST(ShardRouting, ShardedAndUnshardedServersAnswerByteIdentically) {
  ServerConfig config_1;
  config_1.endpoint = test_endpoint("shards1");
  config_1.router.shards = 1;
  config_1.router.scheduler.threads = 2;
  ServerConfig config_4;
  config_4.endpoint = test_endpoint("shards4");
  config_4.router.shards = 4;
  config_4.router.scheduler.threads = 2;
  auto started_1 = Server::start(config_1);
  auto started_4 = Server::start(config_4);
  ASSERT_TRUE(started_1.ok()) << started_1.status().to_string();
  ASSERT_TRUE(started_4.ok()) << started_4.status().to_string();
  auto& server_1 = started_1.value();
  auto& server_4 = started_4.value();
  auto client_1 = Client::connect(server_1->endpoint());
  auto client_4 = Client::connect(server_4->endpoint());
  ASSERT_TRUE(client_1.ok());
  ASSERT_TRUE(client_4.ok());

  // The request mix: both paper presets, all three analysis kinds.
  std::vector<Request> mix;
  {
    Request ber_duplex;
    ber_duplex.kind = RequestKind::kBer;
    ber_duplex.spec = paper_duplex_spec();
    ber_duplex.times_hours = {0.0, 12.0, 24.0, 48.0};
    mix.push_back(ber_duplex);
    Request ber_simplex = ber_duplex;
    ber_simplex.spec = paper_simplex_spec();
    mix.push_back(ber_simplex);
    Request ber_periodic = ber_duplex;
    ber_periodic.periodic = true;
    mix.push_back(ber_periodic);
    Request sweep;
    sweep.kind = RequestKind::kSweep;
    sweep.spec = paper_duplex_spec();
    sweep.sweep_param = "tsc";
    sweep.sweep_values = {600.0, 1800.0, 3600.0, 7200.0};
    sweep.sweep_hours = 48.0;
    mix.push_back(sweep);
    Request mttf_duplex;
    mttf_duplex.kind = RequestKind::kMttf;
    mttf_duplex.spec = paper_duplex_spec();
    mix.push_back(mttf_duplex);
    Request mttf_simplex = mttf_duplex;
    mttf_simplex.spec = paper_simplex_spec();
    mix.push_back(mttf_simplex);
  }

  // Two passes: pass 0 computes (misses), pass 1 is served per-shard-hot.
  // Byte identity must hold between servers on every pass.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      auto from_1 = client_1.value().call(mix[i]);
      auto from_4 = client_4.value().call(mix[i]);
      ASSERT_TRUE(from_1.ok()) << from_1.status().to_string();
      ASSERT_TRUE(from_4.ok()) << from_4.status().to_string();
      ASSERT_TRUE(from_1.value().status.is_ok())
          << from_1.value().status.to_string();
      ASSERT_TRUE(from_4.value().status.is_ok())
          << from_4.value().status.to_string();
      EXPECT_EQ(from_1.value().result_json, from_4.value().result_json)
          << "request " << i << " pass " << pass
          << " differs between 1 and 4 shards";
      if (pass == 1) {
        EXPECT_EQ(from_4.value().cache, CacheSource::kHit)
            << "request " << i << ": per-shard cache missed on replay";
      }
    }
  }
  // And against direct core:: calls (the wire adds nothing, removes
  // nothing, at any shard count).
  {
    auto response = client_4.value().call(mix[0]);
    ASSERT_TRUE(response.ok());
    const models::BerCurve direct =
        rsmem::analyze_ber(mix[0].spec, mix[0].times_hours);
    expect_bit_identical(result_doubles(response.value(), "fail_probability"),
                         direct.fail_probability, "sharded P_fail");
    expect_bit_identical(result_doubles(response.value(), "ber"), direct.ber,
                         "sharded BER");
  }

  // Stats merge semantics: the top-level merged counters are exactly the
  // sums of the per-shard entries, and the work actually spread out.
  Request stats;
  stats.kind = RequestKind::kStats;
  auto stats_response = client_4.value().call(stats);
  ASSERT_TRUE(stats_response.ok());
  ASSERT_TRUE(stats_response.value().status.is_ok());
  const auto parsed = Json::parse(stats_response.value().result_json);
  ASSERT_TRUE(parsed.ok());
  const Json& json = parsed.value();
  EXPECT_EQ(json.number_or("shard_count", 0.0), 4.0);
  EXPECT_EQ(json.number_or("rejected_global", -1.0), 0.0);
  const Json* shards = json.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->as_array().size(), 4u);
  double accepted_sum = 0.0, completed_sum = 0.0;
  double hits_sum = 0.0, misses_sum = 0.0, size_sum = 0.0;
  std::size_t shards_with_work = 0;
  for (const Json& shard : shards->as_array()) {
    const Json* scheduler = shard.find("scheduler");
    const Json* cache = shard.find("cache");
    ASSERT_NE(scheduler, nullptr);
    ASSERT_NE(cache, nullptr);
    accepted_sum += scheduler->number_or("accepted", 0.0);
    completed_sum += scheduler->number_or("completed", 0.0);
    hits_sum += cache->number_or("hits", 0.0);
    misses_sum += cache->number_or("misses", 0.0);
    size_sum += cache->number_or("size", 0.0);
    if (scheduler->number_or("accepted", 0.0) > 0.0) ++shards_with_work;
  }
  const Json* merged_scheduler = json.find("scheduler");
  const Json* merged_cache = json.find("cache");
  ASSERT_NE(merged_scheduler, nullptr);
  ASSERT_NE(merged_cache, nullptr);
  EXPECT_EQ(merged_scheduler->number_or("accepted", -1.0), accepted_sum);
  EXPECT_EQ(merged_scheduler->number_or("completed", -1.0), completed_sum);
  EXPECT_EQ(merged_cache->number_or("hits", -1.0), hits_sum);
  EXPECT_EQ(merged_cache->number_or("misses", -1.0), misses_sum);
  EXPECT_EQ(merged_cache->number_or("size", -1.0), size_sum);
  // 6 distinct keys hashed over 4 shards: more than one shard saw work.
  EXPECT_GT(shards_with_work, 1u);
  // Every distinct key computed exactly once across the whole fleet.
  EXPECT_EQ(misses_sum, static_cast<double>(mix.size()));

  server_1->shutdown();
  server_4->shutdown();
}

TEST(ShardRouterAdmission, GlobalBackstopRejectsTypedOverload) {
  ShardRouterConfig config;
  config.shards = 2;
  config.scheduler.threads = 1;
  config.scheduler.max_queue = 64;  // roomy per-shard queues...
  config.global_max_pending = 2;    // ...but a tight global backstop
  ShardRouter router(config);
  EXPECT_EQ(router.global_max_pending(), 2u);

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t completed = 0;
  const auto on_done = [&](Response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    cv.notify_all();
  };

  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 64; ++i) {
    Request request;
    request.kind = RequestKind::kBer;
    request.spec = paper_duplex_spec();
    request.times_hours = {24.0 + i};  // distinct keys: real work each
    const core::Status status = router.submit(request, on_done);
    if (status.is_ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(status.code(), core::StatusCode::kOverloaded)
          << status.to_string();
      ++rejected;
    }
  }
  // The per-shard queues never filled, so every rejection came from the
  // global backstop and was typed kOverloaded.
  EXPECT_GT(rejected, 0u);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return completed == accepted; }));
  }
  const ShardRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.rejected_global, rejected);
  EXPECT_EQ(stats.scheduler.accepted, accepted);
  EXPECT_EQ(stats.scheduler.completed, accepted);
  EXPECT_EQ(stats.scheduler.rejected_overload, 0u);  // shards never refused
  EXPECT_EQ(stats.global_pending, 0u);  // every reservation was released
  router.stop();
}

// Scheduler-level behaviours that need precise control (no sockets).

TEST(SchedulerAdmission, RejectsWithTypedOverloadWhenQueueFull) {
  SchedulerConfig config;
  config.threads = 1;
  config.max_queue = 2;
  config.batch_max = 1;
  AnalysisScheduler scheduler(config);

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t completed = 0;
  const auto on_done = [&](Response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    cv.notify_all();
  };

  Request request;
  request.kind = RequestKind::kBer;
  request.spec = paper_duplex_spec();
  request.times_hours = {0.0, 24.0, 48.0};

  // Flood far beyond the queue bound; every submission either succeeds or
  // is rejected with a typed status — kOverloaded when the queue is full,
  // kBrownout once the in-flight watermark trips — never anything
  // untyped, never dropped.
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 200; ++i) {
    Request variant = request;
    variant.id = static_cast<std::uint64_t>(i + 1);
    // Distinct times => distinct cache keys => real work per request.
    variant.times_hours.back() += static_cast<double>(i);
    const core::Status status = scheduler.submit(variant, on_done);
    if (status.is_ok()) {
      ++accepted;
    } else {
      ASSERT_TRUE(status.code() == core::StatusCode::kOverloaded ||
                  status.code() == core::StatusCode::kBrownout)
          << status.to_string();
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completed == accepted; }));
  }
  const AnalysisScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected_overload + stats.brownout_shed, rejected);
  EXPECT_EQ(stats.completed, accepted);
  scheduler.stop();
  // With max_queue=2 a 200-deep flood must have tripped admission.
  EXPECT_GT(rejected, 0u);
}

TEST(SchedulerDeadlines, ExpiredDeadlineAnswersTyped) {
  SchedulerConfig config;
  config.threads = 1;
  AnalysisScheduler scheduler(config);
  Request request;
  request.kind = RequestKind::kMttf;
  request.spec = paper_duplex_spec();
  // A deadline that has effectively already expired when the dispatcher
  // reaches it (sub-microsecond).
  request.deadline_ms = 1e-9;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Response final_response;
  const core::Status status =
      scheduler.submit(request, [&](Response response) {
        std::lock_guard<std::mutex> lock(mutex);
        final_response = std::move(response);
        done = true;
        cv.notify_all();
      });
  ASSERT_TRUE(status.is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; }));
  }
  EXPECT_EQ(final_response.status.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(final_response.result_json.empty());
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST(SchedulerDeadlines, DeadlineExpiringInQueueAnswersTypedNotLate) {
  // The dispatch-time check alone is not enough: a request can pass it,
  // then sit on the single worker's queue behind a slow group while its
  // deadline runs out. The worker re-checks at dequeue, so the victim
  // gets kDeadlineExceeded — never a late success.
  SchedulerConfig config;
  config.threads = 1;
  config.batch_max = 16;
  AnalysisScheduler scheduler(config);

  std::mutex mutex;
  std::condition_variable cv;
  bool blocker_done = false, victim_done = false;
  Response victim_response;

  // Blocker: a wide scrub-period sweep on the duplex chain. Each value is
  // ~50us of solver work even with warm chain replay, so 4096 values keep
  // the only worker busy for hundreds of milliseconds — over 20x the
  // victim's deadline, and a slow machine only widens the margin.
  Request blocker;
  blocker.kind = RequestKind::kSweep;
  blocker.spec = paper_duplex_spec();
  blocker.sweep_param = "tsc";
  blocker.sweep_hours = 48.0;
  for (int i = 0; i < 4096; ++i) {
    blocker.sweep_values.push_back(600.0 + 1.0 * i);
  }
  ASSERT_TRUE(scheduler
                  .submit(blocker,
                          [&](Response) {
                            std::lock_guard<std::mutex> lock(mutex);
                            blocker_done = true;
                            cv.notify_all();
                          })
                  .is_ok());
  // Let the dispatcher hand the blocker to the (only) worker before the
  // victim is even submitted, so the worker-queue ordering is fixed.
  for (int i = 0; i < 2000 && scheduler.stats().batch_groups == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(scheduler.stats().batch_groups, 1u);

  // Victim: a different compatibility group (simplex), with a deadline
  // that is alive at dispatch but dead long before the blocker finishes.
  Request victim;
  victim.kind = RequestKind::kMttf;
  victim.spec = paper_simplex_spec();
  victim.deadline_ms = 10.0;
  ASSERT_TRUE(scheduler
                  .submit(victim,
                          [&](Response response) {
                            std::lock_guard<std::mutex> lock(mutex);
                            victim_response = std::move(response);
                            victim_done = true;
                            cv.notify_all();
                          })
                  .is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return blocker_done && victim_done; }));
  }
  EXPECT_EQ(victim_response.status.code(),
            core::StatusCode::kDeadlineExceeded)
      << victim_response.status.to_string();
  EXPECT_TRUE(victim_response.result_json.empty());
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
  // The rejection was never cached: a fresh ask computes and succeeds.
  Request retry = victim;
  retry.deadline_ms = 0.0;
  const Response fresh = scheduler.execute(retry);
  EXPECT_TRUE(fresh.status.is_ok()) << fresh.status.to_string();
  EXPECT_EQ(fresh.cache, CacheSource::kMiss);
  scheduler.stop();
}

TEST(SchedulerBatching, CompatibilityKeysGroupChainStructures) {
  Request a;
  a.kind = RequestKind::kBer;
  a.spec = paper_duplex_spec();
  a.times_hours = {1.0};
  Request b = a;
  b.spec.seu_rate_per_bit_day = 5e-3;  // different magnitude, same structure
  b.times_hours = {2.0};
  EXPECT_EQ(batch_compatibility_key(a), batch_compatibility_key(b));

  Request c = a;
  c.spec.seu_rate_per_bit_day = 0.0;  // different rate zero-pattern
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(c));
  Request d = a;
  d.spec.arrangement = analysis::Arrangement::kSimplex;
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(d));
  Request e = a;
  e.spec.code.n = 36;
  EXPECT_NE(batch_compatibility_key(a), batch_compatibility_key(e));
}

TEST(SchedulerShutdown, StopDrainsEveryAdmittedRequest) {
  SchedulerConfig config;
  config.threads = 2;
  AnalysisScheduler scheduler(config);
  std::atomic<int> answered{0};
  constexpr int kRequests = 24;
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.kind = RequestKind::kBer;
    request.spec = paper_duplex_spec();
    request.times_hours = {static_cast<double>(i + 1)};
    if (scheduler
            .submit(request, [&](Response) { answered.fetch_add(1); })
            .is_ok()) {
      ++accepted;
    }
  }
  scheduler.stop();  // drain-and-stop: every admitted request answered
  EXPECT_EQ(answered.load(), accepted);
  EXPECT_EQ(accepted, kRequests);
  // After stop, admission rejects with a typed status.
  Request late;
  late.kind = RequestKind::kMttf;
  late.spec = paper_duplex_spec();
  const core::Status status = scheduler.submit(late, [](Response) {});
  EXPECT_EQ(status.code(), core::StatusCode::kOverloaded);
}

TEST(SchedulerShutdown, SubmittersRacingStopAreAnsweredExactlyOnce) {
  // submit() checks the stop flag and pushes under the queue lock that
  // stop() takes to set it, so a request is either accepted before the
  // dispatcher's last look at the queue (and answered) or rejected typed.
  constexpr int kRounds = 20;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  constexpr int kRequests = kThreads * kPerThread;
  for (int round = 0; round < kRounds; ++round) {
    SchedulerConfig config;
    config.threads = 2;
    AnalysisScheduler scheduler(config);
    std::vector<std::atomic<int>> fired(kRequests);
    std::vector<char> accepted(kRequests, 0);
    std::atomic<bool> go{false};
    std::atomic<bool> untyped_rejection{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kPerThread; ++i) {
          const int index = t * kPerThread + i;
          Request request;
          request.id = static_cast<std::uint64_t>(index + 1);
          request.kind = RequestKind::kMttf;
          request.spec = paper_duplex_spec();
          request.spec.seu_rate_per_bit_day *= 1.0 + (index % 4);
          const core::Status status = scheduler.submit(
              request, [&fired, index](Response) { fired[index]++; });
          if (status.is_ok()) {
            accepted[index] = 1;
          } else if (status.code() != core::StatusCode::kOverloaded &&
                     status.code() != core::StatusCode::kBrownout) {
            untyped_rejection = true;
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(40 * round));
    scheduler.stop();
    for (std::thread& submitter : submitters) submitter.join();

    EXPECT_FALSE(untyped_rejection.load()) << "round " << round;
    std::uint64_t accepted_count = 0;
    for (int index = 0; index < kRequests; ++index) {
      accepted_count += accepted[index];
      ASSERT_EQ(fired[index].load(), accepted[index] ? 1 : 0)
          << "round " << round << " request " << index;
    }
    const AnalysisScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.accepted, accepted_count) << "round " << round;
    EXPECT_EQ(stats.accepted + stats.rejected_overload + stats.brownout_shed,
              static_cast<std::uint64_t>(kRequests))
        << "round " << round;
    EXPECT_EQ(stats.completed, stats.accepted) << "round " << round;
    EXPECT_EQ(stats.queue_depth, 0u) << "round " << round;
  }
}

TEST(ServiceLoadgen, SelfHostedRunMeetsCacheTargets) {
  LoadgenConfig config;
  config.self_host = true;
  config.clients = 8;
  config.requests_per_client = 12;
  config.distinct = 3;
  config.scheduler.threads = 2;
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0, 1800.0, 3600.0};
  config.request.sweep_hours = 48.0;
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.requests,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
  // The acceptance bar: a repeated sweep from 8 concurrent clients runs
  // mostly hot. 3 distinct keys over 96 requests => >= 93 hits/waits.
  EXPECT_GT(report.hit_rate, 0.5);
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_FALSE(report.server_stats_json.empty());
  // JSON snapshot is parseable and carries the headline metrics.
  const auto snapshot = Json::parse(loadgen_report_json(config, report));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot.value().find("latency_ms"), nullptr);
  EXPECT_NE(snapshot.value().find("cache"), nullptr);
  EXPECT_NE(snapshot.value().find("hot_query_speedup"), nullptr);
}

TEST(ServiceLoadgen, OpenLoopShardedRunAccountsForEveryRequest) {
  LoadgenConfig config;
  config.self_host = true;
  config.open_loop = true;
  config.shards = 2;
  config.clients = 4;
  config.requests_per_client = 10;
  config.distinct = 2;
  config.scheduler.threads = 2;
  config.scheduler.max_queue = 256;  // roomy: no rejections expected
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0, 3600.0};
  config.request.sweep_hours = 48.0;
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  // Open loop accounts for every request exactly once: ok + rejected +
  // errors covers the whole offered load, and with a roomy queue nothing
  // is rejected or lost.
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.requests,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
  EXPECT_GT(report.offered_rps, 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_FALSE(report.server_stats_json.empty());
}

TEST(ServiceLoadgen, OpenLoopOverloadCountsRejectionsNotErrors) {
  // Deliberate overload: 1 worker, a queue of 1, a global backstop of 2,
  // and a flood of distinct keys pipelined flat-out. The relief valves are
  // typed kOverloaded and kBrownout (the brown-out threshold of a queue of
  // 1 is 1) — the loadgen must file both under `rejected`, keep `errors`
  // at zero, and still account for every request.
  LoadgenConfig config;
  config.self_host = true;
  config.open_loop = true;
  config.shards = 2;
  config.clients = 4;
  config.requests_per_client = 16;
  config.distinct = 64;  // (clients + i) spread: nearly all keys distinct
  config.scheduler.threads = 1;
  config.scheduler.max_queue = 1;
  config.request.kind = RequestKind::kBer;
  config.request.spec = paper_duplex_spec();
  config.request.times_hours = {24.0, 48.0};
  auto ran = run_loadgen(config);
  ASSERT_TRUE(ran.ok()) << ran.status().to_string();
  const LoadgenReport& report = ran.value();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(report.requests + report.rejected,
            static_cast<std::size_t>(config.clients) *
                config.requests_per_client);
}

TEST(ServiceLoadgen, ShardScalingSweepReportsEveryPoint) {
  LoadgenConfig base;
  base.clients = 2;
  base.requests_per_client = 6;
  base.distinct = 2;
  base.scheduler.threads = 1;
  base.scheduler.max_queue = 128;
  base.request.kind = RequestKind::kSweep;
  base.request.spec = paper_duplex_spec();
  base.request.sweep_param = "tsc";
  base.request.sweep_values = {600.0, 3600.0};
  base.request.sweep_hours = 48.0;
  auto swept = run_shard_scaling(base, {1u, 2u});
  ASSERT_TRUE(swept.ok()) << swept.status().to_string();
  const auto& points = swept.value();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].shards, 1u);
  EXPECT_EQ(points[1].shards, 2u);
  for (const ShardScalingPoint& point : points) {
    EXPECT_EQ(point.report.errors, 0u) << point.shards << " shards";
    EXPECT_GT(point.report.throughput_rps, 0.0);
  }
  // The JSON section carries one entry per point plus the core count.
  const Json json = shard_scaling_json(points);
  EXPECT_GT(json.number_or("cores", 0.0), 0.0);
  const Json* entries = json.find("points");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  ASSERT_EQ(entries->as_array().size(), 2u);
  EXPECT_EQ(entries->as_array()[0].number_or("speedup_vs_1_shard", 0.0), 1.0);
  EXPECT_FALSE(format_shard_scaling(points).empty());

  EXPECT_EQ(run_shard_scaling(base, {}).status().code(),
            core::StatusCode::kInvalidConfig);
  EXPECT_EQ(run_shard_scaling(base, {0u}).status().code(),
            core::StatusCode::kInvalidConfig);
}

TEST(ServiceLoadgen, RejectsNonsenseConfigs) {
  LoadgenConfig config;
  config.clients = 0;
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
  config.clients = 1;
  config.requests_per_client = 1;
  config.request.kind = RequestKind::kPing;  // not an analysis kind
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
  config.request.kind = RequestKind::kSweep;
  config.request.spec = paper_duplex_spec();
  config.request.sweep_param = "tsc";
  config.request.sweep_values = {600.0};
  config.shards = 0;
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
  config.shards = 1;
  config.arrival_rate_rps = -1.0;
  EXPECT_EQ(run_loadgen(config).status().code(),
            core::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace rsmem::service

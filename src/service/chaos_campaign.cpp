#include "service/chaos_campaign.h"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "analysis/table.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/server.h"

namespace rsmem::service {

namespace {

core::MemorySystemSpec paper_spec() {
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kDuplex;
  spec.code = {18, 16, 8, 1};
  spec.seu_rate_per_bit_day = 1e-2;
  spec.scrub_period_seconds = 3600.0;
  return spec;
}

// The churn workload: one small BER request per distinct variant (distinct
// horizons => distinct cache keys, same chain structure => fast solves).
Request ber_request(std::uint64_t variant) {
  Request request;
  request.kind = RequestKind::kBer;
  request.spec = paper_spec();
  request.times_hours = {0.0, 24.0, 48.0 + static_cast<double>(variant)};
  return request;
}

// Heavier request for the brown-out flood (more grid points per solve).
Request heavy_request(std::uint64_t variant) {
  Request request;
  request.kind = RequestKind::kBer;
  request.spec = paper_spec();
  request.times_hours.reserve(16);
  for (int i = 0; i < 16; ++i) {
    request.times_hours.push_back(6.0 * i + static_cast<double>(variant));
  }
  return request;
}

std::string scenario_socket(unsigned index) {
  return "/tmp/rsmem-chaos-" + std::to_string(::getpid()) + "-" +
         std::to_string(index) + ".sock";
}

ServerConfig base_server_config(unsigned index) {
  ServerConfig config;
  config.endpoint = Endpoint::unix_socket(scenario_socket(index));
  config.router.shards = 2;
  config.router.scheduler.threads = 2;
  config.router.scheduler.max_queue = 64;
  config.router.scheduler.cache_capacity = 128;
  return config;
}

RetryPolicy churn_retry_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_ms = 0.5;
  policy.max_backoff_ms = 8.0;
  policy.seed = seed;
  return policy;
}

bool is_timeout(const core::Status& status) {
  return status.message().find("timed out") != std::string::npos;
}

// Every submitted request must land in exactly one of these buckets.
void account(ChaosScenarioResult& result, const core::Result<Response>& called,
             const std::string* expected, bool payload_corruption) {
  ++result.ops;
  if (!called.ok()) {
    if (is_timeout(called.status())) {
      ++result.timeouts;
    } else {
      ++result.transport_errors;
    }
    return;
  }
  const Response& response = called.value();
  if (!response.status.is_ok()) {
    ++result.typed_rejections;
    return;
  }
  ++result.ok;
  if (expected != nullptr && response.result_json != *expected) {
    // An ok response whose bytes differ from the direct core:: execution:
    // with payload corruption being injected that is an OBSERVED mangled
    // delivery (the wire has no integrity check); without it, it would
    // mean the daemon itself served wrong data.
    if (payload_corruption) {
      ++result.corrupt_deliveries;
    } else {
      ++result.mismatches;
    }
  }
}

bool ping_alive(const Endpoint& endpoint, double timeout_ms) {
  // Retry through whatever chaos is still wrapping the transport: alive
  // means "some attempt gets a clean pong", not "the first frame survives".
  RetryPolicy policy = churn_retry_policy(0x417E);
  ResilientClient client(endpoint, policy);
  client.set_receive_timeout(timeout_ms);
  Request request;
  request.kind = RequestKind::kPing;
  const core::Result<Response> called = client.call(request);
  return called.ok() && called.value().status.is_ok();
}

core::Result<Json> fetch_stats(const Endpoint& endpoint, double timeout_ms) {
  core::Result<Client> client = Client::connect(endpoint);
  if (!client.ok()) return client.status();
  (void)client.value().set_receive_timeout(timeout_ms);
  Request request;
  request.kind = RequestKind::kStats;
  core::Result<Response> called = client.value().call(request);
  if (!called.ok()) return called.status();
  if (!called.value().status.is_ok()) return called.value().status;
  return Json::parse(called.value().result_json);
}

std::string fault_detail(const chaos::ChaosCounters& counters) {
  return "torn=" + std::to_string(counters.torn_frames) +
         " len=" + std::to_string(counters.corrupt_lengths) +
         " pay=" + std::to_string(counters.corrupt_payloads) +
         " part=" + std::to_string(counters.partial_writes) +
         " stall=" + std::to_string(counters.stalls) +
         " reset=" + std::to_string(counters.resets) +
         " acc=" + std::to_string(counters.accept_failures);
}

void finish_invariants(ChaosScenarioResult& result) {
  result.invariants_ok =
      result.ops == result.ok + result.typed_rejections +
                        result.transport_errors + result.timeouts &&
      result.timeouts == 0 && result.mismatches == 0 && result.daemon_alive;
}

struct ChurnOptions {
  chaos::ChaosPolicy server_policy;
  chaos::ChaosPolicy client_policy;
  double hedge_after_ms = 0.0;
  // Drive through plain send()/receive() (1:1, in order) instead of the
  // retrying client — used when REQUEST payloads are being corrupted, so a
  // response carrying a mangled id can never wedge an id-matching loop.
  bool pipelined = false;
  bool payload_corruption = false;
  // Corruption scenarios flip bits whose effect depends on the exact
  // response byte-length — which embeds the wall-clock compute_ms — so
  // their ok/transport split and retry-driven fault counts vary run to
  // run even under a fixed seed. They print "." for those columns.
  bool counts_deterministic = true;
};

// The generic churn scenario: one server, one deterministic client-side
// request sequence through a faulty transport, then the audit.
ChaosScenarioResult run_churn_scenario(const ChaosCampaignConfig& config,
                                       unsigned index, const std::string& name,
                                       ChurnOptions options,
                                       const std::vector<std::string>& expected) {
  ChaosScenarioResult result;
  result.name = name;

  // Independent, scenario-keyed fault streams: scenario i replays the
  // same plan regardless of what ran before it.
  options.server_policy.seed = config.seed + 1000 + index;
  options.client_policy.seed = config.seed + 2000 + index;
  std::shared_ptr<chaos::ChaosEngine> server_engine =
      options.server_policy.any()
          ? std::make_shared<chaos::ChaosEngine>(options.server_policy)
          : nullptr;
  std::shared_ptr<chaos::ChaosEngine> client_engine =
      options.client_policy.any()
          ? std::make_shared<chaos::ChaosEngine>(options.client_policy)
          : nullptr;

  ServerConfig server_config = base_server_config(index);
  server_config.chaos = server_engine;
  core::Result<std::unique_ptr<Server>> started = Server::start(server_config);
  if (!started.ok()) {
    result.detail = "server failed to start: " + started.status().message();
    return result;
  }
  const std::unique_ptr<Server> server = std::move(started).value();

  if (options.pipelined) {
    // Plain client, one in-flight frame at a time. The server answers
    // every well-framed request exactly once (a request that fails to
    // parse gets a typed id-0 response), so receive() pairs 1:1 with
    // send() and a corrupted id cannot wedge anything.
    std::optional<Client> client;
    for (std::size_t i = 0; i < config.requests_per_scenario; ++i) {
      if (!client.has_value() || !client->connected()) {
        core::Result<Client> connected =
            Client::connect(server->endpoint(), client_engine);
        if (!connected.ok()) {
          ++result.ops;
          ++result.transport_errors;
          continue;
        }
        client = std::move(connected).value();
        (void)client->set_receive_timeout(config.receive_timeout_ms);
      }
      Request request = ber_request(i % config.distinct);
      request.id = static_cast<std::uint64_t>(i) + 1;
      const core::Result<std::uint64_t> sent = client->send(request);
      if (!sent.ok()) {
        ++result.ops;
        ++result.transport_errors;
        client.reset();
        continue;
      }
      // A corrupted REQUEST may still parse as a different valid request,
      // so the response bytes are not comparable to a fixed expectation;
      // daemon-side integrity is audited by the differential pass below.
      account(result, client->receive(), nullptr, true);
      if (!client->connected()) client.reset();
    }
  } else {
    ResilientClient client(server->endpoint(),
                           [&] {
                             RetryPolicy policy =
                                 churn_retry_policy(config.seed + index);
                             policy.hedge_after_ms = options.hedge_after_ms;
                             return policy;
                           }(),
                           client_engine);
    client.set_receive_timeout(config.receive_timeout_ms);
    for (std::size_t i = 0; i < config.requests_per_scenario; ++i) {
      const std::size_t variant = i % config.distinct;
      account(result, client.call(ber_request(variant)), &expected[variant],
              options.payload_corruption);
    }
  }

  // Differential audit: for every variant, the daemon must still be able
  // to deliver the byte-exact direct-core result through its (still
  // chaotic) transport. Payload corruption can mangle individual
  // deliveries, so each variant gets a few attempts; a variant that NEVER
  // matches means the daemon's state is wrong.
  std::size_t verified = 0;
  {
    ResilientClient checker(server->endpoint(),
                            churn_retry_policy(config.seed + 3000 + index));
    checker.set_receive_timeout(config.receive_timeout_ms);
    for (std::size_t variant = 0; variant < config.distinct; ++variant) {
      bool matched = false;
      for (int attempt = 0; attempt < 16 && !matched; ++attempt) {
        const core::Result<Response> called =
            checker.call(ber_request(variant));
        matched = called.ok() && called.value().status.is_ok() &&
                  called.value().result_json == expected[variant];
      }
      if (matched) {
        ++verified;
      } else {
        ++result.mismatches;
      }
    }
  }

  result.daemon_alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
  chaos::ChaosCounters counters;
  if (server_engine) counters = server_engine->counters();
  if (client_engine) {
    const chaos::ChaosCounters client_counters = client_engine->counters();
    counters.torn_frames += client_counters.torn_frames;
    counters.corrupt_lengths += client_counters.corrupt_lengths;
    counters.corrupt_payloads += client_counters.corrupt_payloads;
    counters.partial_writes += client_counters.partial_writes;
    counters.stalls += client_counters.stalls;
    counters.resets += client_counters.resets;
    counters.accept_failures += client_counters.accept_failures;
  }
  result.faults_injected = counters.total();
  result.counts_deterministic = options.counts_deterministic;
  const std::string verified_detail = " verified=" + std::to_string(verified) +
                                      "/" + std::to_string(config.distinct);
  result.detail = options.counts_deterministic
                      ? fault_detail(counters) + verified_detail
                      : "fault mix tracks response length" + verified_detail;
  finish_invariants(result);
  return result;
}

// Oversized frame announcement => typed kInvalidConfig BEFORE allocation,
// then the connection closes.
ChaosScenarioResult run_max_frame_scenario(const ChaosCampaignConfig& config,
                                           unsigned index) {
  ChaosScenarioResult result;
  result.name = "max-frame-reject";
  ServerConfig server_config = base_server_config(index);
  server_config.max_frame_bytes = 1024;
  core::Result<std::unique_ptr<Server>> started = Server::start(server_config);
  if (!started.ok()) {
    result.detail = "server failed to start: " + started.status().message();
    return result;
  }
  const std::unique_ptr<Server> server = std::move(started).value();

  bool typed_reject = false;
  bool closed_after = false;
  core::Result<int> fd = connect_to(server->endpoint());
  if (fd.ok()) {
    ++result.ops;
    // A bare length prefix announcing 2048 bytes (> the 1024 cap); the
    // body never follows and must never be awaited.
    const unsigned char header[4] = {0x00, 0x00, 0x08, 0x00};
    if (wire::write_all(fd.value(), header, sizeof header).is_ok()) {
      const core::Result<FrameRead> frame = read_frame(fd.value());
      if (frame.ok() && !frame.value().eof) {
        const core::Result<Response> response =
            Response::from_json(frame.value().payload);
        if (response.ok() &&
            response.value().status.code() ==
                core::StatusCode::kInvalidConfig) {
          typed_reject = true;
          ++result.typed_rejections;
        }
      }
      const core::Result<FrameRead> after = read_frame(fd.value());
      closed_after = !after.ok() || after.value().eof;
    }
    ::close(fd.value());
  }
  if (!typed_reject) ++result.transport_errors;  // keep the books balanced

  result.daemon_alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
  result.detail = std::string("typed-reject=") + (typed_reject ? "yes" : "no") +
                  " closed=" + (closed_after ? "yes" : "no");
  finish_invariants(result);
  result.invariants_ok = result.invariants_ok && typed_reject && closed_after;
  return result;
}

// Burst past the per-connection token bucket => typed kOverloaded
// rejections, connection survives. The ok/rejected split depends on wall
// time, so only the booleans are printed.
ChaosScenarioResult run_rate_limit_scenario(const ChaosCampaignConfig& config,
                                            unsigned index) {
  ChaosScenarioResult result;
  result.name = "frame-rate-limit";
  result.counts_deterministic = false;
  ServerConfig server_config = base_server_config(index);
  server_config.max_frames_per_second = 5.0;
  core::Result<std::unique_ptr<Server>> started = Server::start(server_config);
  if (!started.ok()) {
    result.detail = "server failed to start: " + started.status().message();
    return result;
  }
  const std::unique_ptr<Server> server = std::move(started).value();

  core::Result<Client> client = Client::connect(server->endpoint());
  bool survived_connection = false;
  if (client.ok()) {
    (void)client.value().set_receive_timeout(config.receive_timeout_ms);
    Request request;
    request.kind = RequestKind::kPing;
    for (int i = 0; i < 30; ++i) {
      account(result, client.value().call(request), nullptr, false);
    }
    // The rate-limited connection must still be usable afterwards.
    survived_connection = client.value().connected();
  }
  const bool engaged = result.typed_rejections > 0;
  result.daemon_alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
  result.detail = std::string("engaged=") + (engaged ? "yes" : "no") +
                  " connection-survived=" +
                  (survived_connection ? "yes" : "no");
  finish_invariants(result);
  result.invariants_ok =
      result.invariants_ok && engaged && survived_connection;
  return result;
}

// Sustained overload on a 1-worker shard => brown-out sheds cache-miss
// work with typed kBrownout while the control plane stays responsive.
ChaosScenarioResult run_brownout_scenario(const ChaosCampaignConfig& config,
                                          unsigned index) {
  ChaosScenarioResult result;
  result.name = "overload-brownout";
  result.counts_deterministic = false;
  ServerConfig server_config = base_server_config(index);
  server_config.router.shards = 1;
  server_config.router.scheduler.threads = 1;
  server_config.router.scheduler.max_queue = 16;  // brown-out enters at 12
  server_config.router.scheduler.batch_max = 4;
  core::Result<std::unique_ptr<Server>> started = Server::start(server_config);
  if (!started.ok()) {
    result.detail = "server failed to start: " + started.status().message();
    return result;
  }
  const std::unique_ptr<Server> server = std::move(started).value();

  bool saw_brownout = false;
  bool control_plane_ok = false;
  core::Result<Client> client = Client::connect(server->endpoint());
  if (client.ok()) {
    (void)client.value().set_receive_timeout(config.receive_timeout_ms);
    const std::size_t flood = 48;
    std::size_t sent = 0;
    for (std::size_t i = 0; i < flood; ++i) {
      Request request = heavy_request(i);
      request.id = static_cast<std::uint64_t>(i) + 1;
      if (client.value().send(request).ok()) {
        ++sent;
      } else {
        ++result.ops;
        ++result.transport_errors;
      }
    }
    // While the flood is in flight, the control plane must still answer
    // (ping on a second connection — never queued, never shed).
    control_plane_ok = ping_alive(server->endpoint(), config.receive_timeout_ms);
    for (std::size_t i = 0; i < sent; ++i) {
      const core::Result<Response> received = client.value().receive();
      account(result, received, nullptr, false);
      if (received.ok() &&
          received.value().status.code() == core::StatusCode::kBrownout) {
        saw_brownout = true;
      }
    }
  }
  std::uint64_t brownout_entries = 0;
  const core::Result<Json> stats =
      fetch_stats(server->endpoint(), config.receive_timeout_ms);
  if (stats.ok()) {
    if (const Json* scheduler = stats.value().find("scheduler")) {
      brownout_entries = static_cast<std::uint64_t>(
          scheduler->number_or("brownout_entries", 0.0));
    }
  }
  const bool engaged = saw_brownout || brownout_entries > 0;
  result.daemon_alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
  result.detail = std::string("engaged=") + (engaged ? "yes" : "no") +
                  " control-plane=" + (control_plane_ok ? "yes" : "no");
  finish_invariants(result);
  result.invariants_ok = result.invariants_ok && engaged && control_plane_ok;
  return result;
}

// Idle connections get their read side shut down by the reaper; the
// daemon does not leak an fd + thread per abandoned client.
ChaosScenarioResult run_idle_reaper_scenario(const ChaosCampaignConfig& config,
                                             unsigned index) {
  ChaosScenarioResult result;
  result.name = "idle-reaper";
  result.counts_deterministic = false;
  ServerConfig server_config = base_server_config(index);
  server_config.idle_timeout_ms = 50.0;
  core::Result<std::unique_ptr<Server>> started = Server::start(server_config);
  if (!started.ok()) {
    result.detail = "server failed to start: " + started.status().message();
    return result;
  }
  const std::unique_ptr<Server> server = std::move(started).value();

  // Three clients ping once and then go silent (slow-loris shape).
  std::vector<Client> idlers;
  Request ping;
  ping.kind = RequestKind::kPing;
  for (int i = 0; i < 3; ++i) {
    core::Result<Client> connected = Client::connect(server->endpoint());
    if (!connected.ok()) continue;
    (void)connected.value().set_receive_timeout(config.receive_timeout_ms);
    account(result, connected.value().call(ping), nullptr, false);
    idlers.push_back(std::move(connected).value());
  }

  std::uint64_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const core::Result<Json> stats =
        fetch_stats(server->endpoint(), config.receive_timeout_ms);
    if (stats.ok()) {
      reaped = static_cast<std::uint64_t>(
          stats.value().number_or("idle_reaped", 0.0));
      if (reaped >= idlers.size()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool all_reaped = !idlers.empty() && reaped >= idlers.size();
  result.daemon_alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
  result.detail = std::string("reaped-all-idlers=") +
                  (all_reaped ? "yes" : "no");
  finish_invariants(result);
  result.invariants_ok = result.invariants_ok && all_reaped;
  return result;
}

// Snapshot on drain shutdown, warm start on reboot: the second server
// serves the first server's results as cache HITS, byte-identical.
ChaosScenarioResult run_warm_start_scenario(const ChaosCampaignConfig& config,
                                            unsigned index,
                                            const std::vector<std::string>& expected) {
  ChaosScenarioResult result;
  result.name = "snapshot-warm-start";
  const std::string snapshot = "/tmp/rsmem-chaos-" +
                               std::to_string(::getpid()) + "-snap.bin";
  ::unlink(snapshot.c_str());

  {
    ServerConfig first_config = base_server_config(index);
    first_config.snapshot_path = snapshot;
    core::Result<std::unique_ptr<Server>> started =
        Server::start(first_config);
    if (!started.ok()) {
      result.detail = "server failed to start: " + started.status().message();
      return result;
    }
    const std::unique_ptr<Server> server = std::move(started).value();
    ResilientClient client(server->endpoint(),
                           churn_retry_policy(config.seed + index));
    client.set_receive_timeout(config.receive_timeout_ms);
    for (std::size_t variant = 0; variant < config.distinct; ++variant) {
      account(result, client.call(ber_request(variant)), &expected[variant],
              false);
    }
    server->shutdown();  // drain + snapshot save
  }

  std::uint64_t warm_entries = 0;
  std::size_t warm_hits = 0;
  bool alive = false;
  {
    ServerConfig second_config = base_server_config(index + 100);
    second_config.snapshot_path = snapshot;
    core::Result<std::unique_ptr<Server>> started =
        Server::start(second_config);
    if (started.ok()) {
      const std::unique_ptr<Server> server = std::move(started).value();
      const core::Result<Json> stats =
          fetch_stats(server->endpoint(), config.receive_timeout_ms);
      if (stats.ok()) {
        warm_entries = static_cast<std::uint64_t>(
            stats.value().number_or("warm_start_entries", 0.0));
      }
      ResilientClient client(server->endpoint(),
                             churn_retry_policy(config.seed + index + 1));
      client.set_receive_timeout(config.receive_timeout_ms);
      for (std::size_t variant = 0; variant < config.distinct; ++variant) {
        const core::Result<Response> called =
            client.call(ber_request(variant));
        account(result, called, &expected[variant], false);
        if (called.ok() && called.value().status.is_ok() &&
            called.value().cache == CacheSource::kHit) {
          ++warm_hits;
        }
      }
      alive = ping_alive(server->endpoint(), config.receive_timeout_ms);
    }
  }
  ::unlink(snapshot.c_str());

  const bool warmed =
      warm_entries >= config.distinct && warm_hits == config.distinct;
  result.daemon_alive = alive;
  result.detail = "warm-entries=" + std::to_string(warm_entries) +
                  " warm-hits=" + std::to_string(warm_hits) + "/" +
                  std::to_string(config.distinct);
  finish_invariants(result);
  result.invariants_ok = result.invariants_ok && warmed;
  return result;
}

// A corrupt snapshot must produce a clean cold start (error surfaced in
// stats), never a crash or poisoned cache.
ChaosScenarioResult run_corrupt_snapshot_scenario(
    const ChaosCampaignConfig& config, unsigned index,
    const std::vector<std::string>& expected) {
  ChaosScenarioResult result;
  result.name = "corrupt-snapshot";
  const std::string snapshot = "/tmp/rsmem-chaos-" +
                               std::to_string(::getpid()) + "-corrupt.bin";
  {
    std::ofstream file(snapshot, std::ios::binary | std::ios::trunc);
    file << "RSMSgarbage-not-a-valid-snapshot-body-truncated";
  }

  std::uint64_t warm_entries = 0;
  bool error_surfaced = false;
  {
    ServerConfig server_config = base_server_config(index);
    server_config.snapshot_path = snapshot;
    core::Result<std::unique_ptr<Server>> started =
        Server::start(server_config);
    if (!started.ok()) {
      ::unlink(snapshot.c_str());
      result.detail = "server failed to start: " + started.status().message();
      return result;
    }
    const std::unique_ptr<Server> server = std::move(started).value();
    const core::Result<Json> stats =
        fetch_stats(server->endpoint(), config.receive_timeout_ms);
    if (stats.ok()) {
      warm_entries = static_cast<std::uint64_t>(
          stats.value().number_or("warm_start_entries", 0.0));
      error_surfaced =
          !stats.value().string_or("warm_start_error", "").empty();
    }
    ResilientClient client(server->endpoint(),
                           churn_retry_policy(config.seed + index));
    client.set_receive_timeout(config.receive_timeout_ms);
    for (std::size_t variant = 0; variant < config.distinct; ++variant) {
      account(result, client.call(ber_request(variant)), &expected[variant],
              false);
    }
    result.daemon_alive =
        ping_alive(server->endpoint(), config.receive_timeout_ms);
  }
  // The server saves its cache to the snapshot when it is destroyed, so
  // the file is removed only once the server is gone.
  ::unlink(snapshot.c_str());
  const bool cold_start = warm_entries == 0;
  result.detail = std::string("cold-start=") + (cold_start ? "yes" : "no") +
                  " error-surfaced=" + (error_surfaced ? "yes" : "no");
  finish_invariants(result);
  result.invariants_ok =
      result.invariants_ok && cold_start && error_surfaced;
  return result;
}

}  // namespace

core::Result<ChaosCampaignReport> run_chaos_campaign(
    const ChaosCampaignConfig& config) {
  if (config.requests_per_scenario == 0 || config.distinct == 0) {
    return core::Status::invalid_config(
        "chaos campaign needs requests_per_scenario >= 1 and distinct >= 1");
  }
  if (config.receive_timeout_ms <= 0) {
    return core::Status::invalid_config(
        "chaos campaign needs a positive receive timeout (its hang detector)");
  }
  // Injected resets surface as typed errors, never a SIGPIPE kill.
  auto* previous_pipe = std::signal(SIGPIPE, SIG_IGN);

  // The ground truth every ok response is compared against: the same
  // requests executed directly on the core engines.
  std::vector<std::string> expected;
  expected.reserve(config.distinct);
  {
    SchedulerConfig local;
    local.threads = 1;
    AnalysisScheduler direct(local);
    for (std::size_t variant = 0; variant < config.distinct; ++variant) {
      expected.push_back(direct.execute(ber_request(variant)).result_json);
    }
  }

  ChaosCampaignReport report;
  unsigned index = 0;
  const auto add = [&report](ChaosScenarioResult scenario) {
    report.scenarios.push_back(std::move(scenario));
  };

  {
    ChurnOptions clean;
    add(run_churn_scenario(config, index++, "baseline-clean", clean, expected));
  }
  {
    ChurnOptions hedged;
    hedged.hedge_after_ms = 0.2;
    add(run_churn_scenario(config, index++, "hedged-clean", hedged, expected));
  }
  {
    ChurnOptions torn;
    torn.server_policy.torn_frame = 0.25;
    add(run_churn_scenario(config, index++, "server-torn-frames", torn,
                           expected));
  }
  {
    ChurnOptions length;
    length.server_policy.corrupt_length = 0.25;
    length.counts_deterministic = false;
    add(run_churn_scenario(config, index++, "server-corrupt-length", length,
                           expected));
  }
  {
    ChurnOptions payload;
    payload.server_policy.corrupt_payload = 0.25;
    payload.payload_corruption = true;
    payload.counts_deterministic = false;
    add(run_churn_scenario(config, index++, "server-corrupt-payload", payload,
                           expected));
  }
  {
    ChurnOptions requests;
    requests.client_policy.corrupt_payload = 0.25;
    requests.pipelined = true;
    requests.payload_corruption = true;
    requests.counts_deterministic = false;
    add(run_churn_scenario(config, index++, "client-corrupt-requests",
                           requests, expected));
  }
  {
    ChurnOptions resets;
    resets.client_policy.reset_read = 0.3;
    add(run_churn_scenario(config, index++, "mid-response-resets", resets,
                           expected));
  }
  {
    ChurnOptions loris;
    loris.server_policy.stall_write = 0.4;
    loris.server_policy.partial_write = 0.3;
    loris.server_policy.stall_ms = 2.0;
    add(run_churn_scenario(config, index++, "slow-loris-writes", loris,
                           expected));
  }
  {
    ChurnOptions accepts;
    accepts.server_policy.accept_fail = 0.4;
    add(run_churn_scenario(config, index++, "accept-failures", accepts,
                           expected));
  }
  {
    ChurnOptions storm;
    storm.server_policy.torn_frame = 0.08;
    storm.server_policy.corrupt_length = 0.08;
    storm.server_policy.corrupt_payload = 0.08;
    storm.server_policy.partial_write = 0.15;
    storm.server_policy.stall_write = 0.1;
    storm.server_policy.stall_ms = 1.0;
    storm.client_policy.stall_read = 0.1;
    storm.client_policy.reset_read = 0.1;
    storm.client_policy.stall_ms = 1.0;
    storm.server_policy.accept_fail = 0.15;
    storm.payload_corruption = true;
    storm.counts_deterministic = false;
    add(run_churn_scenario(config, index++, "mixed-storm", storm, expected));
  }
  add(run_max_frame_scenario(config, index++));
  add(run_rate_limit_scenario(config, index++));
  add(run_brownout_scenario(config, index++));
  add(run_idle_reaper_scenario(config, index++));
  add(run_warm_start_scenario(config, index++, expected));
  ++index;  // the warm-start scenario used index and index + 100
  add(run_corrupt_snapshot_scenario(config, index++, expected));

  for (const ChaosScenarioResult& scenario : report.scenarios) {
    report.ops += scenario.ops;
    report.ok += scenario.ok;
    report.typed_rejections += scenario.typed_rejections;
    report.transport_errors += scenario.transport_errors;
    report.timeouts += scenario.timeouts;
    report.faults_injected += scenario.faults_injected;
    report.corrupt_deliveries += scenario.corrupt_deliveries;
    report.mismatches += scenario.mismatches;
  }
  std::signal(SIGPIPE, previous_pipe);
  return report;
}

std::string format_chaos_report(const ChaosCampaignConfig& config,
                                const ChaosCampaignReport& report) {
  analysis::Table table{{"scenario", "ops", "ok", "typed", "transport",
                         "faults", "alive", "audit", "detail"}};
  for (const ChaosScenarioResult& scenario : report.scenarios) {
    // Wall-clock-sensitive scenarios print "." for the fields whose split
    // varies run to run; everything else is byte-deterministic per seed.
    const auto count = [&](std::uint64_t value) {
      return scenario.counts_deterministic ? std::to_string(value)
                                           : std::string(".");
    };
    table.add_row({scenario.name, std::to_string(scenario.ops),
                   count(scenario.ok), count(scenario.typed_rejections),
                   count(scenario.transport_errors),
                   count(scenario.faults_injected),
                   scenario.daemon_alive ? "yes" : "NO",
                   scenario.invariants_ok ? "ok" : "FAIL", scenario.detail});
  }
  std::string out = table.to_text();
  out += "\n";
  out += "seed " + std::to_string(config.seed) + ": " +
         std::to_string(report.scenarios.size()) + " scenarios, " +
         std::to_string(report.ops) + " requests, every one accounted for (" +
         std::to_string(report.timeouts) + " hangs, " +
         std::to_string(report.mismatches) + " differential mismatches)\n";
  out += std::string("CHAOS CAMPAIGN ") +
         (report.passed() ? "PASSED" : "FAILED") + "\n";
  return out;
}

}  // namespace rsmem::service

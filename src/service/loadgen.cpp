#include "service/loadgen.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/table.h"

namespace rsmem::service {

namespace {

using Clock = std::chrono::steady_clock;

struct Sample {
  double latency_ms = 0.0;
  CacheSource source = CacheSource::kNone;
  bool ok = false;
  bool rejected = false;  // typed kOverloaded / kBrownout shedding
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       std::ceil(q * static_cast<double>(sorted.size())) - 1));
  return sorted[index];
}

Sample classify(const Response& response, double latency_ms) {
  Sample sample;
  sample.latency_ms = latency_ms;
  if (response.status.is_ok()) {
    sample.ok = true;
    sample.source = response.cache;
  } else if (response.status.code() == core::StatusCode::kOverloaded ||
             response.status.code() == core::StatusCode::kBrownout) {
    // Both are the server's typed relief valves: admission control, and
    // brown-out shedding once the queue passes its threshold.
    sample.rejected = true;
  }
  return sample;
}

// The i-th variant of the template: a distinct horizon => a distinct
// canonical cache key, while staying the same chain structure so the
// variants batch together.
Request variant_of(const Request& base, std::size_t i) {
  Request request = base;
  request.id = 0;  // client assigns
  const double scale = 1.0 + 0.5 * static_cast<double>(i);
  if (request.kind == RequestKind::kSweep) {
    request.sweep_hours = base.sweep_hours * scale;
  } else if (request.kind == RequestKind::kBer) {
    request.times_hours = base.times_hours;
    for (double& t : request.times_hours) t *= scale;
  }
  // kMttf has no horizon: every variant shares one key, which still
  // exercises the hit path (distinct is effectively 1).
  return request;
}

void run_closed_loop_client(Client& client, const LoadgenConfig& config,
                            unsigned c, std::vector<Sample>& samples,
                            std::atomic<std::size_t>& sent_total) {
  samples.reserve(config.requests_per_client);
  for (std::size_t i = 0; i < config.requests_per_client; ++i) {
    const Request request = variant_of(
        config.request, (static_cast<std::size_t>(c) + i) % config.distinct);
    const auto start = Clock::now();
    core::Result<Response> response = client.call(request);
    sent_total.fetch_add(1);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (response.ok()) {
      samples.push_back(classify(response.value(), latency_ms));
    } else {
      Sample failed;
      failed.latency_ms = latency_ms;
      samples.push_back(failed);
    }
  }
}

// One open-loop connection: a sender thread fires requests at their
// scheduled arrival times and never waits for responses; the receiver
// (the calling thread) drains completions, which a sharded server may
// deliver out of order. Send times are keyed by request id under a mutex
// and recorded BEFORE the frame goes out, so a response can never race
// its own bookkeeping. The sender finishes with a sentinel ping: once the
// receiver has seen it, `sent_final` is the exact number of data
// responses still owed, so the receiver never blocks on a frame that is
// not coming.
void run_open_loop_client(Client& client, const LoadgenConfig& config,
                          unsigned c, Clock::time_point t0,
                          std::vector<Sample>& samples,
                          std::atomic<std::size_t>& sent_total) {
  const std::uint64_t sentinel_id =
      static_cast<std::uint64_t>(config.requests_per_client) + 1;
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Clock::time_point> in_flight;
  std::atomic<std::size_t> sent_final{0};

  std::thread sender([&] {
    std::size_t sent = 0;
    for (std::size_t i = 0; i < config.requests_per_client; ++i) {
      if (config.arrival_rate_rps > 0.0) {
        // Arrival j = i * clients + c of the aggregate stream is due at
        // t0 + j / rate: interleaving clients keeps the global rate.
        const double j =
            static_cast<double>(i) * config.clients + static_cast<double>(c);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(j /
                                                   config.arrival_rate_rps)));
      }
      Request request = variant_of(
          config.request, (static_cast<std::size_t>(c) + i) % config.distinct);
      request.id = static_cast<std::uint64_t>(i) + 1;
      {
        std::unique_lock<std::mutex> lock(mutex);
        in_flight.emplace(request.id, Clock::now());
      }
      core::Result<std::uint64_t> sent_id = client.send(std::move(request));
      if (!sent_id.ok()) {
        std::unique_lock<std::mutex> lock(mutex);
        in_flight.erase(static_cast<std::uint64_t>(i) + 1);
        break;  // transport down; unsent requests become errors below
      }
      ++sent;
    }
    sent_total.fetch_add(sent);
    sent_final.store(sent, std::memory_order_release);
    Request ping;
    ping.kind = RequestKind::kPing;
    ping.id = sentinel_id;
    (void)client.send(std::move(ping));
  });

  samples.reserve(config.requests_per_client);
  std::size_t received = 0;
  bool sentinel_seen = false;
  while (true) {
    if (sentinel_seen &&
        received >= sent_final.load(std::memory_order_acquire)) {
      break;
    }
    core::Result<Response> response = client.receive();
    if (!response.ok()) break;  // transport down: outstanding become errors
    const auto now = Clock::now();
    if (response.value().id == sentinel_id) {
      sentinel_seen = true;
      continue;
    }
    Clock::time_point sent_at;
    {
      std::unique_lock<std::mutex> lock(mutex);
      const auto it = in_flight.find(response.value().id);
      if (it == in_flight.end()) continue;  // not one of ours: ignore
      sent_at = it->second;
      in_flight.erase(it);
    }
    ++received;
    samples.push_back(classify(
        response.value(),
        std::chrono::duration<double, std::milli>(now - sent_at).count()));
  }
  sender.join();
  // Sent-but-unanswered (transport failure) and never-sent requests are
  // both errors; default-constructed samples count as exactly that.
  for (std::size_t i = received; i < config.requests_per_client; ++i) {
    samples.push_back(Sample{});
  }
}

}  // namespace

core::Result<LoadgenReport> run_loadgen(const LoadgenConfig& config) {
  if (config.clients == 0 || config.requests_per_client == 0) {
    return core::Status::invalid_config(
        "loadgen needs clients >= 1 and requests >= 1");
  }
  if (config.distinct == 0) {
    return core::Status::invalid_config("loadgen needs distinct >= 1");
  }
  if (config.request.kind != RequestKind::kBer &&
      config.request.kind != RequestKind::kMttf &&
      config.request.kind != RequestKind::kSweep) {
    return core::Status::invalid_config(
        "loadgen template must be an analysis request (ber|mttf|sweep)");
  }
  if (config.shards == 0) {
    return core::Status::invalid_config("loadgen needs shards >= 1");
  }
  if (config.arrival_rate_rps < 0.0) {
    return core::Status::invalid_config("loadgen rate must be >= 0");
  }

  // Self-host: private Unix socket in /tmp, full wire protocol in-process.
  std::unique_ptr<Server> server;
  Endpoint endpoint = config.endpoint;
  if (config.self_host) {
    ServerConfig server_config;
    server_config.router.shards = config.shards;
    server_config.router.scheduler = config.scheduler;
    server_config.endpoint = Endpoint::unix_socket(
        "/tmp/rsmem-loadgen-" + std::to_string(::getpid()) + ".sock");
    core::Result<std::unique_ptr<Server>> started =
        Server::start(server_config);
    if (!started.ok()) {
      core::Status status = started.status();
      return status.with_context("loadgen self-host");
    }
    server = std::move(started).value();
    endpoint = server->endpoint();
  }

  std::vector<std::vector<Sample>> per_client(config.clients);
  std::atomic<int> connect_failures{0};
  std::atomic<std::size_t> sent_total{0};
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (unsigned c = 0; c < config.clients; ++c) {
      threads.emplace_back([&, c] {
        core::Result<Client> client = Client::connect(endpoint);
        if (!client.ok()) {
          connect_failures.fetch_add(1);
          return;
        }
        if (config.open_loop) {
          run_open_loop_client(client.value(), config, c, t0, per_client[c],
                               sent_total);
        } else {
          run_closed_loop_client(client.value(), config, c, per_client[c],
                                 sent_total);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  LoadgenReport report;
  report.elapsed_seconds = elapsed;
  std::vector<double> latencies;
  double sum = 0.0, miss_sum = 0.0, hit_sum = 0.0;
  std::size_t miss_count = 0, hit_count = 0;
  for (const auto& samples : per_client) {
    for (const Sample& sample : samples) {
      if (sample.rejected) {
        ++report.rejected;
        continue;
      }
      if (!sample.ok) {
        ++report.errors;
        continue;
      }
      ++report.requests;
      latencies.push_back(sample.latency_ms);
      sum += sample.latency_ms;
      switch (sample.source) {
        case CacheSource::kMiss:
          ++report.misses;
          miss_sum += sample.latency_ms;
          ++miss_count;
          break;
        case CacheSource::kHit:
          ++report.hits;
          hit_sum += sample.latency_ms;
          ++hit_count;
          break;
        case CacheSource::kWait:
          ++report.waits;
          break;
        case CacheSource::kNone:
          break;
      }
    }
  }
  report.errors += static_cast<std::size_t>(connect_failures.load()) *
                   config.requests_per_client;
  report.offered_rps =
      elapsed > 0.0 ? static_cast<double>(sent_total.load()) / elapsed : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.mean_ms = sum / static_cast<double>(latencies.size());
    report.p50_ms = percentile(latencies, 0.50);
    report.p90_ms = percentile(latencies, 0.90);
    report.p99_ms = percentile(latencies, 0.99);
    report.max_ms = latencies.back();
  }
  if (report.requests > 0) {
    report.hit_rate = static_cast<double>(report.hits + report.waits) /
                      static_cast<double>(report.requests);
    report.throughput_rps =
        elapsed > 0.0 ? static_cast<double>(report.requests) / elapsed : 0.0;
  }
  if (miss_count > 0) {
    report.miss_mean_ms = miss_sum / static_cast<double>(miss_count);
  }
  if (hit_count > 0) {
    report.hit_mean_ms = hit_sum / static_cast<double>(hit_count);
  }
  if (report.miss_mean_ms > 0.0 && report.hit_mean_ms > 0.0) {
    report.hot_speedup = report.miss_mean_ms / report.hit_mean_ms;
  }

  // Final server-side counters over a fresh connection.
  {
    core::Result<Client> client = Client::connect(endpoint);
    if (client.ok()) {
      Request stats;
      stats.kind = RequestKind::kStats;
      core::Result<Response> response = client.value().call(stats);
      if (response.ok() && response.value().status.is_ok()) {
        report.server_stats_json = response.value().result_json;
      }
    }
  }
  if (server) server->shutdown();
  return report;
}

std::string format_loadgen_report(const LoadgenConfig& config,
                                  const LoadgenReport& report) {
  analysis::Table table{{"metric", "value"}};
  table.add_row({"mode", config.open_loop ? "open-loop" : "closed-loop"});
  table.add_row({"shards", std::to_string(config.shards)});
  table.add_row({"clients", std::to_string(config.clients)});
  table.add_row({"requests/client",
                 std::to_string(config.requests_per_client)});
  table.add_row({"distinct keys", std::to_string(config.distinct)});
  table.add_row({"completed", std::to_string(report.requests)});
  table.add_row({"rejected (overload/brown-out)",
                 std::to_string(report.rejected)});
  table.add_row({"errors", std::to_string(report.errors)});
  table.add_row({"elapsed [s]",
                 analysis::format_fixed(report.elapsed_seconds, 3)});
  table.add_row({"offered [req/s]",
                 analysis::format_fixed(report.offered_rps, 1)});
  table.add_row({"throughput [req/s]",
                 analysis::format_fixed(report.throughput_rps, 1)});
  table.add_row({"latency p50 [ms]", analysis::format_fixed(report.p50_ms, 3)});
  table.add_row({"latency p90 [ms]", analysis::format_fixed(report.p90_ms, 3)});
  table.add_row({"latency p99 [ms]", analysis::format_fixed(report.p99_ms, 3)});
  table.add_row({"latency max [ms]", analysis::format_fixed(report.max_ms, 3)});
  table.add_row({"cache hits", std::to_string(report.hits)});
  table.add_row({"cache misses", std::to_string(report.misses)});
  table.add_row({"single-flight waits", std::to_string(report.waits)});
  table.add_row({"hit rate", analysis::format_fixed(report.hit_rate, 3)});
  table.add_row({"miss mean [ms]",
                 analysis::format_fixed(report.miss_mean_ms, 3)});
  table.add_row({"hit mean [ms]",
                 analysis::format_fixed(report.hit_mean_ms, 3)});
  table.add_row({"hot-query speedup",
                 analysis::format_fixed(report.hot_speedup, 1)});
  return table.to_text();
}

std::string loadgen_report_json(const LoadgenConfig& config,
                                const LoadgenReport& report) {
  JsonObject config_json;
  config_json.emplace("clients", static_cast<double>(config.clients));
  config_json.emplace("requests_per_client",
                      static_cast<double>(config.requests_per_client));
  config_json.emplace("distinct", static_cast<double>(config.distinct));
  config_json.emplace("kind", to_string(config.request.kind));
  config_json.emplace("self_host", config.self_host);
  config_json.emplace("shards", static_cast<double>(config.shards));
  config_json.emplace("open_loop", config.open_loop);
  config_json.emplace("arrival_rate_rps", config.arrival_rate_rps);
  JsonObject latency;
  latency.emplace("mean_ms", report.mean_ms);
  latency.emplace("p50_ms", report.p50_ms);
  latency.emplace("p90_ms", report.p90_ms);
  latency.emplace("p99_ms", report.p99_ms);
  latency.emplace("max_ms", report.max_ms);
  JsonObject cache;
  cache.emplace("hits", report.hits);
  cache.emplace("misses", report.misses);
  cache.emplace("waits", report.waits);
  cache.emplace("hit_rate", report.hit_rate);
  JsonObject object;
  object.emplace("config", std::move(config_json));
  object.emplace("requests", static_cast<double>(report.requests));
  object.emplace("rejected", static_cast<double>(report.rejected));
  object.emplace("errors", static_cast<double>(report.errors));
  object.emplace("elapsed_seconds", report.elapsed_seconds);
  object.emplace("offered_rps", report.offered_rps);
  object.emplace("throughput_rps", report.throughput_rps);
  object.emplace("latency_ms", std::move(latency));
  object.emplace("cache", std::move(cache));
  object.emplace("miss_mean_ms", report.miss_mean_ms);
  object.emplace("hit_mean_ms", report.hit_mean_ms);
  object.emplace("hot_query_speedup", report.hot_speedup);
  if (!report.server_stats_json.empty()) {
    core::Result<Json> server = Json::parse(report.server_stats_json);
    if (server.ok()) object.emplace("server", std::move(server).value());
  }
  return Json(std::move(object)).serialize();
}

core::Result<std::vector<ShardScalingPoint>> run_shard_scaling(
    const LoadgenConfig& base, const std::vector<unsigned>& shard_counts) {
  if (shard_counts.empty()) {
    return core::Status::invalid_config(
        "shard scaling needs at least one shard count");
  }
  std::vector<ShardScalingPoint> points;
  points.reserve(shard_counts.size());
  for (unsigned shards : shard_counts) {
    if (shards == 0) {
      return core::Status::invalid_config("shard counts must be >= 1");
    }
    LoadgenConfig config = base;
    config.self_host = true;  // each point needs its own server
    config.open_loop = true;  // measure capacity, not client round-trips
    config.shards = shards;
    core::Result<LoadgenReport> report = run_loadgen(config);
    if (!report.ok()) {
      core::Status status = report.status();
      return status.with_context("shard scaling at " +
                                 std::to_string(shards) + " shards");
    }
    points.push_back(ShardScalingPoint{shards, std::move(report).value()});
  }
  return points;
}

std::string format_shard_scaling(
    const std::vector<ShardScalingPoint>& points) {
  analysis::Table table{{"shards", "throughput [req/s]", "p50 [ms]",
                         "p99 [ms]", "rejected", "errors", "speedup"}};
  const double base_rps =
      points.empty() ? 0.0 : points.front().report.throughput_rps;
  for (const ShardScalingPoint& point : points) {
    const double speedup =
        base_rps > 0.0 ? point.report.throughput_rps / base_rps : 0.0;
    table.add_row({std::to_string(point.shards),
                   analysis::format_fixed(point.report.throughput_rps, 1),
                   analysis::format_fixed(point.report.p50_ms, 3),
                   analysis::format_fixed(point.report.p99_ms, 3),
                   std::to_string(point.report.rejected),
                   std::to_string(point.report.errors),
                   analysis::format_fixed(speedup, 2)});
  }
  return table.to_text();
}

Json shard_scaling_json(const std::vector<ShardScalingPoint>& points) {
  const double base_rps =
      points.empty() ? 0.0 : points.front().report.throughput_rps;
  JsonArray entries;
  entries.reserve(points.size());
  for (const ShardScalingPoint& point : points) {
    JsonObject entry;
    entry.emplace("shards", static_cast<double>(point.shards));
    entry.emplace("requests", static_cast<double>(point.report.requests));
    entry.emplace("rejected", static_cast<double>(point.report.rejected));
    entry.emplace("errors", static_cast<double>(point.report.errors));
    entry.emplace("offered_rps", point.report.offered_rps);
    entry.emplace("throughput_rps", point.report.throughput_rps);
    entry.emplace("p50_ms", point.report.p50_ms);
    entry.emplace("p99_ms", point.report.p99_ms);
    entry.emplace("speedup_vs_1_shard",
                  base_rps > 0.0 ? point.report.throughput_rps / base_rps
                                 : 0.0);
    entries.push_back(Json(std::move(entry)));
  }
  JsonObject object;
  object.emplace("cores", static_cast<double>(
                              std::thread::hardware_concurrency()));
  object.emplace("points", Json(std::move(entries)));
  return Json(std::move(object));
}

}  // namespace rsmem::service

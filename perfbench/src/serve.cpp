// Workload `serve_mixed`: an open loop against an rsmem-serve server on a
// Unix socket.
//
// The server runs in this process (one shard, a worker per core); the load
// comes from the benchmark's own generator over two connections, each with
// one sender and one receiver thread. Requests are drawn from a seeded,
// Zipf-skewed mix of `ber` (exponential and periodic scrubbing), `sweep`
// and `mttf` requests over paper configurations, from a key universe about
// five times the server's total cache. Every request is timed from the
// moment it was DUE (not when it was actually sent) and ends in exactly one
// class: ok, overloaded, brownout, deadline exceeded, other typed status, or
// transport error. Failed or refused requests count as infinitely late.
//
// Phases: set-up (server start and a warm-up until the cache is in steady
// state), a nominal rate, a high rate, then a ladder-and-bisection search
// for the highest rate whose p99 meets kLatencyLimitMs with no failure and
// no growing backlog. An op is one request. Every ok response is checked
// byte for byte against the direct core:: computation for its key.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "core/api.h"
#include "models/ber.h"
#include "probes.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace service = rsmem::service;
namespace core = rsmem::core;
using rsmem::analysis::Arrangement;
using service::Request;
using service::RequestKind;

// Rates frozen on the reference host (4 cores): about a quarter and three
// quarters of the maximum rate measured there.
constexpr double kNominalRps = 1200.0;
constexpr double kHighRps = 3600.0;
// p99 limit of the maximum-rate search. Wider than the 20 ms a dedicated
// host would use: on a shared virtual host a sleeping thread alone can
// wake 5-10 ms late at p99, which would decide the search by itself.
constexpr double kLatencyLimitMs = 50.0;
// A search step's p99 is the median of this many slices' p99s, so a stall
// that lands in one slice does not fail the step.
constexpr std::size_t kSearchWindows = 5;
// With 96 cache entries over 468 keys this keeps misses at 10-20%, so p50
// sits in the hit mode and p99 in the miss mode.
constexpr double kZipfExponent = 1.25;
constexpr std::size_t kCacheEntries = 96;
// Room for a host stall of a few hundred ms at the high rate before
// brown-out sheds anything (the library default is 128).
constexpr std::size_t kMaxQueue = 1024;
constexpr unsigned kConnections = 2;
constexpr double kDeadlineMs = 1000.0;
constexpr std::size_t kTimesPerCurve = 13;

// ---------------------------------------------------------------------------
// Key universe: the paper's headline arrangement, duplex RS(18,16) over
// GF(2^8) with SEUs, permanent faults (erasures) and scrubbing. Every
// analysis on it is a real solve (a miss costs ~0.5 ms for mttf and ~2-6 ms
// for the curves and sweeps), so misses form their own latency mode above
// the hits.

constexpr double kSeu[] = {1e-6,   2e-6,   3.6e-6, 5e-6, 7.3e-6, 1e-5,
                           1.7e-5, 2.5e-5, 3.6e-5, 5e-5, 7.3e-5, 1e-4};
constexpr double kErasure[] = {1e-6, 3e-6, 1e-5};

core::MemorySystemSpec spec_of(double seu, double erasure, double tsc) {
  core::MemorySystemSpec spec;
  spec.arrangement = Arrangement::kDuplex;
  spec.code = {18, 16, 8, 1};
  spec.seu_rate_per_bit_day = seu;
  spec.erasure_rate_per_symbol_day = erasure;
  spec.scrub_period_seconds = tsc;
  return spec;
}

Request ber_request(const core::MemorySystemSpec& spec, double hours,
                    bool periodic) {
  Request r;
  r.kind = RequestKind::kBer;
  r.spec = spec;
  r.periodic = periodic;
  r.times_hours = rsmem::models::time_grid_hours(hours, kTimesPerCurve);
  return r;
}

Request sweep_request(const core::MemorySystemSpec& spec, const char* param,
                      std::vector<double> values, double hours) {
  Request r;
  r.kind = RequestKind::kSweep;
  r.spec = spec;
  r.sweep_param = param;
  r.sweep_values = std::move(values);
  r.sweep_hours = hours;
  return r;
}

// Every key, in a fixed order.
std::vector<Request> key_universe() {
  std::vector<Request> keys;
  for (const double seu : kSeu) {
    for (const double erasure : kErasure) {
      for (const double tsc : {1800.0, 2700.0, 3600.0}) {
        for (const double h : {24.0, 48.0}) {
          keys.push_back(ber_request(spec_of(seu, erasure, tsc), h, false));
        }
      }
      for (const double tsc : {0.0, 1800.0, 3600.0}) {
        Request r;
        r.kind = RequestKind::kMttf;
        r.spec = spec_of(seu, erasure, tsc);
        keys.push_back(r);
      }
      keys.push_back(sweep_request(spec_of(seu, erasure, 0.0), "tsc",
                                   {1800.0, 2700.0, 3600.0, 5400.0}, 48.0));
    }
    for (const double erasure : {1e-6, 1e-5}) {
      for (const double tsc : {3600.0, 7200.0}) {
        keys.push_back(ber_request(spec_of(seu, erasure, tsc), 24.0, true));
      }
    }
    for (const double tsc : {1800.0, 3600.0}) {
      keys.push_back(sweep_request(spec_of(seu, 0.0, tsc), "perm",
                                   {1e-6, 3e-6, 1e-5, 3e-5}, 48.0));
    }
  }
  for (const double erasure : kErasure) {
    for (const double tsc : {1800.0, 2700.0, 3600.0}) {
      for (const double h : {24.0, 48.0, 72.0, 96.0}) {
        keys.push_back(sweep_request(spec_of(1e-5, erasure, tsc), "seu",
                                     {2e-6, 1e-5, 3.6e-5, 1e-4}, h));
      }
    }
  }
  return keys;
}

// Cost class of a key: everything but the fault rates, which barely move
// the solve time.
std::string cost_class(const Request& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s|%d|%s|%g|%g|%zu", to_string(r.kind),
                r.periodic ? 1 : 0, r.sweep_param.c_str(),
                r.spec.scrub_period_seconds,
                r.kind == RequestKind::kSweep ? r.sweep_hours
                : r.times_hours.empty()       ? 0.0
                                              : r.times_hours.back(),
                r.sweep_values.size());
  return buf;
}

// The universe in popularity-rank order. The cost class of each rank
// follows a fixed proportional interleave, so every seed puts the same mix
// of request kinds and solve costs at every popularity level; which key of
// a class holds a rank is shuffled by the seed.
std::vector<Request> ranked_universe(rsmem::sim::Rng& rng) {
  std::map<std::string, std::vector<Request>> classes;
  std::size_t total = 0;
  for (Request& r : key_universe()) {
    classes[cost_class(r)].push_back(std::move(r));
    total += 1;
  }
  std::vector<std::vector<Request>> families;
  for (auto& [name, keys] : classes) {
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.uniform_int(i + 1)]);
    }
    families.push_back(std::move(keys));
  }
  std::vector<Request> ranked;
  std::vector<std::size_t> taken(families.size(), 0);
  while (ranked.size() < total) {
    std::size_t best = 0;
    double best_fill = 2.0;
    for (std::size_t f = 0; f < families.size(); ++f) {
      if (taken[f] == families[f].size()) continue;
      const double fill = (static_cast<double>(taken[f]) + 0.5) /
                          static_cast<double>(families[f].size());
      if (fill < best_fill) {
        best_fill = fill;
        best = f;
      }
    }
    ranked.push_back(families[best][taken[best]++]);
  }
  return ranked;
}

class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(rsmem::sim::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The direct core:: computation of a request, serialized the way the
// service documents its results (see docs/SERVICE.md).
core::Result<std::string> direct_result(const Request& request) {
  using service::Json;
  using service::JsonObject;
  const auto curve_json = [](const rsmem::models::BerCurve& curve) {
    JsonObject object;
    object.emplace("times_hours", Json::from_doubles(curve.times_hours));
    object.emplace("fail_probability",
                   Json::from_doubles(curve.fail_probability));
    object.emplace("ber", Json::from_doubles(curve.ber));
    return Json(std::move(object)).serialize();
  };
  if (request.kind == RequestKind::kBer) {
    const auto curve =
        request.periodic
            ? rsmem::try_analyze_ber_periodic_scrub(request.spec,
                                                    request.times_hours)
            : rsmem::try_analyze_ber(request.spec, request.times_hours);
    if (!curve.ok()) return curve.status();
    return curve_json(curve.value());
  }
  if (request.kind == RequestKind::kMttf) {
    const auto hours = rsmem::try_mttf_hours(request.spec);
    if (!hours.ok()) return hours.status();
    JsonObject object;
    object.emplace("mttf_hours", hours.value());
    return Json(std::move(object)).serialize();
  }
  std::vector<double> fail;
  std::vector<double> ber;
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
    const auto curve = rsmem::try_analyze_ber(spec, times);
    if (!curve.ok()) return curve.status();
    fail.push_back(curve.value().fail_probability.front());
    ber.push_back(curve.value().ber.front());
  }
  JsonObject object;
  object.emplace("param", request.sweep_param);
  object.emplace("hours", request.sweep_hours);
  object.emplace("values", Json::from_doubles(request.sweep_values));
  object.emplace("fail_probability", Json::from_doubles(fail));
  object.emplace("ber", Json::from_doubles(ber));
  return Json(std::move(object)).serialize();
}

// ---------------------------------------------------------------------------
// Open-loop generator.

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kOverloaded,
  kBrownout,
  kDeadline,
  kOtherStatus,
  kTransport,
};

struct Record {
  std::int64_t due_ns = 0;
  std::int64_t send_start_ns = 0;
  std::int64_t send_end_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint32_t key = 0;
  Outcome outcome = Outcome::kPending;
  service::CacheSource cache = service::CacheSource::kNone;
  double compute_ms = 0.0;
  std::uint64_t hash = 0;
};

Outcome classify(const core::Status& status) {
  switch (status.code()) {
    case core::StatusCode::kOk: return Outcome::kOk;
    case core::StatusCode::kOverloaded: return Outcome::kOverloaded;
    case core::StatusCode::kBrownout: return Outcome::kBrownout;
    case core::StatusCode::kDeadlineExceeded: return Outcome::kDeadline;
    default: return Outcome::kOtherStatus;
  }
}

// One connection: the sender runs per phase, the receiver for the whole
// workload. Request i of the connection carries id i + 1.
class Connection {
 public:
  Connection(service::Client client, std::size_t capacity, std::uint64_t seed)
      : client_(std::move(client)), records_(capacity), rng_(seed) {
    receiver_ = std::thread([this] { receive_loop(); });
  }
  ~Connection() { stop(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends `count` requests due every `interval_ns` from `start_ns`, keys
  // drawn from the sampler. Returns the index range [begin, end) used.
  std::pair<std::size_t, std::size_t> send_phase(
      const std::vector<Request>& universe, const ZipfSampler& zipf,
      std::int64_t start_ns, double interval_ns, std::size_t count) {
    const std::size_t begin = sent_.load(std::memory_order_relaxed);
    const std::size_t end = std::min(begin + count, records_.size());
    for (std::size_t i = begin; i < end; ++i) {
      Record& record = records_[i];
      record.key = static_cast<std::uint32_t>(zipf(rng_));
      record.due_ns = start_ns + static_cast<std::int64_t>(
                                     static_cast<double>(i - begin) * interval_ns);
      const std::int64_t wait = record.due_ns - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      Request request = universe[record.key];
      request.id = i + 1;
      request.deadline_ms = kDeadlineMs;
      record.send_start_ns = now_ns();
      sent_.store(i + 1, std::memory_order_release);
      const auto sent = client_.send(std::move(request));
      record.send_end_ns = now_ns();
      if (!sent.ok()) {
        record.outcome = Outcome::kTransport;
        record.recv_ns = record.send_end_ns;
        done_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    return {begin, end};
  }

  // Waits until every request sent so far is answered, or the timeout
  // passes (the unanswered ones then count as transport errors).
  void drain(double timeout_s) {
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (done_.load(std::memory_order_acquire) <
               sent_.load(std::memory_order_acquire) &&
           now_ns() < stop) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  const Record& record(std::size_t i) const { return records_[i]; }

  void stop() {
    if (!receiver_.joinable()) return;
    client_.cancel();
    receiver_.join();
    client_.close();
  }

 private:
  void receive_loop() {
    for (;;) {
      auto response = client_.receive();
      const std::int64_t t = now_ns();
      if (!response.ok()) return;  // cancelled or broken
      const service::Response& r = response.value();
      if (r.id == 0 || r.id > records_.size()) continue;
      Record& record = records_[r.id - 1];
      if (record.outcome != Outcome::kPending) continue;
      record.recv_ns = t;
      record.cache = r.cache;
      record.compute_ms = r.compute_ms;
      record.outcome = classify(r.status);
      if (record.outcome == Outcome::kOk) record.hash = fnv1a(r.result_json);
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  service::Client client_;
  std::vector<Record> records_;
  rsmem::sim::Rng rng_;
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> done_{0};
  std::thread receiver_;  // declared last: uses every member above
};

// Server-side counters from a `stats` request (merged across shards).
struct ServerCounters {
  double accepted = 0, rejected_overload = 0, deadline_expired = 0;
  double batches = 0, max_batch = 0, brownout_shed = 0;
  double queue_depth = 0, evictions = 0;
};

ServerCounters query_stats(service::Client& client) {
  Request request;
  request.kind = RequestKind::kStats;
  ServerCounters c;
  const auto response = client.call(request);
  if (!response.ok() || !response.value().status.is_ok()) return c;
  const auto json = service::Json::parse(response.value().result_json);
  if (!json.ok()) return c;
  const service::Json* scheduler = json.value().find("scheduler");
  const service::Json* cache = json.value().find("cache");
  if (scheduler == nullptr || cache == nullptr) return c;
  c.accepted = scheduler->number_or("accepted", 0);
  c.rejected_overload = scheduler->number_or("rejected_overload", 0);
  c.deadline_expired = scheduler->number_or("deadline_expired", 0);
  c.batches = scheduler->number_or("batches", 0);
  c.max_batch = scheduler->number_or("max_batch", 0);
  c.brownout_shed = scheduler->number_or("brownout_shed", 0);
  c.queue_depth = scheduler->number_or("queue_depth", 0);
  c.evictions = cache->number_or("evictions", 0);
  return c;
}

struct PhaseStats {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t by_outcome[7] = {};
  double p50_ms = 0, p99_ms = 0, goodput_rps = 0, lag_p99_ms = 0;
  bool backlog_growing = false;
  double queue_depth_max = 0;
  ServerCounters before, after;
  std::vector<std::pair<unsigned, std::size_t>> ok_records;  // (conn, index)
};

class Bench {
 public:
  Bench(const Options& options, Result& result)
      : options_(options), result_(result), rng_(options.seed) {}

  // Server start, connections, and warm-up to a steady-state cache.
  void setup() {
    universe_ = ranked_universe(rng_);
    zipf_ = std::make_unique<ZipfSampler>(universe_.size(), kZipfExponent);
    socket_path_ = "perfbench-" + std::to_string(::getpid()) + ".sock";
    service::ServerConfig config;
    config.endpoint = service::Endpoint::unix_socket(socket_path_);
    config.router.shards = 1;  // the rsmem_cli serve default
    config.router.scheduler.cache_capacity = kCacheEntries;
    config.router.scheduler.max_queue = kMaxQueue;
    auto server = service::Server::start(config);
    if (!server.ok()) throw std::runtime_error(server.status().to_string());
    server_ = std::move(server).value();
    // Records for every phase: warm-up and nominal time at the nominal
    // rate, and the high rate and the search (up to ~4x the high rate)
    // over the remaining time.
    const std::size_t capacity =
        static_cast<std::size_t>((kNominalRps * (1.5 + options_.seconds) +
                                  kHighRps * 4.0 * options_.seconds) /
                                 kConnections) +
        4096;
    for (unsigned c = 0; c < kConnections; ++c) {
      auto client = service::Client::connect(server_->endpoint());
      if (!client.ok()) throw std::runtime_error(client.status().to_string());
      connections_.push_back(std::make_unique<Connection>(
          std::move(client).value(), capacity, rng_.uniform_int(1ull << 62)));
    }
    auto stats = service::Client::connect(server_->endpoint());
    if (!stats.ok()) throw std::runtime_error(stats.status().to_string());
    stats_client_ = std::move(stats).value();
    run_phase(kNominalRps, 1.5, false, 1);  // warm-up: fills every shard's LRU
  }

  ~Bench() {
    connections_.clear();
    stats_client_.close();
    if (server_) server_->shutdown();
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // One open-loop phase at `rps` for `seconds`; samples server stats from
  // this thread while the senders run when `sample` is set. p99 is the
  // median over `windows` equal slices of the phase (by due time) of each
  // slice's p99, so one host stall moves one slice, not the figure.
  PhaseStats run_phase(double rps, double seconds, bool sample,
                       std::size_t windows) {
    PhaseStats stats;
    stats.before = query_stats(stats_client_);
    const double interval_ns = 1e9 * kConnections / rps;
    const std::size_t count =
        static_cast<std::size_t>(std::ceil(rps * seconds / kConnections));
    const std::int64_t start = now_ns() + 2'000'000;
    std::vector<std::pair<std::size_t, std::size_t>> ranges(kConnections);
    std::vector<std::thread> senders;
    std::atomic<unsigned> finished{0};
    for (unsigned c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        ranges[c] = connections_[c]->send_phase(
            universe_, *zipf_,
            start + static_cast<std::int64_t>(interval_ns * c / kConnections),
            interval_ns, count);
        finished.fetch_add(1);
      });
    }
    while (sample && finished.load() < kConnections) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const ServerCounters now = query_stats(stats_client_);
      stats.queue_depth_max = std::max(stats.queue_depth_max, now.queue_depth);
    }
    for (auto& t : senders) t.join();
    for (auto& c : connections_) c->drain(kDeadlineMs / 1e3 + 2.0);
    stats.after = query_stats(stats_client_);

    std::vector<double> latency;
    std::vector<double> lag;
    std::vector<std::pair<std::int64_t, double>> by_due;  // (due, latency)
    std::int64_t last_recv = start;
    for (unsigned c = 0; c < kConnections; ++c) {
      for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
        const Record& r = connections_[c]->record(i);
        const Outcome outcome =
            r.outcome == Outcome::kPending ? Outcome::kTransport : r.outcome;
        stats.requests += 1;
        stats.by_outcome[static_cast<int>(outcome)] += 1;
        const bool ok = outcome == Outcome::kOk;
        stats.ok += ok ? 1 : 0;
        stats.failed += ok ? 0 : 1;
        const double ms =
            ok ? static_cast<double>(r.recv_ns - r.due_ns) * 1e-6
               : std::numeric_limits<double>::infinity();
        latency.push_back(ms);
        by_due.emplace_back(r.due_ns, ms);
        lag.push_back(static_cast<double>(r.send_start_ns - r.due_ns) * 1e-6);
        if (ok) {
          last_recv = std::max(last_recv, r.recv_ns);
          stats.ok_records.emplace_back(c, i);
          seen_.emplace_back(c, i);
        }
      }
    }
    std::sort(by_due.begin(), by_due.end());
    std::vector<double> window_p99;
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> slice;
      for (std::size_t i = by_due.size() * w / windows;
           i < by_due.size() * (w + 1) / windows; ++i) {
        slice.push_back(by_due[i].second);
      }
      if (!slice.empty()) window_p99.push_back(quantile(slice, 0.99));
    }
    stats.p50_ms = quantile(latency, 0.50);
    stats.p99_ms = median(window_p99);
    stats.lag_p99_ms = quantile(lag, 0.99);
    stats.goodput_rps = static_cast<double>(stats.ok) /
                        std::max(1e-9, static_cast<double>(last_recv - start) * 1e-9);
    // Backlog: the last quarter of the phase, by due time, running later
    // (median) than the first quarter by more than a quarter of the limit.
    const std::size_t q = by_due.size() / 4;
    if (q > 0) {
      std::vector<double> head;
      std::vector<double> tail;
      for (std::size_t i = 0; i < q; ++i) {
        head.push_back(by_due[i].second);
        tail.push_back(by_due[by_due.size() - 1 - i].second);
      }
      stats.backlog_growing =
          median(tail) - median(head) > kLatencyLimitMs / 4;
    }
    return stats;
  }

  bool meets_limit(const PhaseStats& s) const {
    return s.failed == 0 && s.p99_ms <= kLatencyLimitMs && !s.backlog_growing;
  }

  // Ladder from the high rate in x1.25 steps until the limit flips, then
  // bisect geometrically down to a 3% bracket. Returns the ok responses per
  // second measured at the highest rate that met the limit (the offered
  // rate itself is a point on the search's grid).
  double max_rate(double budget_s) {
    constexpr int kMaxSteps = 8;
    const double step_s = budget_s / kMaxSteps;
    double pass = 0.0;
    double pass_goodput = 0.0;
    double fail = 0.0;
    double rate = kHighRps;
    int steps = 0;
    const auto step = [&](double offered) {
      const PhaseStats s = run_phase(offered, step_s, false, kSearchWindows);
      steps += 1;
      if (!meets_limit(s)) return false;
      if (offered > pass) {
        pass = offered;
        pass_goodput = s.goodput_rps;
      }
      return true;
    };
    while (steps < kMaxSteps) {
      if (step(rate)) {
        if (fail > 0.0) break;
        rate *= 1.25;
      } else {
        fail = rate;
        if (pass > 0.0) break;
        rate /= 1.25;
      }
    }
    while (steps < kMaxSteps && pass > 0.0 && fail > 0.0 &&
           fail / pass > 1.03) {
      const double mid = std::sqrt(pass * fail);
      if (!step(mid)) fail = mid;
    }
    result_.note("max_rate_steps", std::to_string(steps));
    result_.note("max_rate_offered_rps", json_number(pass));
    return pass_goodput;
  }

  // Byte-identity of every ok response with the direct core:: result for
  // its key; returns the number of mismatching responses.
  std::size_t verify() {
    std::vector<std::uint32_t> keys;
    for (const auto& [c, i] : seen_) keys.push_back(connections_[c]->record(i).key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<std::string> bodies(keys.size());
    rsmem::analysis::parallel_for_indexed(
        keys.size(), host_threads(), [&](std::size_t j) {
          const auto body = direct_result(universe_[keys[j]]);
          if (body.ok()) bodies[j] = body.value();
        });
    for (std::size_t j = 0; j < keys.size(); ++j) {
      expected_[keys[j]] = std::move(bodies[j]);
    }
    std::size_t mismatches = 0;
    for (const auto& [c, i] : seen_) {
      const Record& r = connections_[c]->record(i);
      const std::string& body = expected_[r.key];
      if (body.empty() || fnv1a(body) != r.hash) mismatches += 1;
    }
    result_.note("keys_verified", std::to_string(keys.size()));
    return mismatches;
  }

  const Record& record(unsigned c, std::size_t i) const {
    return connections_[c]->record(i);
  }
  // The direct result for a key checked by verify(); empty otherwise.
  const std::string& expected_body(std::uint32_t key) const {
    static const std::string kNone;
    const auto it = expected_.find(key);
    return it == expected_.end() ? kNone : it->second;
  }
  const std::vector<Request>& universe() const { return universe_; }

 private:
  const Options& options_;
  Result& result_;
  rsmem::sim::Rng rng_;
  std::vector<Request> universe_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::string socket_path_;
  std::unique_ptr<service::Server> server_;
  std::vector<std::unique_ptr<Connection>> connections_;
  service::Client stats_client_;
  // Every ok response so far, as (connection, record index).
  std::vector<std::pair<unsigned, std::size_t>> seen_;
  std::map<std::uint32_t, std::string> expected_;  // key -> direct result
};

std::string outcome_json(const PhaseStats& s) {
  static const char* const kNames[] = {"pending",  "ok",          "overloaded",
                                       "brownout", "deadline",    "other_status",
                                       "transport"};
  std::string out = "{";
  for (int i = 1; i < 7; ++i) {
    out += (i == 1 ? "" : ",") + json_string(kNames[i]) + ":" +
           std::to_string(s.by_outcome[i]);
  }
  return out + "}";
}

// Counts a phase at the nominal rate, where every request must succeed.
// Phases at the high rate, like the search's steps, probe the load the
// server takes: a slow stretch of the host can push them past capacity, so
// their refusals are recorded as info (and in the service.* counters of
// traced runs) instead of as failed operations.
void count(Result& result, const PhaseStats& s) {
  result.attempted += s.requests;
  result.failed += s.failed;
}

// Per-request stage spans of the ok requests of one phase, rebuilt from
// the generator's records: the request (due -> response read), with the
// generator's lateness, the client send (request JSON + frame write), and
// the server's compute time (only its duration crosses the wire, so it is
// placed to end when the response was read).
void add_request_spans(Tracer& tracer, const Bench& bench,
                       const PhaseStats& phase) {
  for (const auto& [c, i] : phase.ok_records) {
    const Record& r = bench.record(c, i);
    const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | (i + 1);
    const std::int64_t root =
        tracer.add("service.request", r.due_ns, r.recv_ns, -1, id);
    tracer.add("service.gen_lag", r.due_ns, r.send_start_ns, root, id);
    tracer.add("service.client_send", r.send_start_ns, r.send_end_ns, root, id);
    const auto compute_ns = static_cast<std::int64_t>(r.compute_ms * 1e6);
    tracer.add("service.compute", r.recv_ns - compute_ns, r.recv_ns, root, id);
  }
}

// Mean cost of encoding a request and decoding a response, on a sample of
// one phase's traffic (after verify(), which supplies the result bodies).
std::pair<double, double> json_costs_us(const Bench& bench,
                                        const PhaseStats& phase,
                                        Result& result) {
  std::vector<Request> requests;
  std::vector<std::string> responses;
  for (const auto& [c, i] : phase.ok_records) {
    if (requests.size() == 2000) break;
    const Record& r = bench.record(c, i);
    requests.push_back(bench.universe()[r.key]);
    requests.back().id = i + 1;
    service::Response response;
    response.id = i + 1;
    response.cache = r.cache;
    response.compute_ms = r.compute_ms;
    response.result_json = bench.expected_body(r.key);
    responses.push_back(response.to_json());
  }
  if (requests.empty()) return {0.0, 0.0};
  std::size_t bytes = 0;
  const std::int64_t t0 = now_ns();
  for (const Request& request : requests) bytes += request.to_json().size();
  const std::int64_t t1 = now_ns();
  for (const std::string& text : responses) {
    bytes += service::Response::from_json(text).value().result_json.size();
  }
  const std::int64_t t2 = now_ns();
  result.note("json_sample_bytes", std::to_string(bytes));
  const double n = static_cast<double>(requests.size());
  return {static_cast<double>(t1 - t0) * 1e-3 / n,
          static_cast<double>(t2 - t1) * 1e-3 / n};
}

}  // namespace

void run_serve_mixed(const Options& options, Tracer& tracer, Result& result) {
  Bench bench(options, result);
  bench.setup();
  result.setup_s = seconds_since(options.start_ns);
  if (options.setup_only) return;

  if (!tracer.enabled()) {
    // A fifth of the time alternates short phases at the nominal and the
    // high rate (so a slow stretch of the host hits both rates alike; each
    // figure is the median over its phases); the rest is the search.
    constexpr int kPairs = 2;
    const double phase_s = 0.2 * options.seconds / (2 * kPairs);
    std::vector<double> p50, p99, p99_high, goodput_high, lag, lag_high;
    std::size_t high_failed = 0;
    for (int i = 0; i < kPairs; ++i) {
      const PhaseStats nominal = bench.run_phase(kNominalRps, phase_s, false, 1);
      const PhaseStats high = bench.run_phase(kHighRps, phase_s, false, 1);
      count(result, nominal);
      high_failed += high.failed;
      p50.push_back(nominal.p50_ms);
      p99.push_back(nominal.p99_ms);
      lag.push_back(nominal.lag_p99_ms);
      p99_high.push_back(high.p99_ms);
      goodput_high.push_back(high.goodput_rps);
      lag_high.push_back(high.lag_p99_ms);
      if (nominal.failed + high.failed > 0) {
        std::printf("serve_mixed: phase pair %d: nominal %s high %s\n", i,
                    outcome_json(nominal).c_str(), outcome_json(high).c_str());
      }
    }
    const double max_rate = bench.max_rate(0.8 * options.seconds);
    const std::size_t mismatches = bench.verify();
    if (mismatches > 0) {
      result.failed += mismatches;
      result.mismatch(std::to_string(mismatches) +
                      " responses differ from the direct core:: result");
    }
    std::printf("serve_mixed: %d x (%.2f s at %.0f rps + %.2f s at %.0f rps), "
                "max rate %.0f rps\n",
                kPairs, phase_s, kNominalRps, phase_s, kHighRps, max_rate);
    // The latency percentiles swing several-fold with the host's
    // neighbours (see perfbench/README.md): recorded in the run's info,
    // not reported as metrics.
    result.note("latency_ms_p50", json_number(median(p50)));
    result.note("latency_ms_p99", json_number(median(p99)));
    result.note("latency_ms_p99_high", json_number(median(p99_high)));
    std::printf("serve_mixed: latency p50 %.3f ms, p99 %.3f ms, p99 at the "
                "high rate %.3f ms\n",
                median(p50), median(p99), median(p99_high));
    result.metric("ops_per_s", max_rate, "1/s");
    result.note("goodput_rps_high", json_number(median(goodput_high)));
    result.note("high_rate_failed", std::to_string(high_failed));
    result.note("gen_lag_ms_p99_nominal", json_number(median(lag)));
    result.note("gen_lag_ms_p99_high", json_number(median(lag_high)));
    return;
  }

  // Traced run: fixed request counts. The nominal rate untraced, then
  // traced (server stats sampled, spans built), then the high rate traced.
  const double s = std::max(2.0, options.seconds / 3.0);
  const std::size_t windows = static_cast<std::size_t>(s);
  const PhaseStats off = bench.run_phase(kNominalRps, s, false, windows);
  count(result, off);
  const PhaseStats on = bench.run_phase(kNominalRps, s, true, windows);
  count(result, on);
  add_request_spans(tracer, bench, on);
  std::vector<double> overhead;
  std::vector<double> compute_miss;
  std::size_t hits = 0, misses = 0, waits = 0;
  for (const auto& [c, i] : on.ok_records) {
    const Record& r = bench.record(c, i);
    overhead.push_back(static_cast<double>(r.recv_ns - r.send_start_ns) * 1e-6 -
                       r.compute_ms);
    if (r.cache == service::CacheSource::kHit) hits += 1;
    if (r.cache == service::CacheSource::kWait) waits += 1;
    if (r.cache == service::CacheSource::kMiss) {
      misses += 1;
      compute_miss.push_back(r.compute_ms);
    }
  }
  const PhaseStats high = bench.run_phase(kHighRps, s, true, windows);
  result.note("high_rate_outcomes", outcome_json(high));
  const std::size_t mismatches = bench.verify();
  if (mismatches > 0) {
    result.failed += mismatches;
    result.mismatch(std::to_string(mismatches) +
                    " responses differ from the direct core:: result");
  }
  const auto [encode_us, decode_us] = json_costs_us(bench, on, result);
  const double ok =
      std::max<double>(1.0, static_cast<double>(on.ok_records.size()));

  result.op_name = "request at the nominal rate";
  double attributed = 0.0;
  for (const auto& [name, ms] : tracer.self_ms_by_name()) {
    if (name == "service.request") continue;
    result.stages.push_back({name, ms / ok});
    attributed += ms / ok;
  }
  const double total = tracer.root_ms() / ok;
  result.stages.push_back({"unattributed", total - attributed});
  result.metric("unattributed_ms", total - attributed, "ms");
  result.metric("total_ms", total, "ms");
  add_stage_shares(result);
  // Millisecond figures of this workload alone: in the run's info.
  double compute_mean = 0.0;
  for (const double v : compute_miss) compute_mean += v;
  result.note("markov_solve_ms_mean_miss",
              json_number(compute_miss.empty()
                              ? 0.0
                              : compute_mean / compute_miss.size()));
  result.note("service_overhead_ms_p50", json_number(quantile(overhead, 0.5)));
  result.note("service_json_encode_us", json_number(encode_us));
  result.note("service_json_decode_us", json_number(decode_us));
  result.note("service_compute_ms_p50_miss",
              json_number(quantile(compute_miss, 0.5)));
  result.note("service_gen_lag_ms_p99", json_number(on.lag_p99_ms));
  result.metric("service.hit_share", hits / ok, "share");
  result.metric("service.miss_share", misses / ok, "share");
  result.metric("service.wait_share", waits / ok, "share");
  const ServerCounters& a = on.before;
  const ServerCounters& b = high.after;
  result.metric("service.evictions", b.evictions - a.evictions, "count");
  result.metric("service.batch_mean",
                (b.accepted - a.accepted) / std::max(1.0, b.batches - a.batches),
                "count");
  result.metric("service.batch_max", b.max_batch, "count");
  result.metric("service.queue_depth_max",
                std::max(on.queue_depth_max, high.queue_depth_max), "count");
  result.metric("service.brownout_shed", b.brownout_shed - a.brownout_shed,
                "count");
  result.metric("service.rejected_overload",
                b.rejected_overload - a.rejected_overload, "count");
  result.metric("service.deadline_expired",
                b.deadline_expired - a.deadline_expired, "count");
  result.metric("trace.overhead_pct",
                100.0 * (on.p50_ms - off.p50_ms) / off.p50_ms, "%");
  result.note("latency_ms_p50", json_number(off.p50_ms));
  result.note("latency_ms_p99", json_number(off.p99_ms));
  result.note("latency_ms_p99_high", json_number(high.p99_ms));
  // The codec is off this path; its probes are on record as a control.
  rsmem::sim::Rng rng(options.seed ^ 0x9e3779b97f4a7c15ull);
  add_probe_metrics(run_probes({18, 16, 8, 1}, 128, {}, rng), result);
}

}  // namespace perfbench

// Load generator for rsmem-serve: N concurrent clients replaying a
// cacheable analysis workload, measuring end-to-end latency percentiles
// and the cache behaviour the clients actually observed.
//
// Each client opens its own connection and issues requests_per_client
// requests, cycling through `distinct` variants of the template request
// (distinct horizons => distinct cache keys), so a run exercises
// miss -> single-flight wait -> hit transitions. Two driving modes:
//   * CLOSED LOOP (default): each client thread waits for every response
//     before sending the next request — latency under think-time-free
//     serial clients, throughput bounded by clients x 1/latency.
//   * OPEN LOOP (open_loop = true): each client runs a sender thread that
//     pipelines requests at scheduled arrival times — at the aggregate
//     arrival_rate_rps across all clients, or flat-out when the rate is
//     0 — plus a receiver thread that drains completions; the sender
//     NEVER waits for a response, so queueing delay is measured instead
//     of hidden (the coordinated-omission-free number). Typed kOverloaded
//     and kBrownout refusals are the expected relief valves under
//     deliberate overload and are counted as rejections, not errors.
// The report separates latency by cache source; the hot-query speedup is
// miss_mean / hit_mean. With self_host the loadgen spins up an in-process
// Server on a private Unix socket — the full wire protocol, no external
// daemon needed.
#ifndef RSMEM_SERVICE_LOADGEN_H
#define RSMEM_SERVICE_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace rsmem::service {

struct LoadgenConfig {
  bool self_host = true;           // spin an in-process server
  Endpoint endpoint;               // target when !self_host
  SchedulerConfig scheduler;       // self-hosted per-shard scheduler knobs
  unsigned shards = 1;             // self-hosted server shard count
  unsigned clients = 8;
  std::size_t requests_per_client = 40;
  std::size_t distinct = 4;        // distinct cache keys in the mix
  bool open_loop = false;          // pipelined scheduled arrivals
  double arrival_rate_rps = 0.0;   // open loop: aggregate rate; 0 = flat out
  Request request;                 // template analysis request
};

struct LoadgenReport {
  std::size_t requests = 0;        // completed OK
  std::size_t rejected = 0;        // typed kOverloaded / kBrownout shedding
  std::size_t errors = 0;          // transport or other non-ok responses
  double elapsed_seconds = 0.0;
  double offered_rps = 0.0;        // requests actually sent per second
  double throughput_rps = 0.0;     // requests completed OK per second
  // End-to-end latency (client side), milliseconds.
  double mean_ms = 0.0, p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0,
         max_ms = 0.0;
  // Client-observed cache behaviour.
  std::uint64_t hits = 0, misses = 0, waits = 0;
  double hit_rate = 0.0;           // (hits + waits) / requests
  double miss_mean_ms = 0.0;       // cold: single-flight leaders
  double hit_mean_ms = 0.0;        // hot: cache hits
  double hot_speedup = 0.0;        // miss_mean / hit_mean
  std::string server_stats_json;   // final kStats result object
};

// Runs the workload. InvalidConfig for a nonsensical setup (0 clients,
// non-analysis template kind); transport-level failures surface as
// Internal.
core::Result<LoadgenReport> run_loadgen(const LoadgenConfig& config);

// Human-readable summary table.
std::string format_loadgen_report(const LoadgenConfig& config,
                                  const LoadgenReport& report);

// JSON report, as `rsmem_cli loadgen --json FILE` writes it (see
// docs/SERVICE.md).
std::string loadgen_report_json(const LoadgenConfig& config,
                                const LoadgenReport& report);

// ---------------------------------------------------------------------------
// Shard-scaling sweep: the same open-loop workload replayed against
// self-hosted servers at each shard count, so throughput can be compared
// apples-to-apples (`rsmem_cli loadgen --shard-sweep`).

struct ShardScalingPoint {
  unsigned shards = 0;
  LoadgenReport report;
};

// Runs `base` once per shard count (self_host and open_loop are forced
// on). Shard counts must be >= 1 and non-empty.
core::Result<std::vector<ShardScalingPoint>> run_shard_scaling(
    const LoadgenConfig& base, const std::vector<unsigned>& shard_counts);

// Human-readable scaling table (speedups are relative to the first point).
std::string format_shard_scaling(const std::vector<ShardScalingPoint>& points);

// JSON object for the report's "shard_scaling" key: the hardware
// core count (scaling is core-bound), one entry per point, and each
// point's throughput speedup relative to the first.
Json shard_scaling_json(const std::vector<ShardScalingPoint>& points);

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_LOADGEN_H

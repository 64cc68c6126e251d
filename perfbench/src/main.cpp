// perfbench: the rsmem benchmark binary. Normally driven by
// perfbench/run.py, which builds it, repeats set-up, adds the run context
// and prints the final result line; see perfbench/README.md.
//
// usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--setup-only] [--trace-out PATH]
// Prints human-readable progress, then ONE JSON line (the last line).
// Exit codes: 0 measured (check "correct"), 2 usage error, 3 refused.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "gf/simd_mul.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figures|mc_duplex_scrub|mc_clean_screen|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--trace-out PATH]\n",
               message);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

// How late a sleeping thread wakes on this host (p99 over 500 sleeps of
// 200 us, in us): a shared virtual host can add milliseconds, which every
// latency figure then carries. Recorded in the run's context.
double wake_lag_us_p99() {
  std::vector<double> lag;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t due = now_ns() + 200'000;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    lag.push_back(static_cast<double>(now_ns() - due) * 1e-3);
  }
  return quantile(lag, 0.99);
}

std::string backends_json() {
  namespace simd = rsmem::gf::simd;
  std::string list = "[";
  for (const simd::Backend backend : simd::kAllBackends) {
    if (!simd::backend_supported(backend)) continue;
    if (list.size() > 1) list += ",";
    list += json_string(simd::to_string(backend));
  }
  return list + "]";
}

void print_result(const Options& options, const Result& result) {
  std::string line = "{\"workload\":" + json_string(options.workload);
  line += ",\"seed\":" + std::to_string(options.seed);
  line += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  line += ",\"correct\":" +
          std::string(result.check_failures.empty() ? "true" : "false");
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"setup_s\":" + json_number(result.setup_s);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    line += (i == 0 ? "" : ",") + json_string(metric.name) +
            ":{\"value\":" + json_number(metric.value) +
            ",\"unit\":" + json_string(metric.unit) + "}";
  }
  line += "},\"stages\":[";
  for (std::size_t i = 0; i < result.stages.size(); ++i) {
    line += (i == 0 ? "" : ",") + std::string("{\"stage\":") +
            json_string(result.stages[i].stage) +
            ",\"ms_per_op\":" + json_number(result.stages[i].ms_per_op) + "}";
  }
  line += "],\"op\":" + json_string(result.op_name);
  line += ",\"check_failures\":[";
  for (std::size_t i = 0; i < result.check_failures.size() && i < 20; ++i) {
    line += (i == 0 ? "" : ",") + json_string(result.check_failures[i]);
  }
  line += "],\"info\":{";
  line += "\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  line += ",\"gf_backend\":" +
          json_string(rsmem::gf::simd::active().name);
  line += ",\"gf_supported\":" + backends_json();
  line += ",\"hardware_threads\":" + std::to_string(host_threads());
  for (const auto& [key, raw] : result.info) {
    line += "," + json_string(key) + ":" + raw;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.start_ns = now_ns();
  if (!parse(argc, argv, options)) return usage("bad arguments");
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing an assert-enabled build\n");
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build (Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Tracer tracer(options.trace && !options.setup_only);
  Result result;
  try {
    if (options.workload == "figures") {
      run_figures(options, tracer, result);
    } else if (options.workload == "mc_duplex_scrub") {
      run_mc_duplex_scrub(options, tracer, result);
    } else if (options.workload == "mc_clean_screen") {
      run_mc_clean_screen(options, tracer, result);
    } else if (options.workload == "serve_mixed") {
      run_serve_mixed(options, tracer, result);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) {
    result.metric("failed_share",
                  result.attempted == 0
                      ? 1.0
                      : static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted),
                  "share");
  } else {
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  if (tracer.enabled() && !options.trace_out.empty() &&
      !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  if (!options.setup_only) {
    result.note("host_wake_lag_us_p99", json_number(wake_lag_us_p99()));
  }
  print_result(options, result);
  return 0;
}

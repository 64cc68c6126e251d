#include "cli/commands.h"

#include <csignal>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <cmath>

#include "analysis/code_search.h"
#include "analysis/fault_campaign.h"
#include "analysis/sensitivity.h"
#include "analysis/table.h"
#include "cli/args.h"
#include "core/api.h"
#include "core/status.h"
#include "core/units.h"
#include "gf/simd_mul.h"
#include "hw/codec_hw_model.h"
#include "memory/access_latency.h"
#include "models/ber.h"
#include "models/chipkill.h"
#include "models/sparing_model.h"
#include "service/chaos_campaign.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "sim/thread_pool.h"

namespace rsmem::cli {

namespace {

const std::set<std::string> kSpecFlags = {"arrangement", "n", "k", "m",
                                          "seu", "perm", "tsc"};

core::MemorySystemSpec spec_from(const Args& args) {
  core::MemorySystemSpec spec;
  const std::string arrangement =
      args.get_string_or("arrangement", "simplex");
  if (arrangement == "simplex") {
    spec.arrangement = analysis::Arrangement::kSimplex;
  } else if (arrangement == "duplex") {
    spec.arrangement = analysis::Arrangement::kDuplex;
  } else {
    throw ArgError("--arrangement must be 'simplex' or 'duplex'");
  }
  spec.code.n = static_cast<unsigned>(args.get_long_or("n", 18));
  spec.code.k = static_cast<unsigned>(args.get_long_or("k", 16));
  spec.code.m = static_cast<unsigned>(args.get_long_or("m", 8));
  spec.seu_rate_per_bit_day = args.get_double_or("seu", 0.0);
  spec.erasure_rate_per_symbol_day = args.get_double_or("perm", 0.0);
  spec.scrub_period_seconds = args.get_double_or("tsc", 0.0);
  spec.validate();
  return spec;
}

std::set<std::string> with_spec(std::initializer_list<const char*> extra) {
  std::set<std::string> flags = kSpecFlags;
  for (const char* f : extra) flags.insert(f);
  return flags;
}

int cmd_help(std::ostream& out) {
  out << "rsmem_cli -- RS-coded fault-tolerant memory analysis\n"
         "\n"
         "usage: rsmem_cli <command> [--flag value]...\n"
         "\n"
         "commands:\n"
         "  analyze   BER(t) via the Markov chain\n"
         "            [spec] --hours H --points P [--periodic] [--csv]\n"
         "  mttf      mean time to data loss  [spec]\n"
         "  simulate  functional Monte-Carlo  [spec] --hours H --trials N\n"
         "            [--seed S] [--policy periodic|exponential]\n"
         "            [--threads T (0 = all cores)] [--chunk trials/shard]\n"
         "            (same seed => same result for every thread count)\n"
         "  cost      codec latency/area (fit + structural)  [spec]\n"
         "  sweep     BER at --hours H across --param seu|perm|tsc\n"
         "            with --values a,b,c  [spec]\n"
         "  sensitivity  elasticities d ln BER / d ln knob  [spec] --hours H\n"
         "  sparing   bank reliability vs spares  --modules M --spares-max S\n"
         "            --module-rate r [--coverage c] [--hot] --hours H\n"
         "  pareto    code/arrangement design-space search  [spec] --hours H\n"
         "  latency   M/D/1 codec queue  --read-rate r --cycles c\n"
         "            [--clock hz] [--scrub-period s --scrub-words w\n"
         "            [--spread]] [--horizon s]\n"
         "  chipkill  correlated chip faults vs i.i.d.-word model\n"
         "            [spec] --chip-rate r --words W --hours H\n"
         "  inject    adversarial fault-injection campaign\n"
         "            --preset paper-duplex [--n --k --m] [--seed S]\n"
         "            [--threads T] (deterministic per seed; exit 0 iff\n"
         "            every scenario matches its expected verdict)\n"
         "  serve     long-running analysis daemon (rsmem-serve)\n"
         "            --socket PATH | --listen HOST:PORT [--shards S]\n"
         "            [--threads T] [--max-queue N] [--cache N] [--batch B]\n"
         "            [--snapshot FILE] [--idle-timeout-ms MS]\n"
         "            [--max-frames-per-second R] [--max-frame-bytes N]\n"
         "            (per-shard queue/cache; requests route by cache key;\n"
         "            --snapshot persists the cache across restarts)\n"
         "  query     one request against a running server\n"
         "            --at unix:PATH|HOST:PORT --kind ber|mttf|sweep|ping|\n"
         "            stats|shutdown [spec] [--hours H --points P]\n"
         "            [--periodic] [--param p --values a,b] [--deadline MS]\n"
         "  loadgen   N concurrent clients; p50/p99 + cache hit rate\n"
         "            [--self-host | --at ...] [--clients N --requests R\n"
         "            --distinct K] [--kind sweep|ber|mttf] [spec]\n"
         "            [--shards S] [--open-loop [--rate RPS]]\n"
         "            [--shard-sweep 1,2,4] [--json FILE]\n"
         "            (open loop pipelines scheduled arrivals; kOverloaded\n"
         "            rejections count separately from errors)\n"
         "  chaos     transport fault-injection campaign against live\n"
         "            servers  --preset serve-churn [--seed S]\n"
         "            [--requests N --distinct K] [--timeout-ms MS]\n"
         "            (deterministic per seed; exit 0 iff every request\n"
         "            ends in exactly one typed outcome and post-chaos\n"
         "            responses stay byte-identical to direct calls)\n"
         "  version   library version, build type, and the GF(2^m) kernel\n"
         "            backend runtime dispatch selected on this host\n"
         "  help      this text\n"
         "\n"
         "spec flags: --arrangement simplex|duplex  --n 18 --k 16 --m 8\n"
         "            --seu <errors/bit/day>  --perm <erasures/symbol/day>\n"
         "            --tsc <seconds>\n";
  return 0;
}

int cmd_version(std::ostream& out) {
  out << "rsmem_cli "
#if defined(RSMEM_VERSION)
      << RSMEM_VERSION
#else
      << "dev"
#endif
      << "\n"
      << "build: "
#if defined(NDEBUG)
      << "release"
#else
      << "debug"
#endif
      << "\n"
      // The process-wide kernel selection (one backend per process; see
      // gf/simd_mul.h). `scalar` means the codec runs its original loops.
      << "gf backend: " << gf::simd::active().name << "\n";
  // Every backend linked into this binary, and the subset this host's CPU
  // can actually run (what RSMEM_GF_BACKEND may select). Parsed by
  // tools/run_sanitizers.sh to enumerate its per-backend codec loop.
  const auto kernels_of = [](gf::simd::Backend b) -> const gf::simd::Kernels* {
    switch (b) {
      case gf::simd::Backend::kScalar: return gf::simd::scalar_kernels();
      case gf::simd::Backend::kSsse3: return gf::simd::ssse3_kernels();
      case gf::simd::Backend::kAvx2: return gf::simd::avx2_kernels();
      case gf::simd::Backend::kGfni: return gf::simd::gfni_kernels();
    }
    return nullptr;
  };
  out << "gf backends compiled:";
  for (const gf::simd::Backend b : gf::simd::kAllBackends) {
    if (kernels_of(b) != nullptr) out << " " << gf::simd::to_string(b);
  }
  out << "\n"
      << "gf backends supported:";
  for (const gf::simd::Backend b : gf::simd::kAllBackends) {
    if (gf::simd::backend_supported(b)) out << " " << gf::simd::to_string(b);
  }
  out << "\n"
      // Transport fault-injection shim (service/chaos.h): compiled into
      // every build, off unless a ChaosEngine is wired in.
      << "chaos shim: available (deterministic transport fault injection; "
         "see 'rsmem_cli chaos')\n";
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"hours", "points", "periodic", "csv"}));
  const core::MemorySystemSpec spec = spec_from(args);
  const double hours = args.get_double_or("hours", 48.0);
  const long points = args.get_long_or("points", 13);
  if (hours <= 0.0 || points < 2) {
    throw ArgError("--hours must be > 0 and --points >= 2");
  }
  const std::vector<double> times =
      models::time_grid_hours(hours, static_cast<std::size_t>(points));
  const models::BerCurve curve =
      args.get_switch("periodic") ? analyze_ber_periodic_scrub(spec, times)
                                  : analyze_ber(spec, times);
  analysis::Table table{{"hours", "P_fail", "BER"}};
  for (std::size_t i = 0; i < curve.times_hours.size(); ++i) {
    table.add_row({analysis::format_fixed(curve.times_hours[i], 2),
                   analysis::format_sci(curve.fail_probability[i]),
                   analysis::format_sci(curve.ber[i])});
  }
  out << (args.get_switch("csv") ? table.to_csv() : table.to_text());
  return 0;
}

int cmd_mttf(const Args& args, std::ostream& out) {
  args.require_known(kSpecFlags);
  const core::MemorySystemSpec spec = spec_from(args);
  const double hours = mttf_hours(spec);
  out << "MTTF: " << analysis::format_sci(hours) << " hours ("
      << analysis::format_fixed(hours / core::kHoursPerDay, 2) << " days, "
      << analysis::format_fixed(core::hours_to_months(hours), 2)
      << " months)\n";
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out) {
  args.require_known(
      with_spec({"hours", "trials", "seed", "policy", "threads", "chunk"}));
  const core::MemorySystemSpec spec = spec_from(args);
  analysis::MonteCarloConfig mc;
  mc.t_end_hours = args.get_double_or("hours", 48.0);
  mc.trials = static_cast<std::size_t>(args.get_long_or("trials", 1000));
  mc.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 42));
  const long threads = args.get_long_or("threads", 0);
  const long chunk = args.get_long_or("chunk", 1024);
  if (threads < 0 || chunk < 1) {
    throw ArgError("--threads must be >= 0 and --chunk >= 1");
  }
  mc.threads = static_cast<unsigned>(threads);
  mc.chunk_trials = static_cast<std::size_t>(chunk);
  const std::string policy = args.get_string_or("policy", "exponential");
  memory::ScrubPolicy scrub_policy;
  if (policy == "periodic") {
    scrub_policy = memory::ScrubPolicy::kPeriodic;
  } else if (policy == "exponential") {
    scrub_policy = memory::ScrubPolicy::kExponential;
  } else {
    throw ArgError("--policy must be 'periodic' or 'exponential'");
  }
  analysis::CampaignReport report;
  const analysis::MonteCarloResult result =
      simulate(spec, mc, scrub_policy, &report);
  out << "trials:            " << result.failure.trials << "\n"
      << "failures:          " << result.failure.failures << " ("
      << result.no_output_failures << " no-output, "
      << result.wrong_data_failures << " wrong-data)\n"
      << "P_fail estimate:   "
      << analysis::format_sci(result.failure.p_hat()) << "  95% CI ["
      << analysis::format_sci(result.failure.wilson_low()) << ", "
      << analysis::format_sci(result.failure.wilson_high()) << "]\n"
      << "Markov prediction: "
      << analysis::format_sci(fail_probability(spec, mc.t_end_hours)) << "\n"
      << "campaign:          " << report.threads_used << " thread(s), "
      << report.chunks << " shard(s), "
      << analysis::format_sci(report.trials_per_second) << " trials/s\n";
  return 0;
}

int cmd_cost(const Args& args, std::ostream& out) {
  args.require_known(kSpecFlags);
  const core::MemorySystemSpec spec = spec_from(args);
  const reliability::ArrangementCost fit = codec_cost(spec);
  const hw::HwEstimate structural =
      hw::decoder_estimate(spec.code.n, spec.code.k, spec.code.m);
  const unsigned decoders =
      spec.arrangement == analysis::Arrangement::kDuplex ? 2 : 1;
  analysis::Table table{{"metric", "paper fit", "structural model"}};
  table.add_row({"decode latency [cycles]",
                 analysis::format_fixed(fit.decode_cycles, 0),
                 analysis::format_fixed(structural.latency_cycles, 0)});
  table.add_row({"codec area [gates]",
                 analysis::format_fixed(fit.area_gates, 0),
                 analysis::format_fixed(
                     structural.gate_count * decoders, 0)});
  table.add_row({"decoders", std::to_string(decoders),
                 std::to_string(decoders)});
  out << table.to_text();
  return 0;
}

int cmd_sweep(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"param", "values", "hours", "csv"}));
  const std::string param = args.get_string("param");
  const std::vector<double> values = args.get_double_list("values");
  const double hours = args.get_double_or("hours", 48.0);
  analysis::Table table{{param, "P_fail", "BER"}};
  for (const double value : values) {
    core::MemorySystemSpec spec = spec_from(args);
    if (param == "seu") {
      spec.seu_rate_per_bit_day = value;
    } else if (param == "perm") {
      spec.erasure_rate_per_symbol_day = value;
    } else if (param == "tsc") {
      spec.scrub_period_seconds = value;
    } else {
      throw ArgError("--param must be one of seu|perm|tsc");
    }
    const double times[] = {hours};
    const models::BerCurve curve = analyze_ber(spec, times);
    table.add_row({analysis::format_sci(value),
                   analysis::format_sci(curve.fail_probability[0]),
                   analysis::format_sci(curve.ber[0])});
  }
  out << (args.get_switch("csv") ? table.to_csv() : table.to_text());
  return 0;
}

std::string fmt_or_dash(double v) {
  return std::isnan(v) ? std::string("-") : analysis::format_fixed(v, 3);
}

int cmd_sensitivity(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"hours"}));
  const core::MemorySystemSpec spec = spec_from(args);
  const double hours = args.get_double_or("hours", 48.0);
  const analysis::SensitivityReport r =
      analysis::ber_sensitivity(spec, hours);
  analysis::Table table{{"metric", "value"}};
  table.add_row({"BER", analysis::format_sci(r.ber)});
  table.add_row({"E[seu rate]", fmt_or_dash(r.seu_elasticity)});
  table.add_row({"E[perm rate]", fmt_or_dash(r.erasure_elasticity)});
  table.add_row({"E[scrub period]", fmt_or_dash(r.scrub_period_elasticity)});
  out << table.to_text();
  return 0;
}

int cmd_sparing(const Args& args, std::ostream& out) {
  args.require_known({"modules", "spares-max", "module-rate", "coverage",
                      "hot", "hours"});
  models::SparingParams p;
  p.active_modules = static_cast<unsigned>(args.get_long_or("modules", 8));
  p.module_fail_rate_per_hour = args.get_double("module-rate");
  p.coverage = args.get_double_or("coverage", 1.0);
  p.spare_ageing_fraction = args.get_switch("hot") ? 1.0 : 0.0;
  const double hours = args.get_double_or("hours", 43800.0);
  const long spares_max = args.get_long_or("spares-max", 4);
  if (spares_max < 0) throw ArgError("--spares-max must be >= 0");
  analysis::Table table{{"spares", "reliability", "MTTF [h]"}};
  for (long s = 0; s <= spares_max; ++s) {
    p.spares = static_cast<unsigned>(s);
    const models::SparingModel bank{p};
    table.add_row({std::to_string(s),
                   analysis::format_fixed(bank.reliability_at(hours), 6),
                   analysis::format_sci(bank.mttf_hours())});
  }
  out << table.to_text();
  return 0;
}

int cmd_pareto(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"hours"}));
  analysis::CodeSearchSpec search;
  search.base = spec_from(args);
  search.t_hours = args.get_double_or("hours", 48.0);
  const auto evals = analysis::evaluate_candidates(
      search, analysis::default_candidates(search.base.code.k));
  analysis::Table table{{"arrangement", "code", "BER", "overhead",
                         "Td [cyc]", "area", "pareto"}};
  for (const auto& e : evals) {
    char code[16];
    std::snprintf(code, sizeof code, "(%u,%u)", e.candidate.n,
                  search.base.code.k);
    table.add_row(
        {analysis::to_string(e.candidate.arrangement), code,
         analysis::format_sci(e.ber),
         analysis::format_fixed(e.storage_overhead, 2),
         analysis::format_fixed(e.decode_cycles, 0),
         analysis::format_fixed(e.area_gates, 0),
         e.pareto_efficient ? "*" : ""});
  }
  out << table.to_text();
  return 0;
}

int cmd_latency(const Args& args, std::ostream& out) {
  args.require_known({"read-rate", "cycles", "clock", "scrub-period",
                      "scrub-words", "spread", "horizon"});
  memory::AccessLatencyConfig cfg;
  const double clock_hz = args.get_double_or("clock", 50e6);
  cfg.read_rate_per_second = args.get_double("read-rate");
  cfg.decode_seconds = args.get_double("cycles") / clock_hz;
  cfg.scrub_period_seconds = args.get_double_or("scrub-period", 0.0);
  cfg.words_per_scrub =
      static_cast<std::uint64_t>(args.get_long_or("scrub-words", 0));
  cfg.spread_scrub = args.get_switch("spread");
  cfg.horizon_seconds = args.get_double_or("horizon", 2.0);
  const memory::AccessLatencyReport r =
      memory::simulate_access_latency(cfg);
  analysis::Table table{{"metric", "value"}};
  table.add_row({"reads served", std::to_string(r.reads_served)});
  table.add_row({"utilization", analysis::format_fixed(r.utilization, 4)});
  table.add_row({"mean wait [us]",
                 analysis::format_fixed(r.mean_wait_seconds * 1e6, 3)});
  table.add_row({"mean latency [us]",
                 analysis::format_fixed(r.mean_latency_seconds * 1e6, 3)});
  table.add_row({"p99 latency [us]",
                 analysis::format_fixed(r.p99_latency_seconds * 1e6, 3)});
  table.add_row({"max latency [us]",
                 analysis::format_fixed(r.max_latency_seconds * 1e6, 3)});
  out << table.to_text();
  return 0;
}

int cmd_chipkill(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"chip-rate", "words", "hours"}));
  const core::MemorySystemSpec spec = spec_from(args);
  const double chip_rate = args.get_double("chip-rate");
  const std::size_t words =
      static_cast<std::size_t>(args.get_long_or("words", 1 << 20));
  const double hours = args.get_double_or("hours", 48.0);
  const double correlated = 1.0 - models::chipkill_array_survival(
                                      spec.code.n, spec.code.k, chip_rate,
                                      hours);
  const double independent =
      1.0 - models::independent_word_array_survival(
                spec.code.n, spec.code.k, chip_rate, hours, words);
  analysis::Table table{{"model", "P(array loss)"}};
  table.add_row({"chip-kill (correlated)", analysis::format_sci(correlated)});
  table.add_row({"independent words", analysis::format_sci(independent)});
  out << table.to_text();
  return 0;
}

int cmd_inject(const Args& args, std::ostream& out) {
  args.require_known({"preset", "n", "k", "m", "seed", "threads", "tsc"});
  const std::string preset = args.get_string_or("preset", "paper-duplex");
  if (preset != "paper-duplex") {
    throw ArgError("--preset must be 'paper-duplex'");
  }
  analysis::FaultCampaignConfig cfg;
  cfg.code.n = static_cast<unsigned>(args.get_long_or("n", 18));
  cfg.code.k = static_cast<unsigned>(args.get_long_or("k", 16));
  cfg.code.m = static_cast<unsigned>(args.get_long_or("m", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 2005));
  const long threads = args.get_long_or("threads", 1);
  if (threads < 0) throw ArgError("--threads must be >= 0");
  cfg.threads = static_cast<unsigned>(threads);
  cfg.scrub_period_hours = args.get_double_or("tsc", 3600.0) / 3600.0;

  // Route geometry errors through the structured taxonomy so a bad --n/--k
  // reports as InvalidConfig with the actionable message, not a raw throw.
  core::MemorySystemSpec spec;
  spec.code = cfg.code;
  core::Status valid = spec.validate_status();
  if (!valid.is_ok()) throw core::StatusError(valid.with_context("inject"));

  const std::vector<analysis::FaultScenario> scenarios =
      analysis::paper_duplex_scenarios(cfg.code);
  const analysis::FaultCampaignReport report =
      analysis::run_fault_campaign(cfg, scenarios);
  out << analysis::format_campaign_report(report);
  return report.passed() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// rsmem-serve front-ends: serve / query / loadgen (src/service/).

volatile std::sig_atomic_t g_serve_interrupted = 0;

void serve_signal_handler(int) { g_serve_interrupted = 1; }

// Endpoint from --socket PATH (unix) or --listen/--at HOST:PORT (tcp or
// "unix:/path"). Malformed endpoints surface as InvalidConfig -> exit 2.
service::Endpoint endpoint_from(const Args& args, const char* flag,
                                const std::string& fallback) {
  const std::string text = args.get_string_or(flag, fallback);
  core::Result<service::Endpoint> endpoint = service::parse_endpoint(text);
  if (!endpoint.ok()) {
    core::Status status = endpoint.status();
    throw core::StatusError(status.with_context(std::string("--") + flag));
  }
  return endpoint.value();
}

service::SchedulerConfig scheduler_config_from(const Args& args) {
  service::SchedulerConfig config;
  const long threads = args.get_long_or("threads", 0);
  const long max_queue = args.get_long_or("max-queue", 128);
  const long cache = args.get_long_or("cache", 256);
  const long batch = args.get_long_or("batch", 16);
  if (threads < 0 || max_queue < 1 || cache < 0 || batch < 1) {
    throw core::StatusError(core::Status::invalid_config(
        "require --threads >= 0, --max-queue >= 1, --cache >= 0, "
        "--batch >= 1"));
  }
  config.threads = static_cast<unsigned>(threads);
  config.max_queue = static_cast<std::size_t>(max_queue);
  config.cache_capacity = static_cast<std::size_t>(cache);
  config.batch_max = static_cast<std::size_t>(batch);
  return config;
}

// Deadline flag shared by query/loadgen; negative values are rejected
// through the InvalidConfig mapping (exit 2), mirroring Request parsing.
double deadline_from(const Args& args) {
  const double deadline_ms = args.get_double_or("deadline", 0.0);
  if (deadline_ms < 0.0) {
    throw core::StatusError(core::Status::invalid_config(
        "--deadline must be >= 0 milliseconds, got " +
        std::to_string(deadline_ms)));
  }
  return deadline_ms;
}

// Analysis request from the spec flags; used by query and loadgen.
service::Request request_from(const Args& args, const std::string& kind) {
  service::Request request;
  request.deadline_ms = deadline_from(args);
  if (kind == "ping") {
    request.kind = service::RequestKind::kPing;
    return request;
  }
  if (kind == "stats") {
    request.kind = service::RequestKind::kStats;
    return request;
  }
  if (kind == "shutdown") {
    request.kind = service::RequestKind::kShutdown;
    return request;
  }
  request.spec = spec_from(args);
  const double hours = args.get_double_or("hours", 48.0);
  if (kind == "mttf") {
    request.kind = service::RequestKind::kMttf;
    return request;
  }
  if (kind == "sweep") {
    request.kind = service::RequestKind::kSweep;
    request.sweep_param = args.get_string("param");
    if (request.sweep_param != "seu" && request.sweep_param != "perm" &&
        request.sweep_param != "tsc") {
      throw ArgError("--param must be one of seu|perm|tsc");
    }
    request.sweep_values = args.get_double_list("values");
    request.sweep_hours = hours;
    return request;
  }
  if (kind != "ber") {
    throw ArgError(
        "--kind must be one of ber|mttf|sweep|ping|stats|shutdown");
  }
  request.kind = service::RequestKind::kBer;
  request.periodic = args.get_switch("periodic");
  const long points = args.get_long_or("points", 1);
  if (hours <= 0.0 || points < 1) {
    throw ArgError("--hours must be > 0 and --points >= 1");
  }
  request.times_hours =
      points == 1 ? std::vector<double>{hours}
                  : models::time_grid_hours(
                        hours, static_cast<std::size_t>(points));
  return request;
}

// --shards N (>= 1), shared by serve and loadgen.
unsigned shards_from(const Args& args) {
  const long shards = args.get_long_or("shards", 1);
  if (shards < 1) {
    throw core::StatusError(core::Status::invalid_config(
        "--shards must be >= 1, got " + std::to_string(shards)));
  }
  return static_cast<unsigned>(shards);
}

int cmd_serve(const Args& args, std::ostream& out) {
  args.require_known({"socket", "listen", "threads", "max-queue", "cache",
                      "batch", "shards", "snapshot", "idle-timeout-ms",
                      "max-frames-per-second", "max-frame-bytes"});
  if (args.has("socket") && args.has("listen")) {
    throw ArgError("pass --socket PATH or --listen HOST:PORT, not both");
  }
  service::ServerConfig config;
  if (args.has("listen")) {
    config.endpoint = endpoint_from(args, "listen", "");
  } else {
    config.endpoint = service::Endpoint::unix_socket(
        args.get_string_or("socket", "/tmp/rsmem-serve.sock"));
  }
  config.router.scheduler = scheduler_config_from(args);
  config.router.shards = shards_from(args);
  config.snapshot_path = args.get_string_or("snapshot", "");
  const double idle_ms = args.get_double_or("idle-timeout-ms", 0.0);
  const double frame_rate = args.get_double_or("max-frames-per-second", 0.0);
  const long frame_bytes =
      args.get_long_or("max-frame-bytes", service::kMaxFrameBytes);
  if (idle_ms < 0 || frame_rate < 0 || frame_bytes < 64) {
    throw core::StatusError(core::Status::invalid_config(
        "require --idle-timeout-ms >= 0, --max-frames-per-second >= 0, "
        "--max-frame-bytes >= 64"));
  }
  config.idle_timeout_ms = idle_ms;
  config.max_frames_per_second = frame_rate;
  config.max_frame_bytes = static_cast<std::uint32_t>(frame_bytes);
  core::Result<std::unique_ptr<service::Server>> started =
      service::Server::start(config);
  if (!started.ok()) throw core::StatusError(started.status());
  const std::unique_ptr<service::Server> server = std::move(started).value();
  out << "rsmem-serve listening on " << server->endpoint().to_string()
      << " (shards=" << server->shard_count() << " threads="
      << sim::ThreadPool::resolve(config.router.scheduler.threads)
      << " max-queue=" << config.router.scheduler.max_queue
      << " cache=" << config.router.scheduler.cache_capacity
      << " batch=" << config.router.scheduler.batch_max << ")\n";
  out.flush();

  g_serve_interrupted = 0;
  auto* previous_int = std::signal(SIGINT, serve_signal_handler);
  auto* previous_term = std::signal(SIGTERM, serve_signal_handler);
  // Frame writes already pass MSG_NOSIGNAL; this covers any stray write
  // path so a vanished client can never SIGPIPE the daemon.
  auto* previous_pipe = std::signal(SIGPIPE, SIG_IGN);
  while (!server->wait_for_shutdown(std::chrono::milliseconds(200))) {
    if (g_serve_interrupted) break;
  }
  server->shutdown();
  std::signal(SIGINT, previous_int);
  std::signal(SIGTERM, previous_term);
  std::signal(SIGPIPE, previous_pipe);

  const service::AnalysisScheduler::Stats stats = server->scheduler_stats();
  const service::ResultCache::Stats cache = server->cache_stats();
  out << "rsmem-serve stopped: " << stats.completed << " completed, "
      << stats.rejected_overload << " rejected, cache hit rate "
      << analysis::format_fixed(cache.hit_rate(), 3) << "\n";
  return 0;
}

int cmd_query(const Args& args, std::ostream& out) {
  args.require_known(with_spec({"at", "kind", "hours", "points", "periodic",
                                "param", "values", "deadline", "csv"}));
  const std::string kind = args.get_string_or("kind", "ber");
  const service::Request request = request_from(args, kind);
  const service::Endpoint endpoint =
      endpoint_from(args, "at", "unix:/tmp/rsmem-serve.sock");
  core::Result<service::Client> client = service::Client::connect(endpoint);
  if (!client.ok()) throw core::StatusError(client.status());
  core::Result<service::Response> called = client.value().call(request);
  if (!called.ok()) throw core::StatusError(called.status());
  const service::Response& response = called.value();
  if (!response.status.is_ok()) throw core::StatusError(response.status);

  core::Result<service::Json> result =
      service::Json::parse(response.result_json.empty()
                               ? std::string("{}")
                               : response.result_json);
  if (!result.ok()) throw core::StatusError(result.status());
  const service::Json& json = result.value();
  if (request.kind == service::RequestKind::kBer) {
    const auto times = json.doubles_at("times_hours");
    const auto pfail = json.doubles_at("fail_probability");
    const auto ber = json.doubles_at("ber");
    if (!times.ok() || !pfail.ok() || !ber.ok()) {
      throw core::StatusError(
          core::Status::internal("malformed ber result payload"));
    }
    analysis::Table table{{"hours", "P_fail", "BER"}};
    for (std::size_t i = 0; i < times.value().size(); ++i) {
      table.add_row({analysis::format_fixed(times.value()[i], 2),
                     analysis::format_sci(pfail.value()[i]),
                     analysis::format_sci(ber.value()[i])});
    }
    out << (args.get_switch("csv") ? table.to_csv() : table.to_text());
  } else if (request.kind == service::RequestKind::kSweep) {
    const auto values = json.doubles_at("values");
    const auto pfail = json.doubles_at("fail_probability");
    const auto ber = json.doubles_at("ber");
    if (!values.ok() || !pfail.ok() || !ber.ok()) {
      throw core::StatusError(
          core::Status::internal("malformed sweep result payload"));
    }
    analysis::Table table{{request.sweep_param, "P_fail", "BER"}};
    for (std::size_t i = 0; i < values.value().size(); ++i) {
      table.add_row({analysis::format_sci(values.value()[i]),
                     analysis::format_sci(pfail.value()[i]),
                     analysis::format_sci(ber.value()[i])});
    }
    out << (args.get_switch("csv") ? table.to_csv() : table.to_text());
  } else if (request.kind == service::RequestKind::kMttf) {
    const double hours = json.number_or("mttf_hours", 0.0);
    out << "MTTF: " << analysis::format_sci(hours) << " hours ("
        << analysis::format_fixed(core::hours_to_months(hours), 2)
        << " months)\n";
  } else {
    out << (response.result_json.empty() ? std::string("ok")
                                         : response.result_json)
        << "\n";
  }
  if (request.kind == service::RequestKind::kBer ||
      request.kind == service::RequestKind::kSweep ||
      request.kind == service::RequestKind::kMttf) {
    out << "[cache " << service::to_string(response.cache) << ", "
        << analysis::format_fixed(response.compute_ms, 3) << " ms]\n";
  }
  return 0;
}

int cmd_loadgen(const Args& args, std::ostream& out) {
  args.require_known(with_spec(
      {"at", "self-host", "clients", "requests", "distinct", "kind", "hours",
       "points", "periodic", "param", "values", "deadline", "json", "threads",
       "max-queue", "cache", "batch", "shards", "open-loop", "rate",
       "shard-sweep"}));
  service::LoadgenConfig config;
  config.self_host = !args.has("at") || args.get_switch("self-host");
  if (args.has("at")) {
    config.endpoint = endpoint_from(args, "at", "");
    config.self_host = false;
  }
  config.scheduler = scheduler_config_from(args);
  config.shards = shards_from(args);
  // --rate only makes sense for scheduled arrivals, so it implies the
  // open loop.
  config.open_loop = args.get_switch("open-loop") || args.has("rate");
  const double rate = args.get_double_or("rate", 0.0);
  if (rate < 0.0) {
    throw core::StatusError(core::Status::invalid_config(
        "--rate must be >= 0 requests/second"));
  }
  config.arrival_rate_rps = rate;
  const long clients = args.get_long_or("clients", 8);
  const long requests = args.get_long_or("requests", 40);
  const long distinct = args.get_long_or("distinct", 4);
  if (clients < 1 || requests < 1 || distinct < 1) {
    throw core::StatusError(core::Status::invalid_config(
        "require --clients >= 1, --requests >= 1, --distinct >= 1"));
  }
  config.clients = static_cast<unsigned>(clients);
  config.requests_per_client = static_cast<std::size_t>(requests);
  config.distinct = static_cast<std::size_t>(distinct);
  std::vector<unsigned> sweep_shards;
  if (args.has("shard-sweep")) {
    if (!config.self_host) {
      throw ArgError("--shard-sweep needs a self-hosted server (drop --at)");
    }
    for (double value : args.get_double_list("shard-sweep")) {
      if (value < 1.0 || value != std::floor(value)) {
        throw ArgError("--shard-sweep wants integer shard counts >= 1");
      }
      sweep_shards.push_back(static_cast<unsigned>(value));
    }
    if (sweep_shards.empty()) {
      throw ArgError("--shard-sweep wants at least one shard count");
    }
  }
  const std::string kind = args.get_string_or("kind", "sweep");
  if (kind != "ber" && kind != "mttf" && kind != "sweep") {
    throw ArgError("--kind must be one of ber|mttf|sweep for loadgen");
  }
  // Loadgen defaults to the paper's duplex scrubbing sweep (Fig. 7 family)
  // when no spec flags are given: a realistic, cacheable dashboard query.
  if (kind == "sweep" && !args.has("param")) {
    service::Request request;
    request.kind = service::RequestKind::kSweep;
    request.spec = spec_from(args);
    if (!args.has("seu")) request.spec.seu_rate_per_bit_day = 1e-2;
    request.sweep_param = "tsc";
    request.sweep_values = {600.0, 1800.0, 3600.0, 7200.0};
    request.sweep_hours = args.get_double_or("hours", 48.0);
    request.deadline_ms = deadline_from(args);
    config.request = request;
  } else {
    config.request = request_from(args, kind);
  }

  core::Result<service::LoadgenReport> ran = service::run_loadgen(config);
  if (!ran.ok()) throw core::StatusError(ran.status());
  const service::LoadgenReport& report = ran.value();
  out << service::format_loadgen_report(config, report);

  std::vector<service::ShardScalingPoint> scaling;
  if (!sweep_shards.empty()) {
    core::Result<std::vector<service::ShardScalingPoint>> swept =
        service::run_shard_scaling(config, sweep_shards);
    if (!swept.ok()) throw core::StatusError(swept.status());
    scaling = std::move(swept).value();
    out << "\nshard scaling (open loop, "
        << std::thread::hardware_concurrency() << " cores)\n"
        << service::format_shard_scaling(scaling);
  }

  if (args.has("json")) {
    const std::string path = args.get_string("json");
    std::string payload = service::loadgen_report_json(config, report);
    if (!scaling.empty()) {
      // Splice the scaling section into the report object so one file
      // carries the whole report.
      core::Result<service::Json> parsed = service::Json::parse(payload);
      if (!parsed.ok()) throw core::StatusError(parsed.status());
      service::JsonObject object = parsed.value().as_object();
      object.emplace("shard_scaling", service::shard_scaling_json(scaling));
      payload = service::Json(std::move(object)).serialize();
    }
    std::ofstream file(path);
    if (!file) {
      throw core::StatusError(
          core::Status::internal("cannot write --json file " + path));
    }
    file << payload << "\n";
    out << "wrote " << path << "\n";
  }
  std::size_t scaling_errors = 0;
  for (const service::ShardScalingPoint& point : scaling) {
    scaling_errors += point.report.errors;
  }
  return report.errors == 0 && scaling_errors == 0 ? 0 : 1;
}

int cmd_chaos(const Args& args, std::ostream& out) {
  args.require_known({"preset", "seed", "requests", "distinct", "timeout-ms"});
  const std::string preset = args.get_string_or("preset", "serve-churn");
  if (preset != "serve-churn") {
    throw ArgError("--preset must be 'serve-churn'");
  }
  service::ChaosCampaignConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 2005));
  const long requests = args.get_long_or("requests", 24);
  const long distinct = args.get_long_or("distinct", 4);
  const double timeout_ms = args.get_double_or("timeout-ms", 5000.0);
  if (requests < 1 || distinct < 1 || timeout_ms <= 0.0) {
    throw core::StatusError(core::Status::invalid_config(
        "require --requests >= 1, --distinct >= 1, --timeout-ms > 0"));
  }
  config.requests_per_scenario = static_cast<std::size_t>(requests);
  config.distinct = static_cast<std::size_t>(distinct);
  config.receive_timeout_ms = timeout_ms;
  core::Result<service::ChaosCampaignReport> ran =
      service::run_chaos_campaign(config);
  if (!ran.ok()) throw core::StatusError(ran.status());
  out << service::format_chaos_report(config, ran.value());
  return ran.value().passed() ? 0 : 1;
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  try {
    const Args args = Args::parse(argc, argv);
    const std::string& command = args.command();
    if (command == "help") return cmd_help(out);
    if (command == "version") return cmd_version(out);
    if (command == "analyze") return cmd_analyze(args, out);
    if (command == "mttf") return cmd_mttf(args, out);
    if (command == "simulate") return cmd_simulate(args, out);
    if (command == "cost") return cmd_cost(args, out);
    if (command == "sweep") return cmd_sweep(args, out);
    if (command == "sensitivity") return cmd_sensitivity(args, out);
    if (command == "sparing") return cmd_sparing(args, out);
    if (command == "pareto") return cmd_pareto(args, out);
    if (command == "latency") return cmd_latency(args, out);
    if (command == "chipkill") return cmd_chipkill(args, out);
    if (command == "inject") return cmd_inject(args, out);
    if (command == "serve") return cmd_serve(args, out);
    if (command == "query") return cmd_query(args, out);
    if (command == "loadgen") return cmd_loadgen(args, out);
    if (command == "chaos") return cmd_chaos(args, out);
    err << "unknown command '" << command << "'; try 'rsmem_cli help'\n";
    return 2;
  } catch (const ArgError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const core::StatusError& e) {
    err << "error [" << core::to_string(e.status().code())
        << "]: " << e.status().message() << "\n";
    return e.status().code() == core::StatusCode::kInvalidConfig ? 2 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rsmem::cli

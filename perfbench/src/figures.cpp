// Workload `figures`: regenerate the paper's Figs. 5-10 exactly as
// tools/rsmem_figures.cpp does, plus Fig. 7 under deterministic periodic
// scrubbing. Every suite starts from a cleared models::global_chain_cache(),
// as a process regenerating the figures would.
//
// An op is one suite. Untraced runs call the analysis sweeps with
// library-default SweepOptions (points spread over every core). Traced runs
// make the same computation on one thread through the models/markov calls
// the sweeps are built from, one span per call, so the stages nest and sum
// to the suite.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/api.h"
#include "core/units.h"
#include "known_answers.h"
#include "markov/solver_guard.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/chain_cache.h"
#include "models/metrics.h"
#include "probes.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rsmem::analysis::Arrangement;
using rsmem::analysis::CodeSpec;
namespace core = rsmem::core;
namespace models = rsmem::models;
namespace markov = rsmem::markov;

constexpr CodeSpec kRs1816{18, 16, 8};
constexpr rsmem::rs::CodeParams kRs1816Params{18, 16, 8, 1};
// Words in one batched plane of a duplex Monte-Carlo campaign: 64 trials
// x 2 modules (the library default of MonteCarloConfig::batch_trials).
constexpr std::size_t kDuplexPlaneWidth = 128;
constexpr CodeSpec kRs3616{36, 16, 8};
constexpr double kSeuRates[] = {1.7e-5, 3.6e-6, 7.3e-7};
constexpr double kScrubPeriods[] = {900.0, 1200.0, 1800.0, 3600.0};
constexpr double kPermRates[] = {1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
constexpr std::size_t kPoints = 49;
// Matches the sweep engine's dense-operator bound (analysis/experiment.cpp).
constexpr std::size_t kMaxDenseStates = 256;
constexpr double kTruncationError = 1e-14;  // UniformizationSolver default

// One BER(t) curve of a figure, in the models' per-hour units.
struct Curve {
  Arrangement arrangement = Arrangement::kSimplex;
  CodeSpec code;
  double seu_per_hour = 0.0;
  double erasure_per_hour = 0.0;
  double scrub_per_hour = 0.0;
  double periodic_tsc_seconds = 0.0;  // > 0: deterministic periodic scrub
  bool months = false;                // 24-month axis instead of 48 h
};

std::vector<Curve> figure_curves(int figure) {
  std::vector<Curve> curves;
  const auto seu = [&](Arrangement a) {
    for (const double r : kSeuRates) {
      curves.push_back({a, kRs1816, core::per_day_to_per_hour(r)});
    }
  };
  const auto perm = [&](Arrangement a, CodeSpec code) {
    for (const double r : kPermRates) {
      curves.push_back({a, code, 0.0, core::per_day_to_per_hour(r), 0.0, 0.0,
                        true});
    }
  };
  switch (figure) {
    case 0: seu(Arrangement::kSimplex); break;
    case 1: seu(Arrangement::kDuplex); break;
    case 2:
      for (const double p : kScrubPeriods) {
        curves.push_back({Arrangement::kDuplex, kRs1816,
                          core::per_day_to_per_hour(1.7e-5), 0.0,
                          core::scrub_rate_per_hour(p)});
      }
      break;
    case 3: perm(Arrangement::kSimplex, kRs1816); break;
    case 4: perm(Arrangement::kDuplex, kRs1816); break;
    case 5: perm(Arrangement::kSimplex, kRs3616); break;
    default:
      for (const double p : kScrubPeriods) {
        curves.push_back({Arrangement::kDuplex, kRs1816,
                          core::per_day_to_per_hour(1.7e-5), 0.0, 0.0, p});
      }
      break;
  }
  return curves;
}

std::vector<double> curve_times(const Curve& curve) {
  return models::time_grid_hours(
      curve.months ? core::months_to_hours(24.0) : 48.0, kPoints);
}

core::MemorySystemSpec periodic_spec(const Curve& curve) {
  core::MemorySystemSpec spec;
  spec.arrangement = curve.arrangement;
  spec.code = {curve.code.n, curve.code.k, curve.code.m, 1};
  spec.seu_rate_per_bit_day = 1.7e-5;
  spec.scrub_period_seconds = curve.periodic_tsc_seconds;
  return spec;
}

using FigureValues = std::vector<std::vector<double>>;  // BER per curve

// The end-to-end path: what tools/rsmem_figures.cpp calls.
FigureValues library_figure(int figure) {
  std::vector<rsmem::analysis::Series> series;
  switch (figure) {
    case 0:
    case 1:
      series = rsmem::analysis::seu_rate_sweep(
          figure == 0 ? Arrangement::kSimplex : Arrangement::kDuplex, kRs1816,
          kSeuRates, 48.0, kPoints);
      break;
    case 2:
      series = rsmem::analysis::scrub_period_sweep(
          Arrangement::kDuplex, kRs1816, 1.7e-5, kScrubPeriods, 48.0, kPoints);
      break;
    case 3:
    case 4:
    case 5:
      series = rsmem::analysis::permanent_rate_sweep(
          figure == 4 ? Arrangement::kDuplex : Arrangement::kSimplex,
          figure == 5 ? kRs3616 : kRs1816, kPermRates, 24.0, kPoints);
      break;
    default: {
      FigureValues values;
      for (const Curve& curve : figure_curves(figure)) {
        values.push_back(rsmem::analyze_ber_periodic_scrub(
                             periodic_spec(curve), curve_times(curve))
                             .ber);
      }
      return values;
    }
  }
  FigureValues values;
  for (auto& s : series) values.push_back(std::move(s.y));
  return values;
}

// Counters the traced suite adds up over the chains it solves.
struct ChainTally {
  double states = 0.0;
  double nnz = 0.0;
  double poisson_terms = 0.0;
};

// The same figure on one thread, one span per models/markov call. Values
// are bitwise identical to library_figure (same cache, same workspace
// path, same dense-operator policy as the sweep engine).
FigureValues traced_figure(int figure, Tracer& tracer, ChainTally& tally) {
  static thread_local markov::SolverWorkspace workspace;
  const markov::UniformizationSolver solver;
  const markov::StepPolicy policy{kMaxDenseStates};
  FigureValues values;
  for (const Curve& curve : figure_curves(figure)) {
    const std::vector<double> times = curve_times(curve);
    if (curve.periodic_tsc_seconds > 0.0) {
      Tracer::Scope span(tracer, "models.periodic");
      const core::MemorySystemSpec spec = periodic_spec(curve);
      values.push_back(models::duplex_periodic_scrub_ber(
                           spec.to_duplex_params(),
                           core::seconds_to_hours(spec.scrub_period_seconds),
                           times, rsmem::markov::GuardedTransientSolver{})
                           .ber);
      continue;
    }
    std::shared_ptr<const markov::StateSpace> space;
    markov::PackedState fail = 0;
    {
      Tracer::Scope span(tracer, "models.chain");
      if (curve.arrangement == Arrangement::kSimplex) {
        models::SimplexParams params;
        params.n = curve.code.n;
        params.k = curve.code.k;
        params.m = curve.code.m;
        params.seu_rate_per_bit_hour = curve.seu_per_hour;
        params.erasure_rate_per_symbol_hour = curve.erasure_per_hour;
        params.scrub_rate_per_hour = curve.scrub_per_hour;
        space = models::global_chain_cache().simplex(params);
        fail = models::SimplexModel::fail_state();
      } else {
        models::DuplexParams params;
        params.n = curve.code.n;
        params.k = curve.code.k;
        params.m = curve.code.m;
        params.seu_rate_per_bit_hour = curve.seu_per_hour;
        params.erasure_rate_per_symbol_hour = curve.erasure_per_hour;
        params.scrub_rate_per_hour = curve.scrub_per_hour;
        space = models::global_chain_cache().duplex(params);
        fail = models::DuplexModel::fail_state();
      }
    }
    {
      Tracer::Scope span(tracer, "markov.solve");
      values.push_back(models::ber_curve(*space, fail,
                                         models::ber_scale(curve.code.n,
                                                           curve.code.k,
                                                           curve.code.m),
                                         times, solver, workspace, policy)
                           .ber);
    }
    if (tracer.enabled()) {
      tally.states += static_cast<double>(space->size());
      tally.nnz += static_cast<double>(space->chain.generator().nnz());
      const markov::PoissonWindow window = markov::poisson_window(
          space->chain.max_exit_rate() * (times[1] - times[0]),
          kTruncationError);
      tally.poisson_terms +=
          static_cast<double>(window.first_k + window.weights.size());
    }
  }
  return values;
}

constexpr int kFigureCount = 7;
const char* const kFigureNames[kFigureCount] = {
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig7_periodic"};

// Known-answer check of one regenerated figure; returns false on mismatch.
bool check_figure(int figure, const FigureValues& values, Result& result) {
  const auto& pins = kFigurePins[figure];
  bool ok = values.size() == pins.size();
  for (std::size_t c = 0; ok && c < values.size(); ++c) {
    const std::vector<double>& curve = values[c];
    ok = curve.size() == kPoints;
    for (const double v : curve) ok = ok && std::isfinite(v) && v >= 0.0 && v <= 1.0;
    for (std::size_t p = 0; ok && p < kPinnedPoints.size(); ++p) {
      const double want = pins[c][p];
      const double got = curve[kPinnedPoints[p]];
      ok = std::abs(got - want) <= kPinRelTolerance * std::abs(want);
    }
  }
  if (!ok) result.mismatch(std::string(kFigureNames[figure]) + " BER pins");
  return ok;
}

// A seed-dependent figure order for every suite.
std::vector<int> suite_order(rsmem::sim::Rng& rng) {
  std::vector<int> order(kFigureCount);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_int(i + 1)]);
  }
  return order;
}

// One suite: cleared chain cache, then every figure. Returns wall seconds.
double run_suite(const std::vector<int>& order, Tracer* tracer,
                 ChainTally& tally, Result& result) {
  std::vector<FigureValues> values(kFigureCount);
  const std::int64_t start = now_ns();
  models::global_chain_cache().clear();
  if (tracer == nullptr) {
    for (const int f : order) values[f] = library_figure(f);
  } else {
    Tracer::Scope span(*tracer, "suite");
    for (const int f : order) values[f] = traced_figure(f, *tracer, tally);
  }
  const double elapsed = seconds_since(start);
  for (int f = 0; f < kFigureCount; ++f) {
    result.attempted += 1;
    if (!check_figure(f, values[f], result)) result.failed += 1;
  }
  return elapsed;
}

}  // namespace

void run_figures(const Options& options, Tracer& tracer, Result& result) {
  rsmem::sim::Rng rng(options.seed);
  ChainTally unused;
  // Set-up: process start to the first timed suite, including two warm-up
  // suites (code and page warm-up, thread start-up).
  for (int i = 0; i < 2; ++i) run_suite(suite_order(rng), nullptr, unused, result);
  result.setup_s = seconds_since(options.start_ns);
  if (options.setup_only) return;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  if (!tracer.enabled()) {
    std::vector<double> suite_ms;
    while (now_ns() < deadline || suite_ms.empty()) {
      suite_ms.push_back(
          1e3 * run_suite(suite_order(rng), nullptr, unused, result));
    }
    std::printf("figures: %zu suites\n", suite_ms.size());
    result.metric("ops_per_s", 1e3 / median(suite_ms), "1/s");
    result.note("suites", std::to_string(suite_ms.size()));
    result.note("suite_ms_p50", json_number(quantile(suite_ms, 0.50)));
    result.note("suite_ms_p95", json_number(quantile(suite_ms, 0.95)));
    return;
  }

  // Traced run: a suite on every core, the same suite on one thread
  // untraced and then traced (same calls, tracer off/on), so the scaling
  // and the tracing overhead are measured in place.
  Tracer off(false);
  std::vector<double> all_ms;
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  ChainTally tally;
  models::ChainCache::Stats cache_traced{};
  while (now_ns() < deadline || on_ms.empty()) {
    const std::vector<int> order = suite_order(rng);
    ChainTally ignored;
    all_ms.push_back(1e3 * run_suite(order, nullptr, ignored, result));
    off_ms.push_back(1e3 * run_suite(order, &off, ignored, result));
    on_ms.push_back(1e3 * run_suite(order, &tracer, tally, result));
    // run_suite cleared the cache, and its counters, before the suite.
    const auto counts = models::global_chain_cache().stats();
    cache_traced.builds += counts.builds;
    cache_traced.replays += counts.replays;
    cache_traced.exact_hits += counts.exact_hits;
  }
  const double suites = static_cast<double>(on_ms.size());
  result.op_name = "suite";
  double attributed = 0.0;
  for (const auto& [name, ms] : tracer.self_ms_by_name()) {
    if (name == "suite") continue;
    result.stages.push_back({name, ms / suites});
    attributed += ms / suites;
  }
  const double total = tracer.root_ms() / suites;
  result.stages.push_back({"unattributed", total - attributed});
  add_stage_shares(result);
  result.metric("unattributed_ms", total - attributed, "ms");
  result.metric("total_ms", total, "ms");
  result.metric("models.chain_builds", cache_traced.builds / suites, "count");
  result.metric("models.chain_replays", cache_traced.replays / suites, "count");
  result.metric("models.chain_exact_hits", cache_traced.exact_hits / suites,
                "count");
  result.metric("markov.states", tally.states / suites, "count");
  result.metric("markov.nnz", tally.nnz / suites, "count");
  result.metric("markov.poisson_terms", tally.poisson_terms / suites, "count");
  const double off_p50 = median(off_ms);
  result.metric("trace.overhead_pct",
                100.0 * (median(on_ms) - off_p50) / off_p50, "%");
  result.metric("analysis.scaling_eff",
                off_p50 / (host_threads() * median(all_ms)), "share");
  result.note("untraced_suite_ms_p50_1t", json_number(off_p50));
  // The codec is off this path; its probes are on record as a control.
  add_probe_metrics(run_probes(kRs1816Params, kDuplexPlaneWidth, {}, rng),
                    result);
}

}  // namespace perfbench

#include "analysis/experiment.h"

#include <cstdio>

#include "analysis/campaign.h"
#include "core/units.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/chain_cache.h"

namespace rsmem::analysis {

namespace {

// Dense step operators pay off for every chain the paper's figures touch
// (a few to a few dozen states); the bound only guards pathological
// models from an n^2 operator build.
constexpr std::size_t kEngineMaxDenseStates = 256;

std::string format_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1E", v);
  return buf;
}

// SimplexParams and DuplexParams share these fields.
template <typename Params>
Params model_params(const CodeSpec& code, double seu_per_bit_hour,
                    double erasure_per_symbol_hour,
                    double scrub_rate_per_hour) {
  Params params;
  params.n = code.n;
  params.k = code.k;
  params.m = code.m;
  params.seu_rate_per_bit_hour = seu_per_bit_hour;
  params.erasure_rate_per_symbol_hour = erasure_per_symbol_hour;
  params.scrub_rate_per_hour = scrub_rate_per_hour;
  return params;
}

// One sweep point: chain from the process-wide cache, per-thread
// workspace, dense step operators on the repeated grid widths.
models::BerCurve run_curve(Arrangement arrangement, const CodeSpec& code,
                           double seu_per_bit_hour,
                           double erasure_per_symbol_hour,
                           double scrub_rate_per_hour,
                           std::span<const double> times_hours) {
  static thread_local markov::SolverWorkspace workspace;
  const markov::UniformizationSolver solver;
  const markov::StepPolicy policy{kEngineMaxDenseStates};
  if (arrangement == Arrangement::kSimplex) {
    return models::simplex_ber_curve(
        model_params<models::SimplexParams>(code, seu_per_bit_hour,
                                            erasure_per_symbol_hour,
                                            scrub_rate_per_hour),
        times_hours, solver, models::global_chain_cache(), workspace, policy);
  }
  return models::duplex_ber_curve(
      model_params<models::DuplexParams>(code, seu_per_bit_hour,
                                         erasure_per_symbol_hour,
                                         scrub_rate_per_hour),
      times_hours, solver, models::global_chain_cache(), workspace, policy);
}

}  // namespace

const char* to_string(Arrangement a) {
  return a == Arrangement::kSimplex ? "simplex" : "duplex";
}

std::vector<Series> seu_rate_sweep(Arrangement arrangement, CodeSpec code,
                                   std::span<const double> seu_per_bit_day,
                                   double t_end_hours, std::size_t points,
                                   const SweepOptions& options) {
  const std::vector<double> times =
      models::time_grid_hours(t_end_hours, points);
  std::vector<Series> series(seu_per_bit_day.size());
  parallel_for_indexed(
      seu_per_bit_day.size(), options.threads, [&](std::size_t i) {
        const double rate_day = seu_per_bit_day[i];
        const models::BerCurve curve =
            run_curve(arrangement, code, core::per_day_to_per_hour(rate_day),
                      0.0, 0.0, times);
        series[i] = {"lambda=" + format_rate(rate_day) + "/bit/day", times,
                     curve.ber};
      });
  return series;
}

std::vector<Series> scrub_period_sweep(Arrangement arrangement, CodeSpec code,
                                       double seu_per_bit_day,
                                       std::span<const double> periods_seconds,
                                       double t_end_hours, std::size_t points,
                                       const SweepOptions& options) {
  const std::vector<double> times =
      models::time_grid_hours(t_end_hours, points);
  std::vector<Series> series(periods_seconds.size());
  parallel_for_indexed(
      periods_seconds.size(), options.threads, [&](std::size_t i) {
        const double period_s = periods_seconds[i];
        const models::BerCurve curve =
            run_curve(arrangement, code,
                      core::per_day_to_per_hour(seu_per_bit_day), 0.0,
                      core::scrub_rate_per_hour(period_s), times);
        char label[32];
        std::snprintf(label, sizeof label, "Tsc=%.0f s", period_s);
        series[i] = {label, times, curve.ber};
      });
  return series;
}

std::vector<Series> permanent_rate_sweep(
    Arrangement arrangement, CodeSpec code,
    std::span<const double> erasure_per_symbol_day, double t_end_months,
    std::size_t points, const SweepOptions& options) {
  const std::vector<double> times_hours =
      models::time_grid_hours(core::months_to_hours(t_end_months), points);
  std::vector<double> times_months;
  times_months.reserve(times_hours.size());
  for (const double t : times_hours) {
    times_months.push_back(core::hours_to_months(t));
  }
  std::vector<Series> series(erasure_per_symbol_day.size());
  parallel_for_indexed(
      erasure_per_symbol_day.size(), options.threads, [&](std::size_t i) {
        const double rate_day = erasure_per_symbol_day[i];
        const models::BerCurve curve =
            run_curve(arrangement, code, 0.0,
                      core::per_day_to_per_hour(rate_day), 0.0, times_hours);
        series[i] = {"lambda_e=" + format_rate(rate_day) + "/sym/day",
                     times_months, curve.ber};
      });
  return series;
}

}  // namespace rsmem::analysis

// Markov sweep-engine throughput: a legacy serial reference vs the
// cached / zero-alloc / parallel engine, on the paper's Fig. 7 workload
// (duplex RS(18,16), lambda = 1.7e-5 /bit/day, Tsc in {900, 1200, 1800,
// 3600} s, 25 time points over 48 h), plus the incremental periodic-scrub
// curve vs the old from-scratch-per-point evaluation. Both references are
// built here at their old cost: a chain build per curve and one solve()
// -- a fresh workspace -- per grid step or scrub cycle.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/units.h"
#include "markov/periodic.h"
#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/chain_cache.h"
#include "models/duplex_model.h"
#include "models/metrics.h"

using namespace rsmem;

namespace {

template <typename F>
double best_of_seconds(int reps, F&& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (dt < best) best = dt;
  }
  return best;
}

double max_rel_diff(const std::vector<analysis::Series>& a,
                    const std::vector<analysis::Series>& b,
                    double floor = 1e-300) {
  double worst = 0.0;
  for (std::size_t s = 0; s < a.size() && s < b.size(); ++s) {
    for (std::size_t i = 0; i < a[s].y.size() && i < b[s].y.size(); ++i) {
      const double scale = std::max({std::fabs(a[s].y[i]),
                                     std::fabs(b[s].y[i]), floor});
      worst = std::max(worst, std::fabs(a[s].y[i] - b[s].y[i]) / scale);
    }
  }
  return worst;
}

bool bitwise_equal(const std::vector<analysis::Series>& a,
                   const std::vector<analysis::Series>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].y != b[s].y) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_markov_throughput", "Fig. 7 pipeline",
      "Markov sweep engine (chain cache + workspace + dense steps + "
      "thread pool) vs legacy serial per-point solving");

  const unsigned hw = std::thread::hardware_concurrency();
  bench::ShapeChecks checks;

  // ---- Section 1: Fig. 7 scrub-period sweep, end to end. ----
  const double periods[] = {900.0, 1200.0, 1800.0, 3600.0};
  const analysis::CodeSpec code{18, 16, 8};
  constexpr double kSeuPerBitDay = 1.7e-5;
  constexpr double kHorizonHours = 48.0;
  constexpr std::size_t kPoints = 25;

  const auto run_sweep = [&](const analysis::SweepOptions& options) {
    return analysis::scrub_period_sweep(analysis::Arrangement::kDuplex, code,
                                        kSeuPerBitDay, periods, kHorizonHours,
                                        kPoints, options);
  };
  // Legacy serial reference: per period a fresh chain build, then one
  // solve() per grid step, chaining the distribution forward.
  const auto run_legacy = [&] {
    const markov::UniformizationSolver solver;
    const std::vector<double> times =
        models::time_grid_hours(kHorizonHours, kPoints);
    std::vector<analysis::Series> series;
    for (const double period : periods) {
      models::DuplexParams p;
      p.n = code.n;
      p.k = code.k;
      p.m = code.m;
      p.seu_rate_per_bit_hour = core::per_day_to_per_hour(kSeuPerBitDay);
      p.scrub_rate_per_hour = core::scrub_rate_per_hour(period);
      const markov::StateSpace space = models::DuplexModel{p}.build();
      const std::size_t fail =
          space.index_of(models::DuplexModel::fail_state());
      const double scale = models::ber_scale(p.n, p.k, p.m);
      analysis::Series curve{"", times, {}};
      std::vector<double> pi = space.chain.initial_distribution();
      double t_prev = 0.0;
      for (const double t : times) {
        if (t > t_prev) {
          pi = solver.solve(space.chain, pi, t - t_prev);
          t_prev = t;
        }
        curve.y.push_back(scale * pi[fail]);
      }
      series.push_back(std::move(curve));
    }
    return series;
  };
  const analysis::SweepOptions engine1_opts{1};
  const analysis::SweepOptions engine4_opts{4};

  const auto legacy = run_legacy();
  models::global_chain_cache().clear();
  const auto engine1 = run_sweep(engine1_opts);
  models::global_chain_cache().clear();
  const auto engine4 = run_sweep(engine4_opts);

  const double rel = max_rel_diff(legacy, engine4);
  checks.expect(rel <= 1e-12,
                "engine agrees with legacy to <= 1e-12 relative (got " +
                    analysis::format_sci(rel) + ")");
  checks.expect(bitwise_equal(engine1, engine4),
                "engine series identical for 1 and 4 threads");

  // Timing: pick repetitions from one legacy run so the totals are large
  // enough to trust, then keep the best (least-noise) repetition. Each
  // engine repetition starts from a cold chain cache.
  const double once = best_of_seconds(1, run_legacy);
  const int reps =
      std::max(3, std::min(25, static_cast<int>(0.5 / std::max(once, 1e-4))));
  const double t_legacy = best_of_seconds(reps, run_legacy);
  const double t_engine1 = best_of_seconds(reps, [&] {
    models::global_chain_cache().clear();
    run_sweep(engine1_opts);
  });
  const double t_engine4 = best_of_seconds(reps, [&] {
    models::global_chain_cache().clear();
    run_sweep(engine4_opts);
  });

  const double speedup1 = t_legacy / t_engine1;
  const double speedup4 = t_legacy / t_engine4;
  analysis::Table perf{{"path", "threads", "best ms", "speedup"}};
  perf.add_row({"legacy serial", "1", analysis::format_fixed(t_legacy * 1e3, 3),
                "1.00"});
  perf.add_row({"engine", "1", analysis::format_fixed(t_engine1 * 1e3, 3),
                analysis::format_fixed(speedup1, 2)});
  perf.add_row({"engine", "4", analysis::format_fixed(t_engine4 * 1e3, 3),
                analysis::format_fixed(speedup4, 2)});
  std::printf("\nFig. 7 sweep (4 periods x %zu points), best of %d:\n%s\n",
              kPoints, reps, perf.to_text().c_str());

  if (hw >= 4) {
    checks.expect(speedup4 >= 3.0,
                  "engine at 4 threads >= 3x legacy serial (Fig. 7 sweep)");
  } else {
    std::printf(
        "note: %u hardware thread(s) available; the 4-thread >= 3x check "
        "needs 4+, gating on the single-thread engine instead\n",
        hw);
    checks.expect(speedup1 >= 1.5,
                  "engine at 1 thread >= 1.5x legacy serial (Fig. 7 sweep)");
  }

  // ---- Section 2: incremental periodic-scrub occupancy. ----
  // The library path carries the distribution across scrub cycles; the
  // reference below recomputes every point from pi(0) with one solve()
  // per cycle, which is what occupancy_with_periodic_jump used to do (48 h
  // at Tsc = 900 s is 192 cycles, so the old cost grew quadratically).
  models::DuplexParams params;
  params.n = 18;
  params.k = 16;
  params.m = 8;
  params.seu_rate_per_bit_hour = core::per_day_to_per_hour(kSeuPerBitDay);
  const double tsc_hours = core::seconds_to_hours(900.0);
  const std::vector<double> times =
      models::time_grid_hours(kHorizonHours, kPoints);

  const models::DuplexModel model{params};
  const markov::StateSpace space = model.build();
  const std::size_t fail_index =
      space.index_of(models::DuplexModel::fail_state());
  std::vector<std::size_t> jump_map(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const markov::PackedState s = space.states[i];
    if (models::DuplexModel::is_fail(s)) {
      jump_map[i] = i;
      continue;
    }
    const models::DuplexState d = models::DuplexModel::unpack(s);
    models::DuplexState scrubbed;
    scrubbed.x = d.x;
    scrubbed.y = d.y + d.b;
    jump_map[i] = space.index_of(models::DuplexModel::pack(scrubbed));
  }
  const markov::UniformizationSolver solver;

  const auto jump = [&](std::vector<double>& pi) {
    std::vector<double> next(pi.size(), 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s) next[jump_map[s]] += pi[s];
    pi.swap(next);
  };
  const auto from_scratch = [&] {
    const double eps = tsc_hours * 1e-9;
    std::vector<double> out;
    out.reserve(times.size());
    for (const double t : times) {
      std::vector<double> pi = space.chain.initial_distribution();
      double now = 0.0;
      while (t - now > tsc_hours - eps) {
        pi = solver.solve(space.chain, pi, tsc_hours);
        jump(pi);
        now += tsc_hours;
      }
      if (t - now > eps) {
        const double rest = t - now;
        pi = solver.solve(space.chain, pi, rest);
        if (std::fabs(rest - tsc_hours) <= eps) jump(pi);
      }
      out.push_back(pi[fail_index]);
    }
    return out;
  };
  // The library path as production calls it: a call-local workspace.
  const auto incremental = [&] {
    markov::SolverWorkspace call_ws;
    return markov::occupancy_with_periodic_jump(space.chain, fail_index,
                                                jump_map, tsc_hours, times,
                                                solver, call_ws);
  };

  const std::vector<double> scratch_curve = from_scratch();
  const std::vector<double> incr_curve = incremental();
  checks.expect(scratch_curve == incr_curve,
                "incremental periodic curve bitwise equals from-scratch");

  const double t_scratch = best_of_seconds(3, from_scratch);
  const double t_incr = best_of_seconds(3, incremental);
  const double periodic_speedup = t_scratch / t_incr;

  markov::SolverWorkspace ws;
  const markov::StepPolicy dense_policy{256};
  const auto engine_periodic = [&] {
    return markov::occupancy_with_periodic_jump(space.chain, fail_index,
                                                jump_map, tsc_hours, times,
                                                solver, ws, dense_policy);
  };
  const std::vector<double> engine_curve = engine_periodic();
  double periodic_rel = 0.0;
  for (std::size_t i = 0; i < incr_curve.size(); ++i) {
    const double scale =
        std::max({std::fabs(incr_curve[i]), std::fabs(engine_curve[i]), 1e-300});
    periodic_rel = std::max(
        periodic_rel, std::fabs(incr_curve[i] - engine_curve[i]) / scale);
  }
  checks.expect(periodic_rel <= 1e-12,
                "dense-step periodic engine agrees to <= 1e-12 relative");
  const double t_engine_periodic = best_of_seconds(3, engine_periodic);

  analysis::Table periodic{{"path", "best ms", "speedup"}};
  periodic.add_row({"from-scratch per point",
                    analysis::format_fixed(t_scratch * 1e3, 3), "1.00"});
  periodic.add_row({"incremental (library)",
                    analysis::format_fixed(t_incr * 1e3, 3),
                    analysis::format_fixed(periodic_speedup, 2)});
  periodic.add_row({"incremental + workspace + dense steps",
                    analysis::format_fixed(t_engine_periodic * 1e3, 3),
                    analysis::format_fixed(t_scratch / t_engine_periodic, 2)});
  std::printf(
      "\nPeriodic scrub occupancy (Tsc=900 s, 192 cycles, %zu points):\n%s\n",
      kPoints, periodic.to_text().c_str());

  // O(cycles^2) -> O(cycles): architecturally ~10x here, so a 3x floor is
  // safe on any machine.
  checks.expect(periodic_speedup >= 3.0,
                "incremental periodic curve >= 3x from-scratch");
  return checks.exit_code();
}

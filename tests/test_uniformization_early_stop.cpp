// The uniformization early stop (markov/uniformization.h): solve_into stops
// summing the Poisson window once no remaining term can change a bit of the
// result. These tests hold it to the whole window, summed by a test-local
// loop, bit for bit -- the sign of zero included -- on every chain the
// paper's figures solve, and check that the stop fires only when it may.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/units.h"
#include "linalg/csr_matrix.h"
#include "markov/ctmc.h"
#include "markov/solver_workspace.h"
#include "markov/state_space.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::markov {
namespace {

// UniformizationSolver's default truncation error.
constexpr double kTruncationError = 1e-14;
constexpr std::size_t kPoints = 49;  // the figures' time axis
// The sweep engine's dense-stepping bound (analysis/experiment.cpp).
constexpr std::size_t kMaxDenseStates = 256;

// pi(t) from every term of the Poisson window: the sum solve_into computed
// before the early stop.
std::vector<double> full_window_solve(const Ctmc& chain,
                                      std::span<const double> pi0, double t) {
  std::vector<double> out(pi0.begin(), pi0.end());
  const double q = chain.max_exit_rate();
  if (t == 0.0 || q == 0.0) return out;
  const PoissonWindow window = poisson_window(q * t, kTruncationError);
  const std::size_t last_k = window.first_k + window.weights.size() - 1;
  std::vector<double> v(pi0.begin(), pi0.end());
  std::vector<double> qv(v.size());
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t k = 0; k <= last_k; ++k) {
    if (k >= window.first_k) {
      const double w = window.weights[k - window.first_k];
      for (std::size_t i = 0; i < v.size(); ++i) out[i] += w * v[i];
    }
    if (k == last_k) break;
    chain.generator().apply_transpose(v, qv);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += qv[i] / q;
  }
  for (double& x : out) x = std::max(x, 0.0);
  return out;
}

// One solve_into on `ws` against the whole window; true when every double
// matches bit for bit.
bool solves_bitwise(const Ctmc& chain, std::span<const double> pi0, double t,
                    SolverWorkspace& ws, const std::string& what) {
  const UniformizationSolver solver;
  std::vector<double> got(chain.num_states());
  solver.solve_into(chain, pi0, t, ws, got);
  const std::vector<double> want = full_window_solve(chain, pi0, t);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(want[i]) !=
        std::bit_cast<std::uint64_t>(got[i])) {
      char values[96];
      std::snprintf(values, sizeof values, "want %a, got %a", want[i],
                    got[i]);
      ADD_FAILURE() << what << " t=" << t << " state " << i << ": "
                    << values;
      return false;
    }
  }
  return true;
}

struct FigureChain {
  std::string name;
  StateSpace space;
  PackedState fail;
  std::vector<double> times;  // the figure's grid, hours
};

template <typename Params>
Params params_of(unsigned n, double seu_per_bit_day,
                 double erasure_per_symbol_day, double scrub_period_s) {
  Params p;
  p.n = n;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = core::per_day_to_per_hour(seu_per_bit_day);
  p.erasure_rate_per_symbol_hour =
      core::per_day_to_per_hour(erasure_per_symbol_day);
  p.scrub_rate_per_hour =
      scrub_period_s > 0.0 ? core::scrub_rate_per_hour(scrub_period_s) : 0.0;
  return p;
}

FigureChain figure_chain(const std::string& name, bool duplex, unsigned n,
                         double seu_per_bit_day, double erasure_per_symbol_day,
                         double scrub_period_s, double t_end_hours) {
  std::vector<double> times = models::time_grid_hours(t_end_hours, kPoints);
  if (duplex) {
    return {name,
            models::DuplexModel{params_of<models::DuplexParams>(
                                    n, seu_per_bit_day, erasure_per_symbol_day,
                                    scrub_period_s)}
                .build(),
            models::DuplexModel::fail_state(), std::move(times)};
  }
  return {name,
          models::SimplexModel{params_of<models::SimplexParams>(
                                   n, seu_per_bit_day, erasure_per_symbol_day,
                                   scrub_period_s)}
              .build(),
          models::SimplexModel::fail_state(), std::move(times)};
}

// Every chain of Figs. 5-10, in the sweeps' units, and the fault-only chain
// of Fig. 7 under periodic scrubbing (its grid is the figure's 48 h axis;
// the scrub cycles are checked separately).
std::vector<FigureChain> figure_chains() {
  const double seu_rates[] = {1.7e-5, 3.6e-6, 7.3e-7};
  const double scrub_periods[] = {900.0, 1200.0, 1800.0, 3600.0};
  const double perm_rates[] = {1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
  const double months24 = core::months_to_hours(24.0);
  std::vector<FigureChain> chains;
  for (const double s : seu_rates) {
    chains.push_back(figure_chain("fig5", false, 18, s, 0.0, 0.0, 48.0));
    chains.push_back(figure_chain("fig6", true, 18, s, 0.0, 0.0, 48.0));
  }
  for (const double tsc : scrub_periods) {
    chains.push_back(figure_chain("fig7", true, 18, 1.7e-5, 0.0, tsc, 48.0));
  }
  for (const double e : perm_rates) {
    chains.push_back(figure_chain("fig8", false, 18, 0.0, e, 0.0, months24));
    chains.push_back(figure_chain("fig9", true, 18, 0.0, e, 0.0, months24));
    chains.push_back(figure_chain("fig10", false, 36, 0.0, e, 0.0, months24));
  }
  chains.push_back(
      figure_chain("fig7_periodic", true, 18, 1.7e-5, 0.0, 0.0, 48.0));
  return chains;
}

std::string label(const FigureChain& fc, const char* what) {
  return fc.name + " (" + std::to_string(fc.space.size()) + " states) " + what;
}

TEST(UniformizationEarlyStop, FigureChainsBitwiseAtEveryGridStep) {
  SolverWorkspace ws;
  for (const FigureChain& fc : figure_chains()) {
    const Ctmc& chain = fc.space.chain;
    const std::vector<double> pi_init = chain.initial_distribution();
    // From pi(0) to every grid time, and the grid walked step by step.
    std::vector<double> pi = pi_init;
    double t_prev = 0.0;
    for (const double t : fc.times) {
      ASSERT_TRUE(solves_bitwise(chain, pi_init, t, ws, label(fc, "pi(0)")));
      if (t > t_prev) {
        ASSERT_TRUE(solves_bitwise(chain, pi, t - t_prev, ws,
                                   label(fc, "step")));
        pi = full_window_solve(chain, pi, t - t_prev);
        t_prev = t;
      }
    }
  }
}

TEST(UniformizationEarlyStop, PeriodicFig7ScrubCyclesBitwise) {
  // The periodic walk solves whole scrub cycles, then the remainder up to
  // each query time.
  SolverWorkspace ws;
  const FigureChain fc =
      figure_chain("fig7_periodic", true, 18, 1.7e-5, 0.0, 0.0, 48.0);
  const std::vector<double> pi0 = fc.space.chain.initial_distribution();
  for (const double tsc : {900.0, 1200.0, 1800.0, 3600.0}) {
    const double period = core::seconds_to_hours(tsc);
    ASSERT_TRUE(solves_bitwise(fc.space.chain, pi0, period, ws,
                               label(fc, "cycle")));
    for (const double t : fc.times) {
      const double rest = t - period * static_cast<double>(
                                           static_cast<long>(t / period));
      ASSERT_TRUE(solves_bitwise(fc.space.chain, pi0, rest, ws,
                                 label(fc, "remainder")));
    }
  }
}

TEST(UniformizationEarlyStop, StepOperatorBasisRowsBitwise) {
  // Exactly the rows the sweep engine's dense operators are built from:
  // e_i advanced by every grid width repeated more often than the chain
  // has states.
  SolverWorkspace ws;
  std::size_t rows = 0;
  for (const FigureChain& fc : figure_chains()) {
    const std::size_t n = fc.space.size();
    if (n > kMaxDenseStates) continue;
    std::vector<std::pair<double, std::size_t>> widths;
    double t_prev = 0.0;
    for (const double t : fc.times) {
      if (t <= t_prev) continue;
      const double dt = t - t_prev;
      auto it = std::find_if(widths.begin(), widths.end(),
                             [dt](const auto& w) { return w.first == dt; });
      if (it == widths.end()) {
        widths.emplace_back(dt, 1);
      } else {
        ++it->second;
      }
      t_prev = t;
    }
    std::vector<double> basis(n, 0.0);
    for (const auto& [dt, count] : widths) {
      if (count <= n) continue;
      for (std::size_t i = 0; i < n; ++i) {
        basis[i] = 1.0;
        ASSERT_TRUE(solves_bitwise(fc.space.chain, basis, dt, ws,
                                   label(fc, "basis row")));
        basis[i] = 0.0;
        ++rows;
      }
    }
  }
  EXPECT_GT(rows, 0u);  // the dense path is engaged on some figure chain
}

// pi0 spread evenly over the states with a transition into Fail.
std::vector<double> next_to_fail(const FigureChain& fc) {
  const std::size_t fail = fc.space.index_of(fc.fail);
  const linalg::CsrMatrix& gen = fc.space.chain.generator();
  std::vector<double> pi0(fc.space.size(), 0.0);
  std::size_t count = 0;
  for (std::size_t s = 0; s < pi0.size(); ++s) {
    if (s != fail && gen.at(s, fail) > 0.0) {
      pi0[s] = 1.0;
      ++count;
    }
  }
  for (double& x : pi0) x /= static_cast<double>(count);
  return pi0;
}

TEST(UniformizationEarlyStop, MassNextToFailAndScaledBy1e200Bitwise) {
  SolverWorkspace ws;
  for (const FigureChain& fc : figure_chains()) {
    for (const double scale : {1.0, 1e-200}) {
      std::vector<double> pi0 = next_to_fail(fc);
      for (double& x : pi0) x *= scale;
      for (const double t : {fc.times[1], fc.times[24], fc.times.back()}) {
        ASSERT_TRUE(solves_bitwise(fc.space.chain, pi0, t, ws,
                                   label(fc, "next-to-fail pi0")))
            << "scale " << scale;
      }
    }
  }
}

TEST(UniformizationEarlyStop, UnreachableStatesStayPositiveZero) {
  // 0 -> 1 -> 2 (absorbing) is what pi0 reaches. 3 -> 4 -> 5 and 3 -> 1
  // are not reachable from it, and state 3's fast exit sets q, so every
  // reachable state also keeps a self-loop in P.
  const std::vector<linalg::Triplet> triplets = {
      {0, 0, -2.0}, {0, 1, 2.0},  {1, 1, -1.0}, {1, 2, 1.0},
      {3, 3, -50.0}, {3, 4, 40.0}, {3, 1, 10.0}, {4, 4, -5.0},
      {4, 5, 5.0}};
  const Ctmc chain(linalg::CsrMatrix(6, 6, triplets), 0);
  SolverWorkspace ws;
  for (const double t : {0.01, 0.3, 1.0, 4.0, 20.0}) {
    for (const double scale : {1.0, 1e-200}) {
      const std::vector<double> pi0 = {scale, 0.0, 0.0, 0.0, 0.0, 0.0};
      ASSERT_TRUE(solves_bitwise(chain, pi0, t, ws, "hand-built chain"));
      std::vector<double> out(6);
      UniformizationSolver{}.solve_into(chain, pi0, t, ws, out);
      for (std::size_t s = 3; s < 6; ++s) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[s]), 0u)
            << "state " << s << " t=" << t;
      }
    }
  }
  // The unreachable zeros do not hold the stop back.
  EXPECT_LT(ws.terms_summed(), ws.terms_offered());
}

TEST(UniformizationEarlyStop, CountersShowWhereTheStopFired) {
  const UniformizationSolver solver;
  {
    // Fig. 5's chain stops early.
    const FigureChain fc =
        figure_chain("fig5", false, 18, 1.7e-5, 0.0, 0.0, 48.0);
    SolverWorkspace ws;
    std::vector<double> out(fc.space.size());
    solver.solve_into(fc.space.chain, fc.space.chain.initial_distribution(),
                      fc.times[1], ws, out);
    EXPECT_GT(ws.terms_summed(), 0u);
    EXPECT_LT(ws.terms_summed(), ws.terms_offered());
    ws.clear();
    EXPECT_EQ(ws.terms_summed(), 0u);
    EXPECT_EQ(ws.terms_offered(), 0u);
  }
  {
    // RS(36,16) at lambda_e = 1e-10 from pi(0) scaled by 1e-200: Fail's
    // mass underflows to 0, so the whole window is summed.
    const FigureChain fc = figure_chain("fig10", false, 36, 0.0, 1e-10, 0.0,
                                        core::months_to_hours(24.0));
    std::vector<double> pi0 = fc.space.chain.initial_distribution();
    for (double& x : pi0) x *= 1e-200;
    const std::size_t fail = fc.space.index_of(fc.fail);
    ASSERT_EQ(full_window_solve(fc.space.chain, pi0, fc.times[1])[fail], 0.0);
    SolverWorkspace ws;
    std::vector<double> out(fc.space.size());
    solver.solve_into(fc.space.chain, pi0, fc.times[1], ws, out);
    EXPECT_EQ(out[fail], 0.0);
    EXPECT_GT(ws.terms_offered(), 0u);
    EXPECT_EQ(ws.terms_summed(), ws.terms_offered());
  }
}

}  // namespace
}  // namespace rsmem::markov

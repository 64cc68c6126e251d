// Tests for the solver workspace layer: solve_into vs the allocating
// solve(), Poisson-window caching, dense step operators, and the
// incremental periodic-jump evaluation -- all on the chains the paper's
// figures actually solve. The walks are checked against test-local loops
// of per-step solve() calls, each on a fresh workspace.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "markov/ctmc.h"
#include "markov/periodic.h"
#include "markov/rk45.h"
#include "markov/solver_workspace.h"
#include "markov/state_space.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::markov {
namespace {

models::SimplexParams simplex_params() {
  models::SimplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.7e-5 / 24.0;
  p.scrub_rate_per_hour = 4.0;
  return p;
}

models::DuplexParams duplex_params() {
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1.7e-5 / 24.0;
  p.erasure_rate_per_symbol_hour = 1e-6;
  return p;
}

std::vector<double> grid(double t_end, std::size_t points) {
  return models::time_grid_hours(t_end, points);
}

// Reference occupancy walk: one solve() -- a fresh workspace -- per grid
// step, chaining the distribution forward.
std::vector<double> occupancy_by_solve(const TransientSolver& solver,
                                       const Ctmc& chain, std::size_t state,
                                       const std::vector<double>& times) {
  std::vector<double> out;
  std::vector<double> pi = chain.initial_distribution();
  double t_prev = 0.0;
  for (const double t : times) {
    if (t > t_prev) {
      pi = solver.solve(chain, pi, t - t_prev);
      t_prev = t;
    }
    out.push_back(pi[state]);
  }
  return out;
}

// Reference periodic-jump solve from pi0: one solve() per scrub cycle,
// then the remainder, with the jump applied first at a jump instant.
std::vector<double> periodic_by_solve(const TransientSolver& solver,
                                      const Ctmc& chain,
                                      const std::vector<double>& pi0,
                                      const std::vector<std::size_t>& jump_map,
                                      double period, double t) {
  const auto jump = [&](std::vector<double>& pi) {
    std::vector<double> next(pi.size(), 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s) next[jump_map[s]] += pi[s];
    pi.swap(next);
  };
  std::vector<double> pi = pi0;
  double now = 0.0;
  const double eps = period * 1e-9;
  while (t - now > period - eps) {
    pi = solver.solve(chain, pi, period);
    jump(pi);
    now += period;
  }
  if (t - now > eps) {
    const double rest = t - now;
    pi = solver.solve(chain, pi, rest);
    if (std::fabs(rest - period) <= eps) jump(pi);
  }
  return pi;
}

TEST(SolverWorkspace, SolveIntoBitwiseMatchesSolveUniformization) {
  const UniformizationSolver solver;
  SolverWorkspace ws;
  for (const bool duplex : {false, true}) {
    const StateSpace space =
        duplex ? models::DuplexModel{duplex_params()}.build()
               : models::SimplexModel{simplex_params()}.build();
    const std::vector<double> pi0 = space.chain.initial_distribution();
    std::vector<double> out(space.size());
    for (const double t : {0.0, 0.25, 1.0, 12.0, 48.0}) {
      const std::vector<double> ref = solver.solve(space.chain, pi0, t);
      solver.solve_into(space.chain, pi0, t, ws, out);
      ASSERT_EQ(ref.size(), out.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i], out[i]) << "duplex=" << duplex << " t=" << t
                                  << " state=" << i;
      }
    }
  }
}

TEST(SolverWorkspace, SolveIntoBitwiseMatchesSolveRk45) {
  const Rk45Solver solver;
  SolverWorkspace ws;
  const StateSpace space = models::SimplexModel{simplex_params()}.build();
  const std::vector<double> pi0 = space.chain.initial_distribution();
  std::vector<double> out(space.size());
  for (const double t : {0.0, 0.5, 7.0, 48.0}) {
    const std::vector<double> ref = solver.solve(space.chain, pi0, t);
    solver.solve_into(space.chain, pi0, t, ws, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(ref[i], out[i]) << "t=" << t << " state=" << i;
    }
  }
}

TEST(SolverWorkspace, SolveIntoRejectsBadOutputSize) {
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const StateSpace space = models::SimplexModel{simplex_params()}.build();
  const std::vector<double> pi0 = space.chain.initial_distribution();
  std::vector<double> out(space.size() + 1);
  EXPECT_THROW(solver.solve_into(space.chain, pi0, 1.0, ws, out),
               std::invalid_argument);
}

TEST(SolverWorkspace, PoissonWindowCacheHitsOnRepeatedKey) {
  SolverWorkspace ws;
  const PoissonWindow& a = ws.poisson(12.5, 1e-12, kPoissonTailFloor);
  EXPECT_EQ(ws.window_cache_misses(), 1u);
  EXPECT_EQ(ws.window_cache_hits(), 0u);
  const PoissonWindow& b = ws.poisson(12.5, 1e-12, kPoissonTailFloor);
  EXPECT_EQ(ws.window_cache_hits(), 1u);
  EXPECT_EQ(&a, &b);  // same cached entry, not a recompute
  ws.poisson(25.0, 1e-12, kPoissonTailFloor);
  EXPECT_EQ(ws.window_cache_misses(), 2u);
  EXPECT_EQ(ws.window_cache_size(), 2u);
  // The cached window matches a fresh computation exactly.
  const PoissonWindow fresh = poisson_window(12.5, 1e-12);
  const PoissonWindow& cached = ws.poisson(12.5, 1e-12, kPoissonTailFloor);
  EXPECT_EQ(cached.first_k, fresh.first_k);
  EXPECT_EQ(cached.weights, fresh.weights);
  ws.clear();
  EXPECT_EQ(ws.window_cache_size(), 0u);
}

TEST(SolverWorkspace, OccupancyCurveDefaultPolicyBitwise) {
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const StateSpace space = models::DuplexModel{duplex_params()}.build();
  const std::size_t fail = space.index_of(models::DuplexModel::fail_state());
  const std::vector<double> times = grid(48.0, 25);
  const std::vector<double> ref =
      occupancy_by_solve(solver, space.chain, fail, times);
  const std::vector<double> got =
      solver.occupancy_curve(space.chain, fail, times, ws);
  EXPECT_EQ(ref, got);
}

TEST(SolverWorkspace, OccupancyCurveDensePolicyClose) {
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const StateSpace space = models::DuplexModel{duplex_params()}.build();
  const std::size_t fail = space.index_of(models::DuplexModel::fail_state());
  // Evenly spaced grid with more repeats of dt than states, so the dense
  // operator actually engages.
  const std::vector<double> times = grid(48.0, 200);
  const std::vector<double> ref =
      occupancy_by_solve(solver, space.chain, fail, times);
  const std::vector<double> got =
      solver.occupancy_curve(space.chain, fail, times, ws, StepPolicy{256});
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max({std::fabs(ref[i]), std::fabs(got[i]), 1e-300});
    EXPECT_LE(std::fabs(ref[i] - got[i]) / scale, 1e-12) << "i=" << i;
  }
}

TEST(StepOperatorTest, AdvanceMatchesDirectSolve) {
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const StateSpace space = models::SimplexModel{simplex_params()}.build();
  const double dt = 0.25;
  const StepOperator op(space.chain, dt, solver, ws);
  EXPECT_EQ(op.num_states(), space.size());
  EXPECT_DOUBLE_EQ(op.dt(), dt);
  const std::vector<double> pi0 = space.chain.initial_distribution();
  std::vector<double> stepped(space.size());
  op.advance(pi0, stepped);
  const std::vector<double> ref = solver.solve(space.chain, pi0, dt);
  double total = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(stepped[i], ref[i], 1e-13) << "state=" << i;
    EXPECT_GE(stepped[i], 0.0);
    total += stepped[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

// A duplex chain with a scrub jump map, as metrics.cpp builds for
// periodic-scrub BER: faults accumulate continuously, the jump repairs
// every non-fail state.
struct PeriodicFixture {
  StateSpace space;
  std::size_t fail_index;
  std::vector<std::size_t> jump_map;

  PeriodicFixture() : space(models::DuplexModel{duplex_params()}.build()) {
    fail_index = space.index_of(models::DuplexModel::fail_state());
    jump_map.resize(space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      const PackedState s = space.states[i];
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
  }
};

// Fail occupancy at each time, every point solved from pi(0) by
// periodic_by_solve.
std::vector<double> periodic_occupancy_by_solve(
    const PeriodicFixture& fx, double period,
    const std::vector<double>& times, const TransientSolver& solver) {
  std::vector<double> out;
  for (const double t : times) {
    out.push_back(periodic_by_solve(solver, fx.space.chain,
                                    fx.space.chain.initial_distribution(),
                                    fx.jump_map, period, t)[fx.fail_index]);
  }
  return out;
}

TEST(PeriodicIncremental, OccupancyBitwiseMatchesFromScratch) {
  const PeriodicFixture fx;
  const UniformizationSolver solver;
  const double period = 0.25;  // 900 s in hours
  SolverWorkspace ws;
  const std::vector<double> times = grid(12.0, 20);
  // From-scratch reference: restart at pi(0) for every query point, which
  // is what occupancy_with_periodic_jump did before the incremental
  // rewrite.
  const std::vector<double> ref =
      periodic_occupancy_by_solve(fx, period, times, solver);
  const std::vector<double> got = occupancy_with_periodic_jump(
      fx.space.chain, fx.fail_index, fx.jump_map, period, times, solver, ws);
  EXPECT_EQ(ref, got);
}

TEST(PeriodicIncremental, QueryAtJumpInstantAndBetween) {
  // Times landing exactly on cycle boundaries exercise the
  // jump-applied-first convention; the incremental walk must agree with
  // the single-point solver on both boundary and interior queries.
  const PeriodicFixture fx;
  const UniformizationSolver solver;
  const double period = 0.5;
  SolverWorkspace ws;
  const std::vector<double> times{0.0, 0.5, 0.75, 1.0, 1.5, 1.5 + 0.25, 2.0};
  const std::vector<double> got = occupancy_with_periodic_jump(
      fx.space.chain, fx.fail_index, fx.jump_map, period, times, solver, ws);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::vector<double> pi =
        periodic_by_solve(solver, fx.space.chain,
                          fx.space.chain.initial_distribution(), fx.jump_map,
                          period, times[i]);
    EXPECT_EQ(got[i], pi[fx.fail_index]) << "t=" << times[i];
  }
}

TEST(PeriodicIncremental, WorkspaceDefaultPolicyBitwise) {
  const PeriodicFixture fx;
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const double period = 0.25;
  const std::vector<double> times = grid(12.0, 20);
  const std::vector<double> plain = periodic_occupancy_by_solve(fx, period,
                                                                times, solver);
  const std::vector<double> with_ws = occupancy_with_periodic_jump(
      fx.space.chain, fx.fail_index, fx.jump_map, period, times, solver, ws);
  EXPECT_EQ(plain, with_ws);

  const std::vector<double> pi_plain =
      periodic_by_solve(solver, fx.space.chain,
                        fx.space.chain.initial_distribution(), fx.jump_map,
                        period, 7.3);
  const std::vector<double> pi_ws = solve_with_periodic_jump(
      fx.space.chain, fx.space.chain.initial_distribution(), fx.jump_map,
      period, 7.3, solver, ws);
  EXPECT_EQ(pi_plain, pi_ws);
}

TEST(PeriodicIncremental, WorkspaceDensePolicyClose) {
  const PeriodicFixture fx;
  const UniformizationSolver solver;
  SolverWorkspace ws;
  const double period = 0.25;  // 48 cycles over 12 h >> n states
  const std::vector<double> times = grid(12.0, 20);
  const std::vector<double> plain = periodic_occupancy_by_solve(fx, period,
                                                                times, solver);
  const std::vector<double> dense = occupancy_with_periodic_jump(
      fx.space.chain, fx.fail_index, fx.jump_map, period, times, solver, ws,
      StepPolicy{256});
  ASSERT_EQ(plain.size(), dense.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const double scale =
        std::max({std::fabs(plain[i]), std::fabs(dense[i]), 1e-300});
    EXPECT_LE(std::fabs(plain[i] - dense[i]) / scale, 1e-12) << "i=" << i;
  }
}

}  // namespace
}  // namespace rsmem::markov

// Tests for the CTMC framework: chain validation, state-space construction,
// Poisson windows, and transient solvers against closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "markov/ctmc.h"
#include "markov/rk45.h"
#include "markov/solver_workspace.h"
#include "markov/state_space.h"
#include "markov/uniformization.h"

namespace rsmem::markov {
namespace {

using linalg::CsrMatrix;
using linalg::Triplet;

// Two-state chain 0 -> 1 at rate mu: P1(t) = 1 - exp(-mu t).
Ctmc two_state(double mu) {
  return Ctmc{CsrMatrix(2, 2, {{0, 0, -mu}, {0, 1, mu}}), 0};
}

// Birth chain 0 -> 1 -> 2 with rates a, b (a != b):
// P2(t) = 1 - (b e^{-at} - a e^{-bt}) / (b - a).
Ctmc birth_chain(double a, double b) {
  return Ctmc{
      CsrMatrix(3, 3, {{0, 0, -a}, {0, 1, a}, {1, 1, -b}, {1, 2, b}}), 0};
}

TEST(Ctmc, ValidatesGenerator) {
  // Row does not sum to zero.
  EXPECT_THROW(Ctmc(CsrMatrix(2, 2, {{0, 1, 1.0}}), 0),
               std::invalid_argument);
  // Negative off-diagonal.
  EXPECT_THROW(
      Ctmc(CsrMatrix(2, 2, {{0, 0, 1.0}, {0, 1, -1.0}}), 0),
      std::invalid_argument);
  // Non-square.
  EXPECT_THROW(Ctmc(CsrMatrix(2, 3, {}), 0), std::invalid_argument);
  // Initial state out of range.
  EXPECT_THROW(Ctmc(CsrMatrix(2, 2, {}), 2), std::invalid_argument);
}

TEST(Ctmc, AbsorbingDetection) {
  const Ctmc chain = two_state(3.0);
  EXPECT_FALSE(chain.is_absorbing(0));
  EXPECT_TRUE(chain.is_absorbing(1));
  EXPECT_THROW(chain.is_absorbing(5), std::invalid_argument);
}

TEST(Ctmc, InitialDistributionIsPointMass) {
  const Ctmc chain = two_state(1.0);
  const auto pi0 = chain.initial_distribution();
  EXPECT_DOUBLE_EQ(pi0[0], 1.0);
  EXPECT_DOUBLE_EQ(pi0[1], 0.0);
}

TEST(PoissonWindow, SmallLambdaExact) {
  const PoissonWindow w = poisson_window(0.5, 1e-12);
  ASSERT_EQ(w.first_k, 0u);
  EXPECT_NEAR(w.weights[0], std::exp(-0.5), 1e-14);
  EXPECT_NEAR(w.weights[1], 0.5 * std::exp(-0.5), 1e-14);
  double total = 0.0;
  for (const double x : w.weights) total += x;
  EXPECT_NEAR(total, 1.0, 1e-11);
}

TEST(PoissonWindow, ZeroLambda) {
  const PoissonWindow w = poisson_window(0.0, 1e-10);
  EXPECT_EQ(w.first_k, 0u);
  ASSERT_EQ(w.weights.size(), 1u);
  EXPECT_DOUBLE_EQ(w.weights[0], 1.0);
}

TEST(PoissonWindow, LargeLambdaStable) {
  // qt ~ 2000: direct exp(-2000) underflows; the mode-out recurrence must
  // still capture the mass.
  const PoissonWindow w = poisson_window(2000.0, 1e-12);
  double total = 0.0;
  for (const double x : w.weights) total += x;
  EXPECT_NEAR(total, 1.0, 1e-11);
  // The window must straddle the mode.
  EXPECT_LT(w.first_k, 2000u);
  EXPECT_GT(w.first_k + w.weights.size(), 2000u);
}

TEST(PoissonWindow, RejectsNegative) {
  EXPECT_THROW(poisson_window(-1.0, 1e-10), std::invalid_argument);
}

TEST(PoissonWindow, EdgeLambdasMassWeightsAndSupport) {
  // The regimes the sweeps actually hit: degenerate (lambda = 0),
  // sub-unit (short scrub cycles), and very large (long horizons on stiff
  // chains). In every case the window must hold >= 1 - eps of the mass in
  // nonnegative weights on a support that straddles the mode.
  constexpr double kEps = 1e-12;
  for (const double lambda : {0.0, 0.05, 0.7, 1e4}) {
    const PoissonWindow w = poisson_window(lambda, kEps);
    ASSERT_FALSE(w.weights.empty()) << "lambda=" << lambda;
    double total = 0.0;
    for (const double x : w.weights) {
      EXPECT_GE(x, 0.0) << "lambda=" << lambda;
      total += x;
    }
    EXPECT_GE(total, 1.0 - 1e-11) << "lambda=" << lambda;
    EXPECT_LE(total, 1.0 + 1e-11) << "lambda=" << lambda;
    const auto mode = static_cast<std::size_t>(lambda);
    EXPECT_LE(w.first_k, mode) << "lambda=" << lambda;
    EXPECT_GT(w.first_k + w.weights.size(), mode) << "lambda=" << lambda;
  }
  // first_k stays within a few standard deviations of the mode (sanity
  // check that the left scan terminates where it should, not at 0).
  const PoissonWindow big = poisson_window(1e4, kEps);
  EXPECT_GT(big.first_k, static_cast<std::size_t>(1e4 - 20.0 * 100.0));
  // Width is O(sigma * sqrt(-ln(tail_floor))): ~700 left of the mode for
  // eps = 1e-12 plus ~3900 right of it to reach the 1e-320 tail floor --
  // far from the O(lambda) cost of summing from k = 0.
  EXPECT_LT(big.weights.size(), 6000u);
}

TEST(PoissonWindow, TailExtensionMonotoneAboveFloor) {
  // The far tail is extended until the pmf falls below the tail floor so
  // absorbing-state masses ~1e-30 are not truncated away. Every extended
  // term must keep the pmf recurrence (strictly decreasing past the mode)
  // and stay above the floor.
  const PoissonWindow w = poisson_window(50.0, 1e-12);
  const std::size_t mode = 50 - w.first_k;
  for (std::size_t i = mode + 1; i < w.weights.size(); ++i) {
    EXPECT_LT(w.weights[i], w.weights[i - 1]) << "k=" << w.first_k + i;
    EXPECT_GE(w.weights[i], 1e-320);
  }
  // With eps = 1e-12 alone the window would stop ~7 sigma out
  // (pmf ~ 1e-14); the floor pushes it far beyond.
  EXPECT_LT(w.weights.back(), 1e-250);
}

TEST(Uniformization, MatchesTwoStateClosedForm) {
  const UniformizationSolver solver;
  const double mu = 0.7;
  const Ctmc chain = two_state(mu);
  for (const double t : {0.0, 0.1, 1.0, 5.0, 20.0}) {
    const auto pi = solver.solve(chain, t);
    EXPECT_NEAR(pi[0], std::exp(-mu * t), 1e-12) << "t=" << t;
    EXPECT_NEAR(pi[1], 1.0 - std::exp(-mu * t), 1e-12);
  }
}

TEST(Uniformization, MatchesBirthChainClosedForm) {
  const UniformizationSolver solver;
  const double a = 1.3, b = 0.4;
  const Ctmc chain = birth_chain(a, b);
  for (const double t : {0.5, 2.0, 10.0}) {
    const auto pi = solver.solve(chain, t);
    const double p0 = std::exp(-a * t);
    const double p1 = a / (b - a) * (std::exp(-a * t) - std::exp(-b * t));
    EXPECT_NEAR(pi[0], p0, 1e-12);
    EXPECT_NEAR(pi[1], p1, 1e-12);
    EXPECT_NEAR(pi[2], 1.0 - p0 - p1, 1e-12);
  }
}

TEST(Uniformization, ZeroTimeAndZeroGenerator) {
  const UniformizationSolver solver;
  const Ctmc frozen{CsrMatrix(2, 2, {}), 1};
  const auto pi = solver.solve(frozen, 100.0);
  EXPECT_DOUBLE_EQ(pi[1], 1.0);
  const Ctmc chain = two_state(1.0);
  const auto pi0 = solver.solve(chain, 0.0);
  EXPECT_DOUBLE_EQ(pi0[0], 1.0);
}

TEST(Uniformization, RejectsBadInputs) {
  const UniformizationSolver solver;
  const Ctmc chain = two_state(1.0);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(solver.solve(chain, wrong, 1.0), std::invalid_argument);
  EXPECT_THROW(solver.solve(chain, -1.0), std::invalid_argument);
  EXPECT_THROW(UniformizationSolver{0.0}, std::invalid_argument);
}

TEST(Uniformization, ProbabilityConservedOnStiffChain) {
  // Fast scrub-like rate + slow fault rate: stiff, large q*t.
  const double fast = 96.0, slow = 1e-4;
  const Ctmc chain{CsrMatrix(2, 2,
                             {{0, 0, -slow},
                              {0, 1, slow},
                              {1, 1, -fast},
                              {1, 0, fast}}),
                   0};
  const UniformizationSolver solver;
  const auto pi = solver.solve(chain, 48.0);  // q*t ~ 4600
  EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-10);
  EXPECT_GT(pi[0], 0.99);  // scrubbing keeps it in state 0
}

TEST(Rk45, MatchesTwoStateClosedForm) {
  const Rk45Solver solver;
  const double mu = 2.2;
  const Ctmc chain = two_state(mu);
  for (const double t : {0.3, 1.7, 6.0}) {
    const auto pi = solver.solve(chain, t);
    EXPECT_NEAR(pi[0], std::exp(-mu * t), 1e-9);
  }
}

TEST(Rk45, AgreesWithUniformizationOnRandomChain) {
  // A 6-state ring with heterogeneous rates.
  std::vector<Triplet> triplets;
  const double rates[] = {0.5, 1.5, 0.1, 2.0, 0.8, 1.1};
  for (std::size_t i = 0; i < 6; ++i) {
    triplets.push_back({i, (i + 1) % 6, rates[i]});
    triplets.push_back({i, i, -rates[i]});
  }
  const Ctmc chain{CsrMatrix(6, 6, triplets), 0};
  const UniformizationSolver uni;
  const Rk45Solver rk;
  for (const double t : {0.1, 1.0, 10.0}) {
    const auto a = uni.solve(chain, t);
    const auto b = rk.solve(chain, t);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(a[i], b[i], 1e-8);
  }
}

TEST(Rk45, RejectsBadTolerances) {
  EXPECT_THROW(Rk45Solver(0.0, 1e-10), std::invalid_argument);
  EXPECT_THROW(Rk45Solver(1e-6, -1.0), std::invalid_argument);
}

TEST(TransientSolver, OccupancyCurveIncremental) {
  const UniformizationSolver solver;
  const double mu = 0.9;
  const Ctmc chain = two_state(mu);
  SolverWorkspace ws;
  const std::vector<double> times{0.0, 0.5, 1.0, 3.0, 3.0, 7.0};
  const auto curve = solver.occupancy_curve(chain, 1, times, ws);
  ASSERT_EQ(curve.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(curve[i], 1.0 - std::exp(-mu * times[i]), 1e-11);
  }
  const std::vector<double> unsorted{1.0, 0.5};
  EXPECT_THROW(solver.occupancy_curve(chain, 1, unsorted, ws),
               std::invalid_argument);
  EXPECT_THROW(solver.occupancy_curve(chain, 9, times, ws),
               std::invalid_argument);
}

// ---- state-space builder ----

// A tiny model: tokens 0..N with +1 transitions, absorbing at N.
class CounterModel final : public TransitionModel {
 public:
  CounterModel(unsigned limit, double rate) : limit_(limit), rate_(rate) {}
  PackedState initial_state() const override { return 0; }
  void for_each_transition(PackedState s,
                           const TransitionSink& emit) const override {
    if (s < limit_) emit(rate_, s + 1);
  }

 private:
  unsigned limit_;
  double rate_;
};

TEST(StateSpace, BuildsCounterChain) {
  const CounterModel model{4, 2.0};
  const StateSpace space = build_state_space(model);
  EXPECT_EQ(space.size(), 5u);
  EXPECT_EQ(space.initial_index, space.index_of(0));
  EXPECT_TRUE(space.contains(4));
  EXPECT_TRUE(space.chain.is_absorbing(space.index_of(4)));
  // Generator: Q[i][i] = -2, Q[i][i+1] = 2 for i < 4.
  for (unsigned i = 0; i < 4; ++i) {
    const std::size_t idx = space.index_of(i);
    EXPECT_DOUBLE_EQ(space.chain.generator().at(idx, idx), -2.0);
    EXPECT_DOUBLE_EQ(space.chain.generator().at(idx, space.index_of(i + 1)),
                     2.0);
  }
}

class SelfLoopModel final : public TransitionModel {
 public:
  PackedState initial_state() const override { return 7; }
  void for_each_transition(PackedState s,
                           const TransitionSink& emit) const override {
    emit(5.0, s);    // self-loop: must be ignored
    emit(0.0, 99);   // zero rate: must be ignored
  }
};

TEST(StateSpace, IgnoresSelfLoopsAndZeroRates) {
  const StateSpace space = build_state_space(SelfLoopModel{});
  EXPECT_EQ(space.size(), 1u);
  EXPECT_TRUE(space.chain.is_absorbing(0));
}

class NegativeRateModel final : public TransitionModel {
 public:
  PackedState initial_state() const override { return 0; }
  void for_each_transition(PackedState,
                           const TransitionSink& emit) const override {
    emit(-1.0, 1);
  }
};

TEST(StateSpace, RejectsNegativeRate) {
  EXPECT_THROW(build_state_space(NegativeRateModel{}), std::invalid_argument);
}

TEST(StateSpace, ExplosionGuard) {
  const CounterModel model{1000, 1.0};
  EXPECT_THROW(build_state_space(model, 10), std::length_error);
}

}  // namespace
}  // namespace rsmem::markov

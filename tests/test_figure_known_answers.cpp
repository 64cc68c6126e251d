// Known answers for the paper's figures: the BER of every curve of
// Figs. 5-10, and of Fig. 7 under deterministic periodic scrubbing, at
// grid points 24 (mid) and 48 (end) of the figures' 49-point axis.
//
// The calls are the ones that regenerate the figures (the analysis sweeps
// with their default engine settings, and analyze_ber_periodic_scrub), so
// a refactor of the Markov layer is checked against fixed values rather
// than against the code it replaces. The sweeps run at 1 and 4 threads.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/api.h"
#include "models/ber.h"

namespace rsmem {
namespace {

using analysis::Arrangement;
using analysis::CodeSpec;
using analysis::Series;
using analysis::SweepOptions;

constexpr CodeSpec kRs1816{18, 16, 8};
constexpr CodeSpec kRs3616{36, 16, 8};
constexpr double kSeuRates[] = {1.7e-5, 3.6e-6, 7.3e-7};  // per bit per day
constexpr double kScrubPeriods[] = {900.0, 1200.0, 1800.0, 3600.0};  // s
constexpr double kPermRates[] = {1e-4, 1e-5, 1e-6, 1e-7,
                                 1e-8, 1e-9, 1e-10};  // per symbol per day
constexpr std::size_t kPoints = 49;
constexpr std::array<std::size_t, 2> kPinnedPoints = {24, 48};
constexpr double kRelTolerance = 1e-9;

using Pins = std::vector<std::array<double, 2>>;  // per curve, legend order

const Pins kFig5 = {{2.8254019169906667e-06, 1.1283695342864171e-05},
                    {1.2686168820852098e-07, 5.0727629013115709e-07},
                    {5.2178012832123971e-09, 2.0869783174725534e-08}};
const Pins kFig6 = {{5.6507958510853424e-06, 2.2567263363947783e-05},
                    {2.5372336032315406e-07, 1.0145523229330801e-06},
                    {1.0435602539199344e-08, 4.1739565913903266e-08}};
const Pins kFig7 = {{1.1667801880615393e-07, 2.3458415191804959e-07},
                    {1.5502232807947493e-07, 3.1222789831496325e-07},
                    {2.3088856406301317e-07, 4.6668909825737701e-07},
                    {4.5191016608775123e-07, 9.2346431683596188e-07}};
const Pins kFig8 = {{0.025103239186247992, 0.1291057050059197},
                    {3.7878216399615531e-05, 0.00028931050247755927},
                    {3.9495532236959202e-08, 3.1449794335435779e-07},
                    {3.9661272628892003e-11, 3.171425633985955e-10},
                    {3.9677887450237164e-14, 3.174083279374996e-13},
                    {3.9679549340896501e-17, 3.1743491746168154e-16},
                    {3.9679715534048367e-20, 3.1743757654484734e-19}};
const Pins kFig9 = {{2.2260025780119671e-07, 1.2969444633394707e-05},
                    {2.394170219835508e-13, 1.5207891715073179e-11},
                    {2.410127415903239e-19, 1.5413525336198756e-17},
                    {2.4117131521884028e-25, 1.5433837120927491e-23},
                    {2.4118716245757514e-31, 1.5435865711634988e-29},
                    {2.411887470800665e-37, 1.5436068544755925e-35},
                    {2.4118890554130136e-43, 1.5436088827808412e-41}};
const Pins kFig10 = {{1.4495953046444223e-20, 1.2357933811793043e-14},
                     {3.2697061253294783e-41, 6.2635680127417158e-35},
                     {3.5473802609396641e-62, 7.3723132656570319e-56},
                     {3.5764188003995967e-83, 7.493502714929065e-77},
                     {3.5793357556679383e-104, 7.5057311913984982e-98},
                     {3.5796275826070579e-125, 7.5069551410389229e-119},
                     {3.5796567666154764e-146, 7.5070775470295653e-140}};
const Pins kFig7Periodic = {{5.8955023868598695e-08, 1.179100442615026e-07},
                            {7.860626466605348e-08, 1.5721252315316146e-07},
                            {1.1790809554707193e-07, 2.3581617719182433e-07},
                            {2.3580838276967475e-07, 4.7161670993375738e-07}};

void expect_pins(const std::string& figure,
                 const std::vector<std::vector<double>>& curves,
                 const Pins& pins) {
  ASSERT_EQ(curves.size(), pins.size()) << figure;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    ASSERT_EQ(curves[c].size(), kPoints) << figure << " curve " << c;
    for (std::size_t p = 0; p < kPinnedPoints.size(); ++p) {
      const double want = pins[c][p];
      const double got = curves[c][kPinnedPoints[p]];
      EXPECT_LE(std::fabs(got - want), kRelTolerance * std::fabs(want))
          << figure << " curve " << c << " point " << kPinnedPoints[p]
          << ": got " << got << ", want " << want;
    }
  }
}

std::vector<std::vector<double>> ber_of(const std::vector<Series>& series) {
  std::vector<std::vector<double>> curves;
  for (const Series& s : series) curves.push_back(s.y);
  return curves;
}

void expect_sweep_figures(unsigned threads) {
  const SweepOptions options{threads};
  expect_pins("fig5",
              ber_of(analysis::seu_rate_sweep(Arrangement::kSimplex, kRs1816,
                                              kSeuRates, 48.0, kPoints,
                                              options)),
              kFig5);
  expect_pins("fig6",
              ber_of(analysis::seu_rate_sweep(Arrangement::kDuplex, kRs1816,
                                              kSeuRates, 48.0, kPoints,
                                              options)),
              kFig6);
  expect_pins("fig7",
              ber_of(analysis::scrub_period_sweep(
                  Arrangement::kDuplex, kRs1816, 1.7e-5, kScrubPeriods, 48.0,
                  kPoints, options)),
              kFig7);
  expect_pins("fig8",
              ber_of(analysis::permanent_rate_sweep(
                  Arrangement::kSimplex, kRs1816, kPermRates, 24.0, kPoints,
                  options)),
              kFig8);
  expect_pins("fig9",
              ber_of(analysis::permanent_rate_sweep(
                  Arrangement::kDuplex, kRs1816, kPermRates, 24.0, kPoints,
                  options)),
              kFig9);
  expect_pins("fig10",
              ber_of(analysis::permanent_rate_sweep(
                  Arrangement::kSimplex, kRs3616, kPermRates, 24.0, kPoints,
                  options)),
              kFig10);
}

TEST(FigureKnownAnswers, SweepFiguresAtOneThread) { expect_sweep_figures(1); }

TEST(FigureKnownAnswers, SweepFiguresAtFourThreads) {
  expect_sweep_figures(4);
}

TEST(FigureKnownAnswers, PeriodicScrubFig7) {
  const std::vector<double> times = models::time_grid_hours(48.0, kPoints);
  std::vector<std::vector<double>> curves;
  for (const double tsc_seconds : kScrubPeriods) {
    core::MemorySystemSpec spec;
    spec.arrangement = Arrangement::kDuplex;
    spec.code = {18, 16, 8, 1};
    spec.seu_rate_per_bit_day = 1.7e-5;
    spec.scrub_period_seconds = tsc_seconds;
    curves.push_back(analyze_ber_periodic_scrub(spec, times).ber);
  }
  expect_pins("fig7_periodic", curves, kFig7Periodic);
}

}  // namespace
}  // namespace rsmem

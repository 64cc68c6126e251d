// Known answers every benchmark run checks. Values were produced by the
// library at the time the benchmark was written; a change that moves them
// changed results, not just speed.
#ifndef PERFBENCH_KNOWN_ANSWERS_H
#define PERFBENCH_KNOWN_ANSWERS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Figures: BER of every curve at grid points 24 (mid) and 48 (end) of the
// 49-point axis, figure by figure in the order fig5, fig6, fig7, fig8,
// fig9, fig10, fig7_periodic and curve by curve in legend order.
inline constexpr std::array<std::size_t, 2> kPinnedPoints = {24, 48};
inline constexpr double kPinRelTolerance = 1e-9;
inline const std::vector<std::array<double, 2>> kFigurePins[7] = {
    // fig5
    {{2.8254019169906667e-06, 1.1283695342864171e-05},
     {1.2686168820852098e-07, 5.0727629013115709e-07},
     {5.2178012832123971e-09, 2.0869783174725534e-08}},
    // fig6
    {{5.6507958510853424e-06, 2.2567263363947783e-05},
     {2.5372336032315406e-07, 1.0145523229330801e-06},
     {1.0435602539199344e-08, 4.1739565913903266e-08}},
    // fig7
    {{1.1667801880615393e-07, 2.3458415191804959e-07},
     {1.5502232807947493e-07, 3.1222789831496325e-07},
     {2.3088856406301317e-07, 4.6668909825737701e-07},
     {4.5191016608775123e-07, 9.2346431683596188e-07}},
    // fig8
    {{0.025103239186247992, 0.1291057050059197},
     {3.7878216399615531e-05, 0.00028931050247755927},
     {3.9495532236959202e-08, 3.1449794335435779e-07},
     {3.9661272628892003e-11, 3.171425633985955e-10},
     {3.9677887450237164e-14, 3.174083279374996e-13},
     {3.9679549340896501e-17, 3.1743491746168154e-16},
     {3.9679715534048367e-20, 3.1743757654484734e-19}},
    // fig9
    {{2.2260025780119671e-07, 1.2969444633394707e-05},
     {2.394170219835508e-13, 1.5207891715073179e-11},
     {2.410127415903239e-19, 1.5413525336198756e-17},
     {2.4117131521884028e-25, 1.5433837120927491e-23},
     {2.4118716245757514e-31, 1.5435865711634988e-29},
     {2.411887470800665e-37, 1.5436068544755925e-35},
     {2.4118890554130136e-43, 1.5436088827808412e-41}},
    // fig10
    {{1.4495953046444223e-20, 1.2357933811793043e-14},
     {3.2697061253294783e-41, 6.2635680127417158e-35},
     {3.5473802609396641e-62, 7.3723132656570319e-56},
     {3.5764188003995967e-83, 7.493502714929065e-77},
     {3.5793357556679383e-104, 7.5057311913984982e-98},
     {3.5796275826070579e-125, 7.5069551410389229e-119},
     {3.5796567666154764e-146, 7.5070775470295653e-140}},
    // fig7_periodic
    {{5.8955023868598695e-08, 1.179100442615026e-07},
     {7.860626466605348e-08, 1.5721252315316146e-07},
     {1.1790809554707193e-07, 2.3581617719182433e-07},
     {2.3580838276967475e-07, 4.7161670993375738e-07}},
};

// Monte-Carlo: every MonteCarloResult counter of a reference campaign at a
// fixed seed (fault totals are mean-per-trial x trials, exact integers).
struct McPin {
  std::uint64_t trials;
  std::uint64_t failures;
  std::uint64_t seu_injected;
  std::uint64_t permanent_injected;
  std::uint64_t scrub_failures;
  std::uint64_t scrub_miscorrections;
  std::uint64_t no_output;
  std::uint64_t wrong_data;
};
inline constexpr std::uint64_t kMcPinSeed = 20051001;
inline constexpr McPin kMcDuplexScrubPin = {4096, 264, 47142, 14860, 6665, 1050, 239, 25};
inline constexpr McPin kMcCleanScreenPin = {16384, 0, 1313, 0, 0, 0, 0, 0};

}  // namespace perfbench

#endif  // PERFBENCH_KNOWN_ANSWERS_H

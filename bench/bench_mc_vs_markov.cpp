// E8 -- validation experiment (not in the paper): the functional memory
// system (real RS decoder, real arbiter, Poisson fault injection) versus the
// Markov chains, at accelerated rates where failures are observable.
//
// For each scenario the Monte-Carlo estimate and its 95% Wilson interval
// are printed against the chain prediction(s).
#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "analysis/monte_carlo.h"
#include "core/api.h"
#include "gf/simd_mul.h"
#include "markov/uniformization.h"
#include "models/ber.h"

using namespace rsmem;

namespace {

struct Scenario {
  const char* name;
  analysis::Arrangement arrangement;
  double seu_per_bit_day;
  double erasure_per_symbol_day;
  double scrub_period_seconds;
};

}  // namespace

int main() {
  bench::print_header(
      "bench_mc_vs_markov", "model validation (DESIGN.md E8)",
      "functional Monte-Carlo vs Markov P_Fail(48h), accelerated rates");

  const Scenario scenarios[] = {
      {"simplex SEU", analysis::Arrangement::kSimplex, 2.4e-3, 0.0, 0.0},
      {"simplex permanent", analysis::Arrangement::kSimplex, 0.0, 4.8e-2,
       0.0},
      {"simplex SEU+scrub", analysis::Arrangement::kSimplex, 1.2e-2, 0.0,
       1800.0},
      {"duplex SEU", analysis::Arrangement::kDuplex, 2.9e-3, 0.0, 0.0},
      {"duplex permanent", analysis::Arrangement::kDuplex, 0.0, 0.192, 0.0},
      {"duplex mixed", analysis::Arrangement::kDuplex, 2.4e-3, 4.8e-2, 0.0},
  };

  analysis::Table table{{"scenario", "MC p_hat", "95% CI low", "95% CI high",
                         "Markov (paper)", "Markov (both-lost)", "covered"}};
  bench::ShapeChecks checks;
  const markov::UniformizationSolver solver;
  const std::vector<double> times{48.0};

  for (const Scenario& sc : scenarios) {
    core::MemorySystemSpec spec;
    spec.arrangement = sc.arrangement;
    spec.seu_rate_per_bit_day = sc.seu_per_bit_day;
    spec.erasure_rate_per_symbol_day = sc.erasure_per_symbol_day;
    spec.scrub_period_seconds = sc.scrub_period_seconds;

    analysis::MonteCarloConfig mc;
    mc.trials = 1500;
    mc.t_end_hours = 48.0;
    mc.seed = 20240707;
    const analysis::MonteCarloResult sim = simulate(spec, mc);

    double conservative = 0.0;
    double optimistic = 0.0;
    if (sc.arrangement == analysis::Arrangement::kSimplex) {
      conservative = optimistic = fail_probability(spec, 48.0);
    } else {
      // The functional duplex exposes each physical symbol, so compare
      // against the per-physical-symbol convention; bracket with the two
      // fail criteria (see DESIGN.md section 2).
      models::DuplexParams params = spec.to_duplex_params();
      params.convention = models::RateConvention::kPerPhysicalSymbol;
      conservative =
          models::duplex_ber_curve(params, times, solver).fail_probability[0];
      params.fail_criterion = models::FailCriterion::kBothWordsUnrecoverable;
      optimistic =
          models::duplex_ber_curve(params, times, solver).fail_probability[0];
    }
    const double band = 4.0 * sim.failure.std_error() + 1e-3;
    const bool covered = sim.failure.p_hat() <= conservative + band &&
                         sim.failure.p_hat() >= optimistic - band;
    table.add_row({sc.name, analysis::format_fixed(sim.failure.p_hat(), 4),
                   analysis::format_fixed(sim.failure.wilson_low(), 4),
                   analysis::format_fixed(sim.failure.wilson_high(), 4),
                   analysis::format_fixed(conservative, 4),
                   analysis::format_fixed(optimistic, 4),
                   covered ? "yes" : "NO"});
    checks.expect(covered, std::string("MC within the chain bracket: ") +
                               sc.name);
  }
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "note: the paper's chain fails as soon as EITHER duplex word exceeds\n"
      "its budget; the real arbiter usually survives one lost word, so the\n"
      "functional system lands between the two criteria (see EXPERIMENTS.md).\n");

  // ---- Campaign throughput: single-threaded seed path vs parallel. ----
  const unsigned hw = std::thread::hardware_concurrency();
  core::MemorySystemSpec spec;
  spec.arrangement = analysis::Arrangement::kSimplex;
  spec.seu_rate_per_bit_day = 2.4e-3;

  analysis::MonteCarloConfig mc;
  mc.trials = 60000;
  mc.t_end_hours = 48.0;
  mc.seed = 20240707;

  analysis::CampaignReport single_report;
  mc.threads = 1;
  const analysis::MonteCarloResult single =
      simulate(spec, mc, memory::ScrubPolicy::kExponential, &single_report);

  analysis::CampaignReport parallel_report;
  mc.threads = 0;  // hardware concurrency
  const analysis::MonteCarloResult parallel =
      simulate(spec, mc, memory::ScrubPolicy::kExponential, &parallel_report);

  const double speedup =
      single_report.trials_per_second > 0.0
          ? parallel_report.trials_per_second / single_report.trials_per_second
          : 0.0;
  analysis::Table perf{{"threads", "shards", "trials/s", "speedup"}};
  perf.add_row({"1", std::to_string(single_report.chunks),
                analysis::format_sci(single_report.trials_per_second), "1.00"});
  perf.add_row({std::to_string(parallel_report.threads_used),
                std::to_string(parallel_report.chunks),
                analysis::format_sci(parallel_report.trials_per_second),
                analysis::format_fixed(speedup, 2)});
  std::printf("%s", perf.to_text().c_str());

  checks.expect(single.failure.failures == parallel.failure.failures &&
                    single.failure.trials == parallel.failure.trials &&
                    single.mean_seu_per_trial == parallel.mean_seu_per_trial &&
                    single.scrub_failures == parallel.scrub_failures,
                "campaign result bit-identical across thread counts");
  if (hw >= 4) {
    checks.expect(speedup >= 3.0,
                  "parallel campaign >= 3x trials/s on 4+ hardware threads");
  } else {
    std::printf(
        "note: %u hardware thread(s) available; >= 3x speedup check needs 4+\n",
        hw);
  }

  // ---- Batched trial planes: per-word control vs gather/decode/scatter.
  // Decode-dominated regime: unscrubbed RS(255,223) at a LOW fault rate, so
  // nearly every trial's read is a clean decode of a long word -- exactly
  // where the batch path's plane-wide SIMD syndrome screen replaces one
  // full per-word decode per trial. batch_trials is a pure execution-shape
  // knob (gather N trials' raw module reads into one word/flag plane, one
  // rs::decode_batch, scatter), so the two runs must be bit-identical.
  core::MemorySystemSpec plane_spec;
  plane_spec.arrangement = analysis::Arrangement::kSimplex;
  plane_spec.code = rs::CodeParams{255, 223, 8, 1};
  plane_spec.seu_rate_per_bit_day = 2e-5;

  analysis::MonteCarloConfig plane_mc;
  plane_mc.trials = 10000;
  plane_mc.t_end_hours = 48.0;
  plane_mc.seed = 20240707;
  plane_mc.threads = 1;

  // Best-of-7 PAIRED reps: each rep runs per-word then batched
  // back-to-back and contributes one speedup sample. The arms of a rep are
  // adjacent in time, so a shared-host interference window (CPU steal
  // lasting seconds -- longer than a rep) slows both arms of a rep alike
  // and mostly cancels in that rep's ratio, where a cross-rep
  // best-throughput ratio wanders whenever the noise lands on one arm's
  // quiet rep but not the other's. The gate takes the BEST paired rep --
  // the run_plane_selfcheck best-of-N idiom, estimating the uncontended
  // speedup (host contention is not the thing under test); the median is
  // printed alongside for transparency. Throughputs reported are likewise
  // each arm's best rep.
  constexpr int kPairReps = 7;
  analysis::MonteCarloResult per_word;
  analysis::MonteCarloResult batched;
  double per_word_best = 0.0;
  double batched_best = 0.0;
  double rep_speedups[kPairReps] = {};
  for (int rep = 0; rep < kPairReps; ++rep) {
    analysis::CampaignReport per_word_report;
    plane_mc.batch_trials = 1;  // the historical per-trial read() path
    per_word = simulate(plane_spec, plane_mc,
                        memory::ScrubPolicy::kExponential, &per_word_report);
    per_word_best =
        std::max(per_word_best, per_word_report.trials_per_second);

    analysis::CampaignReport batched_report;
    plane_mc.batch_trials = 0;  // default plane width
    batched = simulate(plane_spec, plane_mc,
                       memory::ScrubPolicy::kExponential, &batched_report);
    batched_best = std::max(batched_best, batched_report.trials_per_second);

    rep_speedups[rep] = per_word_report.trials_per_second > 0.0
                            ? batched_report.trials_per_second /
                                  per_word_report.trials_per_second
                            : 0.0;
  }
  std::sort(rep_speedups, rep_speedups + kPairReps);

  const double batch_speedup = rep_speedups[kPairReps - 1];
  const double batch_speedup_median = rep_speedups[kPairReps / 2];
  const gf::simd::Backend selected = gf::simd::active().backend;
  const bool fast_backend = selected == gf::simd::Backend::kSsse3 ||
                            selected == gf::simd::Backend::kAvx2 ||
                            selected == gf::simd::Backend::kGfni;
  std::printf("batched campaign gf backend: %s\n",
              gf::simd::to_string(selected));
  analysis::Table plane{{"read path (best of 7)", "trials/s", "speedup"}};
  plane.add_row({"per-word (batch_trials=1)",
                 analysis::format_sci(per_word_best), "1.00"});
  plane.add_row({"batched planes (default)",
                 analysis::format_sci(batched_best),
                 analysis::format_fixed(batch_speedup, 2)});
  std::printf("(speedup = best of %d paired reps; median %.2f)\n", kPairReps,
              batch_speedup_median);
  std::printf("%s", plane.to_text().c_str());

  checks.expect(
      per_word.failure.failures == batched.failure.failures &&
          per_word.failure.trials == batched.failure.trials &&
          per_word.mean_seu_per_trial == batched.mean_seu_per_trial &&
          per_word.mean_permanent_per_trial ==
              batched.mean_permanent_per_trial &&
          per_word.scrub_failures == batched.scrub_failures &&
          per_word.no_output_failures == batched.no_output_failures &&
          per_word.wrong_data_failures == batched.wrong_data_failures,
      "campaign result bit-identical across batch widths");
  if (fast_backend) {
    checks.expect(batch_speedup >= 1.3,
                  "batched campaign >= 1.3x trials/s (PSHUFB-or-better "
                  "backend selected)");
  } else {
    std::printf(
        "note: gf backend '%s' has no PSHUFB-or-better kernels; the 1.3x\n"
        "batched-campaign contract is recorded, not asserted\n",
        gf::simd::to_string(selected));
  }

  return checks.exit_code();
}

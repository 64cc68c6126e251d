// E15 -- baseline comparison: RS coding vs plain modular redundancy. The
// paper motivates coding+duplication against naive redundancy; this bench
// makes the comparison explicit at matched storage overheads:
//   unprotected word          1.00x overhead
//   simplex RS(18,16)         1.12x
//   duplex  RS(18,16)         2.25x
//   simplex RS(36,16)         2.25x
//   bitwise TMR (no code)     3.00x
// under a mixed SEU + permanent-fault environment (closed forms for the
// baselines, chains for the RS arrangements, functional Monte-Carlo spot
// checks for both).
#include <cmath>

#include "bench_common.h"
#include "core/api.h"
#include "core/units.h"
#include "memory/tmr_system.h"
#include "models/baselines.h"
#include "sim/rng.h"

using namespace rsmem;

int main() {
  bench::print_header(
      "bench_tmr_baseline", "coding-vs-redundancy baseline (E15)",
      "RS arrangements vs unprotected and bitwise-TMR words, 48 h");

  const double lambda_day = 2.4e-3;  // accelerated mixed environment
  const double le_day = 4.8e-3;
  const double t = 48.0;

  models::BaselineParams base;
  base.word_symbols = 16;
  base.m = 8;
  base.seu_rate_per_bit_hour = core::per_day_to_per_hour(lambda_day);
  base.erasure_rate_per_symbol_hour = core::per_day_to_per_hour(le_day);
  const double unprotected = models::unprotected_word_fail(base, t);
  const double tmr = models::tmr_word_fail(base, t);

  const auto rs_fail = [&](analysis::Arrangement arrangement, unsigned n) {
    core::MemorySystemSpec spec;
    spec.arrangement = arrangement;
    spec.code = {n, 16, 8, 1};
    spec.seu_rate_per_bit_day = lambda_day;
    spec.erasure_rate_per_symbol_day = le_day;
    return fail_probability(spec, t);
  };
  const double simplex1816 = rs_fail(analysis::Arrangement::kSimplex, 18);
  const double duplex1816 = rs_fail(analysis::Arrangement::kDuplex, 18);
  const double simplex3616 = rs_fail(analysis::Arrangement::kSimplex, 36);

  analysis::Table table{
      {"arrangement", "storage overhead", "P_fail(48h)", "vs unprotected"}};
  const auto row = [&](const char* name, double overhead, double p) {
    table.add_row({name, analysis::format_fixed(overhead, 2),
                   analysis::format_sci(p),
                   analysis::format_sci(p / unprotected, 1)});
  };
  row("unprotected", 1.00, unprotected);
  row("simplex RS(18,16)", 1.125, simplex1816);
  row("duplex RS(18,16)", 2.25, duplex1816);
  row("simplex RS(36,16)", 2.25, simplex3616);
  row("bitwise TMR", 3.00, tmr);
  std::printf("%s", table.to_text().c_str());

  bench::ShapeChecks checks;
  checks.expect(simplex1816 < unprotected,
                "even 2 parity symbols beat the unprotected word");
  // Under SEU-heavy loads the paper's conservative duplex chain ranks the
  // duplex slightly behind the simplex (see E8); the duplex's claim is
  // resilience to PERMANENT faults, so assert it there.
  const auto perm_only_fail = [&](analysis::Arrangement arrangement) {
    core::MemorySystemSpec spec;
    spec.arrangement = arrangement;
    spec.erasure_rate_per_symbol_day = le_day;
    return fail_probability(spec, t);
  };
  checks.expect(perm_only_fail(analysis::Arrangement::kDuplex) <
                    perm_only_fail(analysis::Arrangement::kSimplex),
                "duplex RS(18,16) beats simplex RS(18,16) under permanent "
                "faults (the paper's claim)");
  checks.expect(simplex3616 < tmr,
                "RS(36,16) at 2.25x overhead beats TMR at 3x overhead");
  checks.expect(simplex3616 < duplex1816,
                "parity-heavy RS beats duplication at equal overhead");

  // Functional spot check of the TMR closed form.
  memory::TmrSystemConfig cfg;
  cfg.rates.seu_rate_per_bit_hour = base.seu_rate_per_bit_hour;
  cfg.rates.perm_rate_per_symbol_hour = base.erasure_rate_per_symbol_hour;
  std::vector<gf::Element> data(16);
  for (unsigned i = 0; i < 16; ++i) data[i] = 0xA5 ^ i;
  sim::Rng root{8088};
  int failures = 0;
  const int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    cfg.seed = root.next_u64();
    memory::TmrSystem sys{cfg};
    sys.store(data);
    sys.advance_to(t);
    failures += !sys.read().data_correct;
  }
  const double p_hat = static_cast<double>(failures) / kTrials;
  const double se = std::sqrt(tmr * (1.0 - tmr) / kTrials);
  std::printf("functional TMR check: MC p_hat=%.4f vs closed form %.4f\n",
              p_hat, tmr);
  checks.expect(std::abs(p_hat - tmr) < 4.0 * se + 2e-3,
                "functional TMR matches the closed form (4-sigma)");
  return checks.exit_code();
}

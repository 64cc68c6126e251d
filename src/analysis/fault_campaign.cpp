#include "analysis/fault_campaign.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "analysis/campaign.h"
#include "core/status.h"
#include "linalg/csr_matrix.h"
#include "markov/ctmc.h"
#include "markov/solver_guard.h"
#include "markov/uniformization.h"
#include "memory/duplex_system.h"
#include "memory/simplex_system.h"
#include "memory/tmr_system.h"
#include "sim/rng.h"

namespace rsmem::analysis {

using gf::Element;

const char* to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kMbuBurst: return "mbu-burst";
    case ScenarioKind::kStuckBankGrowth: return "stuck-bank";
    case ScenarioKind::kScrubStall: return "scrub-stall";
    case ScenarioKind::kMiscorrectionTrap: return "miscorrect";
    case ScenarioKind::kArbiterDisagreement: return "disagreement";
    case ScenarioKind::kDeadModuleDemotion: return "demotion";
    case ScenarioKind::kRetirement: return "retirement";
    case ScenarioKind::kSolverDivergence: return "solver-div";
  }
  return "?";
}

const char* to_string(TargetSystem target) {
  switch (target) {
    case TargetSystem::kSimplex: return "simplex";
    case TargetSystem::kDuplex: return "duplex";
    case TargetSystem::kTmr: return "tmr";
    case TargetSystem::kSolver: return "solver";
  }
  return "?";
}

namespace {

std::vector<Element> make_data(const rs::CodeParams& code, sim::Rng& rng) {
  std::vector<Element> data(code.k);
  rng.uniform_ints(1ull << code.m, data);
  return data;
}

// A scripted symbol-level error pattern: positions[i] gets XORed by diffs[i].
struct ErrorPattern {
  std::vector<unsigned> positions;
  std::vector<Element> diffs;
};

std::vector<Element> apply_pattern(const std::vector<Element>& codeword,
                                   const ErrorPattern& pattern) {
  std::vector<Element> word = codeword;
  for (std::size_t i = 0; i < pattern.positions.size(); ++i) {
    word[pattern.positions[i]] ^= pattern.diffs[i];
  }
  return word;
}

std::vector<unsigned> pick_distinct(unsigned count, unsigned bound,
                                    sim::Rng& rng) {
  std::vector<unsigned> out;
  while (out.size() < count) {
    const unsigned p = static_cast<unsigned>(rng.uniform_int(bound));
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

Element random_diff(const rs::CodeParams& code, sim::Rng& rng) {
  return static_cast<Element>(1 + rng.uniform_int((1ull << code.m) - 1));
}

// Seeded search for a `count`-symbol pattern whose decode is a
// mis-correction (want_miscorrection) or a detected failure (otherwise).
// On success fills `out` (and `decoded`, the wrong codeword, when asked).
bool find_pattern(const rs::ReedSolomon& code,
                  const std::vector<Element>& codeword, unsigned count,
                  bool want_miscorrection, sim::Rng& rng, ErrorPattern& out,
                  std::vector<Element>* decoded = nullptr) {
  const rs::CodeParams params{code.n(), code.k(), code.m(), code.fcr()};
  for (unsigned attempt = 0; attempt < 20000; ++attempt) {
    ErrorPattern pattern;
    pattern.positions = pick_distinct(count, code.n(), rng);
    for (unsigned i = 0; i < count; ++i) {
      pattern.diffs.push_back(random_diff(params, rng));
    }
    std::vector<Element> word = apply_pattern(codeword, pattern);
    const rs::DecodeOutcome outcome = code.decode(word, {});
    if (want_miscorrection) {
      if (outcome.status == rs::DecodeStatus::kCorrected && word != codeword) {
        out = std::move(pattern);
        if (decoded != nullptr) *decoded = std::move(word);
        return true;
      }
    } else if (outcome.status == rs::DecodeStatus::kFailure) {
      out = std::move(pattern);
      return true;
    }
  }
  return false;
}

// Applies a symbol XOR diff to a system module as individual bit flips.
template <typename InjectBit>
unsigned inject_diff(Element diff, unsigned m, const InjectBit& inject) {
  unsigned flipped = 0;
  for (unsigned bit = 0; bit < m; ++bit) {
    if ((diff >> bit) & 1u) {
      inject(bit);
      ++flipped;
    }
  }
  return flipped;
}

void finish(ScenarioOutcome& outcome) {
  outcome.silent_corruption = outcome.produced_output && !outcome.data_correct;
  outcome.survived = !outcome.silent_corruption;
  outcome.as_expected = outcome.ran &&
                        outcome.survived == outcome.scenario.expect_survival;
  outcome.degradation_engaged = outcome.counters.any_engaged();
}

// ---------------------------------------------------------------------------
// Scenario runners. Each derives every random choice from `rng` (keyed by
// campaign seed + scenario index) and fills the outcome completely.
// ---------------------------------------------------------------------------

void run_mbu_burst(const FaultCampaignConfig& config,
                   const FaultScenario& scenario, sim::Rng& rng,
                   ScenarioOutcome& outcome) {
  const unsigned m = config.code.m;
  std::ostringstream detail;
  if (scenario.target == TargetSystem::kSimplex) {
    memory::SimplexSystemConfig cfg;
    cfg.code = config.code;
    cfg.seed = config.seed + 1;
    cfg.degradation = config.degradation;
    memory::SimplexSystem sys(cfg);
    sim::Rng data_rng = rng.split(1);
    sys.store(make_data(config.code, data_rng));
    // Burst confined to one symbol: the organization the code absorbs.
    const unsigned symbol = static_cast<unsigned>(rng.uniform_int(config.code.n));
    const unsigned bits = std::min(scenario.intensity, m);
    for (const unsigned bit : pick_distinct(bits, m, rng)) {
      sys.inject_bit_flip(symbol, bit);
      ++outcome.faults_injected;
    }
    const memory::ReadResult read = sys.read();
    outcome.ran = true;
    outcome.produced_output = read.success;
    outcome.data_correct = read.success && read.data_correct;
    outcome.counters = sys.degradation();
    outcome.counters_consistent = outcome.counters.unrecovered_failures == 0;
    detail << bits << "-bit burst in symbol " << symbol << " -> "
           << (outcome.data_correct ? "corrected" : "NOT corrected");
  } else if (scenario.target == TargetSystem::kDuplex) {
    memory::DuplexSystemConfig cfg;
    cfg.code = config.code;
    cfg.seed = config.seed + 1;
    cfg.degradation = config.degradation;
    memory::DuplexSystem sys(cfg);
    sim::Rng data_rng = rng.split(1);
    sys.store(make_data(config.code, data_rng));
    // Burst spanning `intensity` symbols of ONE module: beyond the code
    // alone, maskable by the pair.
    const std::vector<unsigned> symbols =
        pick_distinct(scenario.intensity, config.code.n, rng);
    for (const unsigned symbol : symbols) {
      sys.inject_bit_flip(scenario.module_index, symbol,
                          static_cast<unsigned>(rng.uniform_int(m)));
      ++outcome.faults_injected;
    }
    const memory::DuplexReadResult read = sys.read();
    outcome.ran = true;
    outcome.produced_output = read.read.success;
    outcome.data_correct = read.read.success && read.read.data_correct;
    outcome.counters = sys.degradation();
    outcome.counters_consistent = outcome.counters.unrecovered_failures == 0;
    detail << scenario.intensity << "-symbol burst in module "
           << scenario.module_index << " -> arbiter "
           << (outcome.data_correct ? "recovered via clean copy"
                                    : "DID NOT recover");
  } else {  // TMR
    memory::TmrSystemConfig cfg;
    cfg.word_symbols = config.code.k;
    cfg.m = m;
    cfg.seed = config.seed + 1;
    memory::TmrSystem sys(cfg);
    sim::Rng data_rng = rng.split(1);
    std::vector<Element> data(config.code.k);
    data_rng.uniform_ints(1ull << m, data);
    sys.store(data);
    for (const unsigned symbol :
         pick_distinct(scenario.intensity, config.code.k, rng)) {
      sys.inject_bit_flip(scenario.module_index, symbol,
                          static_cast<unsigned>(rng.uniform_int(m)));
      ++outcome.faults_injected;
    }
    const memory::ReadResult read = sys.read();
    outcome.ran = true;
    outcome.produced_output = read.success;
    outcome.data_correct = read.success && read.data_correct;
    outcome.counters_consistent = true;
    detail << scenario.intensity << "-symbol burst in copy "
           << scenario.module_index << " -> voter "
           << (outcome.data_correct ? "outvoted it" : "was overwhelmed");
  }
  outcome.detail = detail.str();
}

void run_stuck_bank_growth(const FaultCampaignConfig& config,
                           const FaultScenario& scenario, sim::Rng& rng,
                           ScenarioOutcome& outcome) {
  memory::DuplexSystemConfig cfg;
  cfg.code = config.code;
  cfg.seed = config.seed + 1;
  cfg.degradation = config.degradation;
  memory::DuplexSystem sys(cfg);
  const rs::ReedSolomon code(config.code);
  sim::Rng data_rng = rng.split(1);
  const std::vector<Element> data = make_data(config.code, data_rng);
  std::vector<Element> codeword(config.code.n, 0);
  code.encode(data, codeword);
  sys.store(data);

  // Grow DETECTED stuck-at faults symbol by symbol over the scripted bank,
  // each stuck level chosen to corrupt the stored bit; after every growth
  // step the read must still deliver the stored data (erasure masking).
  const unsigned last =
      std::min(scenario.bank_start + scenario.bank_symbols, config.code.n);
  bool all_correct = true;
  unsigned steps = 0;
  for (unsigned symbol = scenario.bank_start; symbol < last; ++symbol) {
    const unsigned bit = static_cast<unsigned>(rng.uniform_int(config.code.m));
    const bool stored_bit = ((codeword[symbol] >> bit) & 1u) != 0;
    sys.inject_stuck_bit(scenario.module_index, symbol, bit, !stored_bit,
                         /*detected=*/true);
    ++outcome.faults_injected;
    ++steps;
    const memory::DuplexReadResult read = sys.read();
    all_correct = all_correct && read.read.success && read.read.data_correct;
  }
  const memory::DuplexReadResult final_read = sys.read();
  outcome.ran = steps > 0;
  outcome.produced_output = final_read.read.success;
  outcome.data_correct = all_correct && final_read.read.data_correct;
  outcome.counters = sys.degradation();
  // The arbiter alone must mask a single-module bank: every stuck symbol
  // shows up as a masked erasure and no degradation rung is needed.
  outcome.counters_consistent =
      final_read.arbitration.masked_erasures == steps &&
      final_read.arbitration.common_erasures.empty() &&
      !outcome.counters.any_engaged();
  std::ostringstream detail;
  detail << steps << " stuck symbols in module " << scenario.module_index
         << " bank [" << scenario.bank_start << "," << last << ") -> "
         << final_read.arbitration.masked_erasures << " masked";
  outcome.detail = detail.str();
}

void run_scrub_stall(const FaultCampaignConfig& config,
                     const FaultScenario& scenario, sim::Rng& rng,
                     ScenarioOutcome& outcome) {
  memory::DuplexSystemConfig cfg;
  cfg.code = config.code;
  cfg.seed = config.seed + 1;
  cfg.degradation = config.degradation;
  cfg.scrub_policy = memory::ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = config.scrub_period_hours;
  memory::DuplexSystem sys(cfg);
  sim::Rng data_rng = rng.split(1);
  sys.store(make_data(config.code, data_rng));

  const double period = config.scrub_period_hours;
  const unsigned stalled = std::max(1u, scenario.intensity);
  sys.advance_to(0.5 * period);
  sys.suspend_scrubbing();
  // Transient damage lands during the stall window and cannot be purged
  // until the scrubber comes back.
  for (const unsigned symbol : pick_distinct(2, config.code.n, rng)) {
    sys.inject_bit_flip(scenario.module_index, symbol,
                        static_cast<unsigned>(rng.uniform_int(config.code.m)));
    ++outcome.faults_injected;
  }
  sys.advance_to((stalled + 0.5) * period);  // `stalled` scrub slots skipped
  sys.resume_scrubbing();
  sys.advance_to((stalled + 1.5) * period);  // first live scrub purges
  const memory::DuplexReadResult read = sys.read();
  const memory::DamageSummary damage = sys.damage(scenario.module_index);
  outcome.ran = true;
  outcome.produced_output = read.read.success;
  outcome.data_correct = read.read.success && read.read.data_correct;
  outcome.counters = sys.degradation();
  outcome.counters_consistent = sys.stats().scrubs_skipped == stalled &&
                                sys.stats().scrubs_attempted == 1 &&
                                damage.corrupted == 0;
  std::ostringstream detail;
  detail << stalled << " scrubs stalled with 2 flips pending; post-resume "
         << "scrub left " << damage.corrupted << " corrupted symbols";
  outcome.detail = detail.str();
}

void run_miscorrection_trap(const FaultCampaignConfig& config,
                            const FaultScenario& scenario, sim::Rng& rng,
                            ScenarioOutcome& outcome) {
  const rs::ReedSolomon code(config.code);
  sim::Rng data_rng = rng.split(1);
  const std::vector<Element> data = make_data(config.code, data_rng);
  std::vector<Element> codeword(config.code.n, 0);
  code.encode(data, codeword);
  const unsigned beyond = (config.code.n - config.code.k) / 2 + 1;
  ErrorPattern pattern;
  sim::Rng search_rng = rng.split(2);
  if (!find_pattern(code, codeword, beyond, /*want_miscorrection=*/true,
                    search_rng, pattern)) {
    outcome.detail = "no mis-correcting pattern found (search exhausted)";
    return;  // ran stays false -> reported as a campaign inconsistency
  }

  std::ostringstream detail;
  if (scenario.target == TargetSystem::kSimplex) {
    memory::SimplexSystemConfig cfg;
    cfg.code = config.code;
    cfg.seed = config.seed + 1;
    cfg.degradation = config.degradation;
    memory::SimplexSystem sys(cfg);
    sys.store(data);
    for (std::size_t i = 0; i < pattern.positions.size(); ++i) {
      const unsigned symbol = pattern.positions[i];
      outcome.faults_injected += inject_diff(
          pattern.diffs[i], config.code.m,
          [&](unsigned bit) { sys.inject_bit_flip(symbol, bit); });
    }
    const memory::ReadResult read = sys.read();
    outcome.ran = true;
    outcome.produced_output = read.success;
    outcome.data_correct = read.success && read.data_correct;
    outcome.counters = sys.degradation();
    // The scripted trap MUST mis-correct here: flagged as corrected yet
    // wrong. That is the simplex exposure the duplex arbiter removes.
    outcome.counters_consistent =
        read.outcome.status == rs::DecodeStatus::kCorrected &&
        !read.data_correct;
    detail << beyond << "-symbol trap: decoder reported kCorrected with "
           << "wrong data (the paper's mis-correction case)";
  } else {
    memory::DuplexSystemConfig cfg;
    cfg.code = config.code;
    cfg.seed = config.seed + 1;
    cfg.degradation = config.degradation;
    memory::DuplexSystem sys(cfg);
    sys.store(data);
    for (std::size_t i = 0; i < pattern.positions.size(); ++i) {
      const unsigned symbol = pattern.positions[i];
      outcome.faults_injected += inject_diff(
          pattern.diffs[i], config.code.m, [&](unsigned bit) {
            sys.inject_bit_flip(scenario.module_index, symbol, bit);
          });
    }
    const memory::DuplexReadResult read = sys.read();
    outcome.ran = true;
    outcome.produced_output = read.read.success;
    outcome.data_correct = read.read.success && read.read.data_correct;
    outcome.counters = sys.degradation();
    // The attacked word mis-corrects (flag set), the clean word does not:
    // the arbiter must select the UNFLAGGED side.
    const memory::ArbiterDecision expected =
        scenario.module_index == 0 ? memory::ArbiterDecision::kWord2
                                   : memory::ArbiterDecision::kWord1;
    outcome.counters_consistent =
        read.arbitration.decision == expected && read.read.data_correct;
    detail << "module " << scenario.module_index
           << " mis-corrects flagged; arbiter selected the unflagged copy";
  }
  outcome.detail = detail.str();
}

void run_arbiter_disagreement(const FaultCampaignConfig& config,
                              const FaultScenario& scenario, sim::Rng& rng,
                              ScenarioOutcome& outcome) {
  (void)scenario;
  const rs::ReedSolomon code(config.code);
  sim::Rng data_rng = rng.split(1);
  const std::vector<Element> data = make_data(config.code, data_rng);
  std::vector<Element> codeword(config.code.n, 0);
  code.encode(data, codeword);
  const unsigned beyond = (config.code.n - config.code.k) / 2 + 1;

  // Two patterns mis-correcting to DIFFERENT wrong codewords, one per
  // module: both decoders set their flag, outputs differ, and the arbiter
  // must refuse to output rather than guess.
  ErrorPattern pattern1, pattern2;
  std::vector<Element> wrong1, wrong2;
  sim::Rng search_rng = rng.split(2);
  if (!find_pattern(code, codeword, beyond, true, search_rng, pattern1,
                    &wrong1)) {
    outcome.detail = "no mis-correcting pattern found (search exhausted)";
    return;
  }
  bool found2 = false;
  for (unsigned attempt = 0; attempt < 64 && !found2; ++attempt) {
    if (!find_pattern(code, codeword, beyond, true, search_rng, pattern2,
                      &wrong2)) {
      break;
    }
    found2 = wrong2 != wrong1;
  }
  if (!found2) {
    outcome.detail = "no second distinct mis-correction found";
    return;
  }

  memory::DuplexSystemConfig cfg;
  cfg.code = config.code;
  cfg.seed = config.seed + 1;
  cfg.degradation = config.degradation;
  memory::DuplexSystem sys(cfg);
  sys.store(data);
  for (std::size_t i = 0; i < pattern1.positions.size(); ++i) {
    const unsigned symbol = pattern1.positions[i];
    outcome.faults_injected +=
        inject_diff(pattern1.diffs[i], config.code.m,
                    [&](unsigned bit) { sys.inject_bit_flip(0, symbol, bit); });
  }
  for (std::size_t i = 0; i < pattern2.positions.size(); ++i) {
    const unsigned symbol = pattern2.positions[i];
    outcome.faults_injected +=
        inject_diff(pattern2.diffs[i], config.code.m,
                    [&](unsigned bit) { sys.inject_bit_flip(1, symbol, bit); });
  }
  const memory::DuplexReadResult read = sys.read();
  outcome.ran = true;
  outcome.produced_output = read.read.success;
  outcome.data_correct = read.read.success && read.read.data_correct;
  outcome.counters = sys.degradation();
  // Fail-safe is the REQUIRED outcome: both flags up, no output.
  outcome.counters_consistent =
      read.arbitration.decision == memory::ArbiterDecision::kNoOutput &&
      read.arbitration.flag1 && read.arbitration.flag2;
  outcome.detail =
      "both copies mis-correct to different codewords; arbiter withheld "
      "output (fail-safe, not silent)";
}

void run_dead_module_demotion(const FaultCampaignConfig& config,
                              const FaultScenario& scenario, sim::Rng& rng,
                              ScenarioOutcome& outcome) {
  (void)scenario;
  const rs::ReedSolomon code(config.code);
  const unsigned n = config.code.n;
  const unsigned parity = config.code.n - config.code.k;
  if (parity < 2) {
    outcome.detail = "demotion scenario needs n-k >= 2";
    return;
  }
  sim::Rng data_rng = rng.split(1);
  const std::vector<Element> data = make_data(config.code, data_rng);
  std::vector<Element> codeword(n, 0);
  code.encode(data, codeword);

  // Module 1 (the survivor) carries `parity` DETECTED stuck symbols at
  // positions P -- alone it decodes fine as erasures. Module 0 carries
  // TRANSIENT flips at P (poisoning the erasure masking) plus two more:
  // unlocatable by the self-test, so only rung 3 can cut it away.
  sim::Rng place_rng = rng.split(2);
  const std::vector<unsigned> positions =
      pick_distinct(parity + 2, n, place_rng);
  const std::vector<unsigned> masked(positions.begin(),
                                     positions.begin() + parity);
  // Search flip diffs making both the masked sub-pattern and module 0's
  // full pattern DETECTED failures (no accidental mis-correction).
  std::vector<Element> diffs(positions.size(), 0);
  bool found = false;
  sim::Rng search_rng = rng.split(3);
  for (unsigned attempt = 0; attempt < 20000 && !found; ++attempt) {
    for (Element& d : diffs) d = random_diff(config.code, search_rng);
    std::vector<Element> sub = codeword;
    for (unsigned i = 0; i < parity; ++i) sub[positions[i]] ^= diffs[i];
    if (code.decode(sub, {}).status != rs::DecodeStatus::kFailure) {
      continue;
    }
    std::vector<Element> full = codeword;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] ^= diffs[i];
    }
    found = code.decode(full, {}).status == rs::DecodeStatus::kFailure;
  }
  if (!found) {
    outcome.detail = "no doubly-failing flip pattern found";
    return;
  }

  memory::DuplexSystemConfig cfg;
  cfg.code = config.code;
  cfg.seed = config.seed + 1;
  cfg.degradation = config.degradation;
  cfg.degradation.retry_with_detection = true;
  cfg.degradation.max_retries = 1;
  cfg.degradation.erasure_only_fallback = false;  // isolate rung 3
  cfg.degradation.demote_on_dead_module = true;
  memory::DuplexSystem sys(cfg);
  sys.store(data);
  for (const unsigned symbol : masked) {
    const unsigned bit =
        static_cast<unsigned>(place_rng.uniform_int(config.code.m));
    const bool stored_bit = ((codeword[symbol] >> bit) & 1u) != 0;
    sys.inject_stuck_bit(1, symbol, bit, !stored_bit, /*detected=*/true);
    ++outcome.faults_injected;
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const unsigned symbol = positions[i];
    outcome.faults_injected +=
        inject_diff(diffs[i], config.code.m,
                    [&](unsigned bit) { sys.inject_bit_flip(0, symbol, bit); });
  }
  const memory::DuplexReadResult read = sys.read();
  outcome.ran = true;
  outcome.produced_output = read.read.success;
  outcome.data_correct = read.read.success && read.read.data_correct;
  outcome.counters = sys.degradation();
  outcome.counters_consistent =
      sys.demoted() && sys.dead_module() == 0 &&
      outcome.counters.demotions == 1 &&
      outcome.counters.retries_attempted == 1 && read.degraded &&
      read.read.data_correct;
  std::ostringstream detail;
  detail << "pair arbitration poisoned by module 0 transients; rung 3 "
         << "demoted it and the survivor decoded "
         << (outcome.data_correct ? "correctly" : "WRONG");
  outcome.detail = detail.str();
}

void run_retirement(const FaultCampaignConfig& config,
                    const FaultScenario& scenario, sim::Rng& rng,
                    ScenarioOutcome& outcome) {
  const rs::ReedSolomon code(config.code);
  sim::Rng data_rng = rng.split(1);
  const std::vector<Element> data = make_data(config.code, data_rng);
  std::vector<Element> codeword(config.code.n, 0);
  code.encode(data, codeword);
  const unsigned beyond = (config.code.n - config.code.k) / 2 + 2;
  ErrorPattern pattern;
  sim::Rng search_rng = rng.split(2);
  if (!find_pattern(code, codeword, beyond, /*want_miscorrection=*/false,
                    search_rng, pattern)) {
    outcome.detail = "no detected-failure pattern found";
    return;
  }

  const unsigned retire_after = std::max(1u, scenario.intensity);
  memory::SimplexSystemConfig cfg;
  cfg.code = config.code;
  cfg.seed = config.seed + 1;
  cfg.degradation = config.degradation;
  cfg.degradation.retire_after_failures = retire_after;
  memory::SimplexSystem sys(cfg);
  sys.store(data);
  for (std::size_t i = 0; i < pattern.positions.size(); ++i) {
    const unsigned symbol = pattern.positions[i];
    outcome.faults_injected += inject_diff(
        pattern.diffs[i], config.code.m,
        [&](unsigned bit) { sys.inject_bit_flip(symbol, bit); });
  }
  // Persistent beyond-capability damage: every read fails detected until
  // the retirement threshold trips, then reads report DegradedMode.
  bool any_wrong_data = false;
  for (unsigned i = 0; i < retire_after; ++i) {
    const memory::ReadResult read = sys.read();
    any_wrong_data = any_wrong_data || (read.success && !read.data_correct);
  }
  const memory::ReadResult degraded_read = sys.read();
  outcome.ran = true;
  outcome.produced_output = degraded_read.success;
  outcome.data_correct = degraded_read.success && degraded_read.data_correct;
  if (any_wrong_data) outcome.produced_output = true;  // grade the worst read
  outcome.counters = sys.degradation();
  outcome.counters_consistent =
      !any_wrong_data && sys.retired() && outcome.counters.words_retired == 1 &&
      outcome.counters.unrecovered_failures == retire_after &&
      outcome.counters.reads_in_degraded_mode == 1;
  std::ostringstream detail;
  detail << retire_after << " consecutive detected failures -> word retired; "
         << "further reads report degraded mode";
  outcome.detail = detail.str();
}

void run_solver_divergence(const FaultCampaignConfig& config,
                           const FaultScenario& scenario, sim::Rng& rng,
                           ScenarioOutcome& outcome) {
  (void)rng;
  // A small representative chain: healthy -> degraded -> failed.
  const linalg::CsrMatrix q(3, 3,
                            {{0, 0, -2.0},
                             {0, 1, 2.0},
                             {1, 1, -1.0},
                             {1, 2, 1.0}});
  const markov::Ctmc chain(q, 0);
  const double t = 1.0;

  markov::SolverGuardConfig guard;
  const unsigned trips = std::max(1u, std::min(scenario.intensity, 3u));
  guard.force_uniformization_trip = trips >= 1;
  guard.force_rk45_trip = trips >= 2;
  guard.force_expm_trip = trips >= 3;
  outcome.faults_injected = trips;
  const markov::GuardedTransientSolver guarded(guard);

  const markov::UniformizationSolver reference;
  const std::vector<double> expected = reference.solve(chain, t);
  std::ostringstream detail;
  try {
    const std::vector<double> got = guarded.solve(chain, t);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(got[i] - expected[i]));
    }
    const markov::GuardedSolveReport& report = guarded.last_report();
    const markov::SolverStage want = trips == 1
                                         ? markov::SolverStage::kRk45
                                         : markov::SolverStage::kDenseExpm;
    outcome.ran = true;
    outcome.produced_output = true;
    outcome.data_correct = max_diff < 1e-6;
    outcome.counters_consistent = report.fallback_used &&
                                  report.answered_by == want &&
                                  report.attempts.size() == trips + 1;
    // The fallback chain is the solver's degradation machinery.
    outcome.counters.retries_attempted = guarded.fallbacks_taken();
    detail << trips << " stage(s) force-tripped; "
           << to_string(report.answered_by) << " answered within "
           << std::scientific << std::setprecision(1) << max_diff
           << " of uniformization";
  } catch (const core::StatusError& e) {
    // All three stages rejected: the REQUIRED outcome for trips == 3 is a
    // typed kSolverDivergence failure, never a silent wrong distribution.
    outcome.ran = true;
    outcome.produced_output = false;
    outcome.data_correct = false;
    outcome.counters_consistent =
        trips == 3 &&
        e.status().code() == core::StatusCode::kSolverDivergence;
    detail << "chain exhausted; typed failure: " << e.status().to_string();
  }
  outcome.detail = detail.str();
}

}  // namespace

ScenarioOutcome run_scenario(const FaultCampaignConfig& config,
                             const FaultScenario& scenario,
                             std::size_t scenario_index) {
  ScenarioOutcome outcome;
  outcome.scenario = scenario;
  sim::Rng rng = sim::Rng(config.seed).split(0x5C01u + scenario_index);
  switch (scenario.kind) {
    case ScenarioKind::kMbuBurst:
      run_mbu_burst(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kStuckBankGrowth:
      run_stuck_bank_growth(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kScrubStall:
      run_scrub_stall(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kMiscorrectionTrap:
      run_miscorrection_trap(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kArbiterDisagreement:
      run_arbiter_disagreement(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kDeadModuleDemotion:
      run_dead_module_demotion(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kRetirement:
      run_retirement(config, scenario, rng, outcome);
      break;
    case ScenarioKind::kSolverDivergence:
      run_solver_divergence(config, scenario, rng, outcome);
      break;
  }
  if (!outcome.ran) outcome.counters_consistent = false;
  finish(outcome);
  return outcome;
}

std::vector<FaultScenario> paper_duplex_scenarios(const rs::CodeParams& code) {
  std::vector<FaultScenario> scenarios;
  const auto add = [&](FaultScenario s) { scenarios.push_back(std::move(s)); };

  add({.name = "mbu-burst-simplex",
       .kind = ScenarioKind::kMbuBurst,
       .target = TargetSystem::kSimplex,
       .intensity = std::min(code.m, 3u)});
  add({.name = "mbu-burst-duplex-m0",
       .kind = ScenarioKind::kMbuBurst,
       .target = TargetSystem::kDuplex,
       .module_index = 0,
       .intensity = 2});
  add({.name = "mbu-burst-duplex-m1",
       .kind = ScenarioKind::kMbuBurst,
       .target = TargetSystem::kDuplex,
       .module_index = 1,
       .intensity = 2});
  add({.name = "mbu-burst-tmr",
       .kind = ScenarioKind::kMbuBurst,
       .target = TargetSystem::kTmr,
       .module_index = 1,
       .intensity = 2});

  // Every single-module permanent-bank scenario: each 3-symbol bank of
  // each module. The duplex arbiter must mask ALL of them.
  const unsigned bank = 3;
  for (unsigned module = 0; module < 2; ++module) {
    for (unsigned start = 0; start < code.n; start += bank) {
      FaultScenario s;
      std::ostringstream name;
      name << "stuck-bank-m" << module << "-s" << start;
      s.name = name.str();
      s.kind = ScenarioKind::kStuckBankGrowth;
      s.target = TargetSystem::kDuplex;
      s.module_index = module;
      s.bank_start = start;
      s.bank_symbols = bank;
      add(std::move(s));
    }
  }

  add({.name = "scrub-stall-duplex",
       .kind = ScenarioKind::kScrubStall,
       .target = TargetSystem::kDuplex,
       .module_index = 0,
       .intensity = 3});
  // The simplex baseline is EXPECTED to silently mis-correct: this is the
  // exposure (paper Section 4) the duplex arbiter exists to remove.
  add({.name = "miscorrect-simplex",
       .kind = ScenarioKind::kMiscorrectionTrap,
       .target = TargetSystem::kSimplex,
       .expect_survival = false});
  add({.name = "miscorrect-duplex-m0",
       .kind = ScenarioKind::kMiscorrectionTrap,
       .target = TargetSystem::kDuplex,
       .module_index = 0});
  add({.name = "miscorrect-duplex-m1",
       .kind = ScenarioKind::kMiscorrectionTrap,
       .target = TargetSystem::kDuplex,
       .module_index = 1});
  add({.name = "arbiter-disagreement",
       .kind = ScenarioKind::kArbiterDisagreement,
       .target = TargetSystem::kDuplex});
  add({.name = "demotion-recovery",
       .kind = ScenarioKind::kDeadModuleDemotion,
       .target = TargetSystem::kDuplex});
  add({.name = "retirement-simplex",
       .kind = ScenarioKind::kRetirement,
       .target = TargetSystem::kSimplex,
       .intensity = 3});
  add({.name = "solver-fallback-rk45",
       .kind = ScenarioKind::kSolverDivergence,
       .target = TargetSystem::kSolver,
       .intensity = 1});
  add({.name = "solver-fallback-expm",
       .kind = ScenarioKind::kSolverDivergence,
       .target = TargetSystem::kSolver,
       .intensity = 2});
  add({.name = "solver-exhausted",
       .kind = ScenarioKind::kSolverDivergence,
       .target = TargetSystem::kSolver,
       .intensity = 3});
  return scenarios;
}

FaultCampaignReport run_fault_campaign(
    const FaultCampaignConfig& config,
    std::span<const FaultScenario> scenarios) {
  FaultCampaignReport report;
  report.outcomes.resize(scenarios.size());
  parallel_for_indexed(scenarios.size(), config.threads, [&](std::size_t i) {
    report.outcomes[i] = run_scenario(config, scenarios[i], i);
  });
  report.scenarios = static_cast<unsigned>(report.outcomes.size());
  for (const ScenarioOutcome& outcome : report.outcomes) {
    if (outcome.survived) ++report.survived;
    if (outcome.silent_corruption) ++report.silent_corruptions;
    if (outcome.degradation_engaged) ++report.degraded;
    if (!outcome.as_expected) ++report.unexpected;
    if (!outcome.counters_consistent) ++report.inconsistent;
  }
  return report;
}

std::string format_campaign_report(const FaultCampaignReport& report) {
  std::ostringstream out;
  out << std::left << std::setw(24) << "scenario" << std::setw(9) << "target"
      << std::setw(11) << "verdict" << std::setw(7) << "degr" << std::setw(7)
      << "cntrs" << std::setw(8) << "faults"
      << "detail\n";
  for (const ScenarioOutcome& o : report.outcomes) {
    const char* verdict = !o.ran              ? "NOT-RUN"
                          : o.silent_corruption
                              ? (o.as_expected ? "silent*" : "SILENT!")
                              : o.produced_output ? "survived"
                                                  : "failsafe";
    out << std::left << std::setw(24) << o.scenario.name << std::setw(9)
        << to_string(o.scenario.target) << std::setw(11) << verdict
        << std::setw(7) << (o.degradation_engaged ? "yes" : "-")
        << std::setw(7) << (o.counters_consistent ? "ok" : "BAD")
        << std::setw(8) << o.faults_injected << o.detail << "\n";
  }
  out << "\ncampaign: " << report.scenarios << " scenarios, "
      << report.survived << " survived, " << report.silent_corruptions
      << " silent (expected-vulnerable baselines), " << report.degraded
      << " engaged degradation, " << report.unexpected << " unexpected, "
      << report.inconsistent << " counter mismatches -> "
      << (report.passed() ? "PASS" : "FAIL") << "\n";
  return out.str();
}

}  // namespace rsmem::analysis

#include "analysis/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>

#include "gf/aligned.h"
#include "sim/rng.h"

namespace rsmem::analysis {

namespace {
constexpr double kZ95 = 1.959963984540054;  // two-sided 95% normal quantile

// Default gather/decode/scatter width (MonteCarloConfig::batch_trials == 0):
// wide enough that the plane-wide syndrome screen amortizes per-word call
// overhead into full vector registers, small enough that one worker's live
// systems stay cache-resident.
constexpr std::size_t kDefaultBatchTrials = 64;

// The batched path requires an inert degradation policy (the rungs re-read
// the module mid-decode, which cannot be lifted into a plane). Width 1 is
// the per-trial read() path, the degradation path.
std::size_t resolve_batch_width(const MonteCarloConfig& config,
                                const memory::DegradationPolicy& degradation) {
  if (degradation.any_enabled()) return 1;
  return config.batch_trials == 0 ? kDefaultBatchTrials : config.batch_trials;
}

// Both entry points need a trial and a finite, non-negative horizon (NaN
// would run no events and +inf would never finish).
void check_config(const MonteCarloConfig& config, const std::string& who) {
  if (config.trials == 0) {
    throw std::invalid_argument(who + ": need at least 1 trial");
  }
  if (!std::isfinite(config.t_end_hours) || config.t_end_hours < 0.0) {
    throw std::invalid_argument(who + ": t_end_hours must be finite and >= 0");
  }
}

// A read that returns wrong data (an undetected mis-correction) is a
// failure, as the Markov chains count any unrecoverable pattern as Fail.
void count_outcome(MonteCarloAccumulator& acc, bool success, bool data_correct,
                   const memory::SystemStats& stats) {
  ++acc.trials;
  if (!success) {
    ++acc.failures;
    ++acc.no_output_failures;
  } else if (!data_correct) {
    ++acc.failures;
    ++acc.wrong_data_failures;
  }
  acc.seu_sum += stats.seu_injected;
  acc.permanent_sum += stats.permanent_injected;
  acc.scrub_failures += stats.scrub_failures;
  acc.scrub_miscorrections += stats.scrub_miscorrections;
}

void fill_word(WordObservation& word, const rs::DecodeOutcome& outcome,
               unsigned erasures_supplied,
               const memory::DamageSummary& damage) {
  word.decode_ok = outcome.ok();
  word.errors_corrected = outcome.errors_corrected;
  word.erasures_corrected = outcome.erasures_corrected;
  word.erasures_supplied = erasures_supplied;
  word.erased_symbols = damage.erased;
  word.corrupted_symbols = damage.corrupted;
}

// The two places a campaign sees its arrangement: the aggregate read inside
// a system's read result, and the words an observer's TrialRecord holds
// (one simplex decode; two duplex decodes, after erasure masking).
const memory::ReadResult& read_of(const memory::ReadResult& read) {
  return read;
}
const memory::ReadResult& read_of(const memory::DuplexReadResult& read) {
  return read.read;
}

void fill_words(TrialRecord& record, const memory::SimplexSystem& sys,
                const memory::ReadResult& read) {
  record.word_count = 1;
  const memory::DamageSummary damage = sys.damage();
  fill_word(record.words[0], read.outcome, damage.erased, damage);
}
void fill_words(TrialRecord& record, const memory::DuplexSystem& sys,
                const memory::DuplexReadResult& read) {
  record.word_count = 2;
  const unsigned common =
      static_cast<unsigned>(read.arbitration.common_erasures.size());
  fill_word(record.words[0], read.arbitration.outcome1, common,
            sys.damage(0));
  fill_word(record.words[1], read.arbitration.outcome2, common,
            sys.damage(1));
}

// Trials whose streams are seeded together (sim::Rng::seed_lockstep): their
// data and system-seed streams, eight 2.5 KB streams live at a time.
constexpr std::size_t kSeedGroup = 4;

// Draws the datawords (`data`, k symbols per trial in trial order) and the
// system seeds (`seeds`, one per trial) of trials [base, base +
// seeds.size()), at most kSeedGroup of them. Trial t draws its data from
// root.split(2t) and its seed from root.split(2t + 1): streams keyed by the
// GLOBAL trial index, never by the shard, so shard layout cannot change any
// trial's fault history. Seeding the streams together first changes no
// draw.
void draw_trial_inputs(const sim::Rng& root, std::size_t base, unsigned m,
                       std::span<gf::Element> data,
                       std::span<std::uint64_t> seeds) {
  const std::size_t count = seeds.size();
  const std::size_t k = data.size() / count;
  // Copies of root, which never draws, so a copy moves no state word.
  sim::Rng streams[] = {root, root, root, root, root, root, root, root};
  static_assert(std::size(streams) == 2 * kSeedGroup);
  sim::Rng* group[2 * kSeedGroup];
  for (std::size_t j = 0; j < 2 * count; ++j) {
    streams[j] = root.split(2 * base + j);
    group[j] = &streams[j];
  }
  sim::Rng::seed_lockstep(std::span<sim::Rng* const>(group, 2 * count));
  for (std::size_t i = 0; i < count; ++i) {
    streams[2 * i].uniform_ints(std::uint64_t{1} << m, data.subspan(i * k, k));
    seeds[i] = streams[2 * i + 1].next_u64();
  }
}

// The campaign's one codec (the system's shared codec when it brings one):
// building GF tables + generator per trial is pure overhead, and the codec
// is immutable so sharing across workers is safe. Its dense mul and SIMD
// tables are built here, before the pool threads race for them.
std::shared_ptr<const rs::ReedSolomon> campaign_code(
    const std::shared_ptr<const rs::ReedSolomon>& shared,
    const rs::CodeParams& params) {
  std::shared_ptr<const rs::ReedSolomon> code =
      shared ? shared : std::make_shared<const rs::ReedSolomon>(params);
  rs::DecoderWorkspace warm;
  warm.reserve(*code);
  return code;
}

// The campaign codec behind a reference count of the chunk's own. Each trial
// copies its codec pointer into its config and its system several times; on
// the campaign's one count, every worker's copies would bounce the same
// cache line, which held four-thread campaigns of short trials well under
// 4x one thread. The handle owns a copy of the campaign pointer and points
// at the same codec, so no trial's result changes.
std::shared_ptr<const rs::ReedSolomon> chunk_code(
    const std::shared_ptr<const rs::ReedSolomon>& code) {
  return {std::make_shared<std::shared_ptr<const rs::ReedSolomon>>(code),
          code.get()};
}

// run_sharded's fold of one chunk's accumulator into the campaign total.
void merge_shard(MonteCarloAccumulator& total,
                 const MonteCarloAccumulator& shard) {
  total.merge_from(shard);
}

}  // namespace

double BinomialEstimate::p_hat() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(failures) /
                           static_cast<double>(trials);
}

double BinomialEstimate::std_error() const {
  if (trials == 0) return 0.0;
  const double p = p_hat();
  return std::sqrt(p * (1.0 - p) / static_cast<double>(trials));
}

double BinomialEstimate::wilson_low() const {
  if (trials == 0 || failures == 0) return 0.0;
  const double n = static_cast<double>(trials);
  const double p = p_hat();
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin =
      kZ95 * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::max(0.0, (center - margin) / denom);
}

double BinomialEstimate::wilson_high() const {
  if (trials == 0 || failures == trials) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = p_hat();
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin =
      kZ95 * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::min(1.0, (center + margin) / denom);
}

bool BinomialEstimate::covers(double p) const {
  return p >= wilson_low() && p <= wilson_high();
}

void MonteCarloAccumulator::merge_from(const MonteCarloAccumulator& other) {
  trials += other.trials;
  failures += other.failures;
  seu_sum += other.seu_sum;
  permanent_sum += other.permanent_sum;
  scrub_failures += other.scrub_failures;
  scrub_miscorrections += other.scrub_miscorrections;
  no_output_failures += other.no_output_failures;
  wrong_data_failures += other.wrong_data_failures;
}

MonteCarloResult MonteCarloAccumulator::finalize() const {
  MonteCarloResult result;
  result.failure.trials = trials;
  result.failure.failures = failures;
  if (trials > 0) {
    result.mean_seu_per_trial = seu_sum / static_cast<double>(trials);
    result.mean_permanent_per_trial =
        permanent_sum / static_cast<double>(trials);
  }
  result.scrub_failures = scrub_failures;
  result.scrub_miscorrections = scrub_miscorrections;
  result.no_output_failures = no_output_failures;
  result.wrong_data_failures = wrong_data_failures;
  return result;
}

namespace {

// The campaign body both arrangements run. Every trial stores random data
// at t=0, advances to the stopping time and reads once. System is
// SimplexSystem or DuplexSystem; its batched read surface has one shape,
// kPlaneWords decoded words per read, so nothing below branches on it.
template <typename System, typename SystemConfig>
MonteCarloResult run_trials(const SystemConfig& system,
                            const MonteCarloConfig& config,
                            CampaignReport* report, CampaignProgress* progress,
                            const char* who) {
  check_config(config, who);
  const sim::Rng root{config.seed};
  const std::shared_ptr<const rs::ReedSolomon> shared_code =
      campaign_code(system.shared_code, system.code);
  const std::size_t batch = resolve_batch_width(config, system.degradation);
  const unsigned n = system.code.n;
  const unsigned k = system.code.k;
  const unsigned m = system.code.m;
  constexpr unsigned kWords = System::kPlaneWords;
  const std::size_t slot = kWords * n;  // plane symbols one trial reads
  const auto chunk = [&](std::size_t first, std::size_t last,
                         MonteCarloAccumulator& acc) {
    // One batch workspace per campaign thread (the thread-safety rule of
    // the codec); it persists across chunks and campaigns so steady-state
    // trials allocate no codec scratch at all. Per-word decodes inside the
    // systems use the codec's own per-thread workspace.
    thread_local rs::DecoderWorkspace ws;
    SystemConfig cfg = system;
    cfg.shared_code = chunk_code(shared_code);
    // The chunk's systems, one per batch slot (one in the per-trial arm):
    // built for the first trial a slot runs and reset for every later one,
    // which gives the state a new system with that seed would have.
    std::vector<std::unique_ptr<System>> systems;
    const auto system_for = [&](std::size_t index,
                                std::uint64_t seed) -> System& {
      if (index < systems.size()) {
        systems[index]->reset(seed);
      } else {
        cfg.seed = seed;
        systems.push_back(std::make_unique<System>(cfg));
      }
      return *systems[index];
    };
    const auto finish_trial = [&](std::size_t trial, const System& sys,
                                  const auto& result) {
      const memory::ReadResult& read = read_of(result);
      count_outcome(acc, read.success, read.data_correct, sys.stats());
      if (config.observer) {
        TrialRecord record;
        record.trial_index = trial;
        record.success = read.success;
        record.data_correct = read.data_correct;
        fill_words(record, sys, result);
        record.seu_injected = sys.stats().seu_injected;
        record.permanent_injected = sys.stats().permanent_injected;
        config.observer(record);
      }
    };
    std::uint64_t seeds[kSeedGroup];
    if (batch <= 1) {
      // The per-trial read() path: every degradation rung takes it.
      std::vector<gf::Element> data(kSeedGroup * k);
      const std::span<gf::Element> data_span{data};
      for_each_batch(first, last, kSeedGroup, [&](std::size_t base,
                                                  std::size_t stop) {
        const std::size_t count = stop - base;
        draw_trial_inputs(root, base, m, data_span.first(count * k),
                          std::span(seeds, count));
        for (std::size_t i = 0; i < count; ++i) {
          System& sys = system_for(0, seeds[i]);
          sys.store(data_span.subspan(i * k, k));
          sys.advance_to(config.t_end_hours);
          finish_trial(base + i, sys, sys.read());
        }
      });
      return;
    }
    // Batched gather/encode/decode/scatter: generate the batch's datawords
    // into one plane and encode them with a single encode_batch call
    // (bit-identical per word to the per-trial encode), store each trial's
    // codeword, run every trial to its stopping time, gather each system's
    // kWords words into its slot of one word/flag plane, decode the plane
    // with a single decode_batch call (clean unflagged words exit via the
    // plane-wide syndrome screen), then hand each system its decoded slot.
    // Outcomes are counted in ascending trial order, as in the per-trial
    // loop above.
    gf::AlignedVector<gf::Element> data_plane;
    gf::AlignedVector<gf::Element> plane;
    gf::AlignedVector<std::uint8_t> flags;
    std::vector<rs::DecodeOutcome> outcomes;
    for_each_batch(first, last, batch, [&](std::size_t base,
                                           std::size_t stop) {
      const std::size_t count = stop - base;
      data_plane.resize(count * k);
      plane.resize(count * slot);
      flags.resize(count * slot);
      outcomes.assign(count * kWords, rs::DecodeOutcome{});
      const std::span<gf::Element> data_span{data_plane};
      const std::span<gf::Element> plane_span{plane};
      const std::span<std::uint8_t> flag_span{flags};
      const std::span<const rs::DecodeOutcome> outcome_span{outcomes};
      for (std::size_t group = 0; group < count; group += kSeedGroup) {
        const std::size_t size = std::min(kSeedGroup, count - group);
        draw_trial_inputs(root, base + group, m,
                          data_span.subspan(group * k, size * k),
                          std::span(seeds, size));
        for (std::size_t i = 0; i < size; ++i) {
          system_for(group + i, seeds[i]);
        }
      }
      // The codewords borrow the first count*n symbols of the read plane:
      // store_encoded copies each one before any fault arrives, and the
      // gather below overwrites the plane wholesale.
      shared_code->encode_batch(ws, data_span, plane_span.first(count * n));
      for (std::size_t i = 0; i < count; ++i) {
        systems[i]->store_encoded(data_span.subspan(i * k, k),
                                  plane_span.subspan(i * n, n));
        systems[i]->advance_to(config.t_end_hours);
      }
      for (std::size_t i = 0; i < count; ++i) {
        systems[i]->read_into_plane(plane_span.subspan(i * slot, slot),
                                    flag_span.subspan(i * slot, slot));
      }
      shared_code->decode_batch(ws, plane_span, outcomes, flag_span);
      for (std::size_t i = 0; i < count; ++i) {
        finish_trial(base + i, *systems[i],
                     systems[i]->finish_batched_read(
                         plane_span.subspan(i * slot, slot),
                         outcome_span.subspan(i * kWords, kWords)));
      }
    });
  };
  return run_sharded<MonteCarloAccumulator>(
             CampaignConfig{config.trials, config.chunk_trials,
                            config.threads},
             chunk, merge_shard, report, progress)
      .finalize();
}

}  // namespace

MonteCarloResult run_simplex_trials(const memory::SimplexSystemConfig& system,
                                    const MonteCarloConfig& config,
                                    CampaignReport* report,
                                    CampaignProgress* progress) {
  return run_trials<memory::SimplexSystem>(system, config, report, progress,
                                           "run_simplex_trials");
}

MonteCarloResult run_duplex_trials(const memory::DuplexSystemConfig& system,
                                   const MonteCarloConfig& config,
                                   CampaignReport* report,
                                   CampaignProgress* progress) {
  return run_trials<memory::DuplexSystem>(system, config, report, progress,
                                          "run_duplex_trials");
}

}  // namespace rsmem::analysis

#include "memory/duplex_system.h"

#include <algorithm>
#include <stdexcept>

namespace rsmem::memory {

// The injectors and scrubber start on placeholder streams; reset() seeds
// them.
DuplexSystem::DuplexSystem(const DuplexSystemConfig& config)
    : config_(config),
      code_(resolve_code(config.shared_code, config.code, "DuplexSystem")),
      arbiter_(*code_),
      module1_(config.code.n, config.code.m),
      module2_(config.code.n, config.code.m),
      injector1_(config.rates, sim::Rng{0}, queue_, module1_),
      injector2_(config.rates, sim::Rng{0}, queue_, module2_),
      word1_scratch_(config.code.n, 0),
      word2_scratch_(config.code.n, 0),
      flags1_scratch_(config.code.n, 0),
      flags2_scratch_(config.code.n, 0) {
  erasures1_scratch_.reserve(config.code.n);
  erasures2_scratch_.reserve(config.code.n);
  arbitration_.output.reserve(config.code.n);
  arbitration_.common_erasures.reserve(config.code.n);
  if (config.scrub_policy != ScrubPolicy::kNone) {
    scrubber_.emplace(config.scrub_policy, config.scrub_period_hours,
                      sim::Rng{0});
  }
  reset(config.seed);
}

// arbitration_ is left as it is: every read refills it before use, and
// gathered_ = false makes finish_batched_read refuse the old one.
void DuplexSystem::reset(std::uint64_t seed) {
  const sim::Rng root{seed};
  queue_.reset();
  module1_.reset();
  module2_.reset();
  injector1_.reset(root.split(1));
  injector2_.reset(root.split(2));
  if (scrubber_) scrubber_->reset(root.split(3));
  stored_data_.clear();
  stored_codeword_.clear();
  stored_ = false;
  stats_ = SystemStats{};
  gathered_ = false;
  last_scrub_ = ScrubVerdict::kNone;
  last_scrub_gen1_ = 0;
  last_scrub_gen2_ = 0;
  scrub_suspended_ = false;
  degradation_ = DegradationCounters{};
  consecutive_failures_ = 0;
  dead_module_ = -1;
  retired_ = false;
}

void DuplexSystem::store(std::span<const Element> data) {
  if (stored_) {
    throw std::logic_error("DuplexSystem::store: already stored");
  }
  stored_data_.assign(data.begin(), data.end());
  stored_codeword_.assign(code_->n(), 0);
  code_->encode(stored_data_, stored_codeword_);
  commit_store();
}

void DuplexSystem::store_encoded(std::span<const Element> data,
                                 std::span<const Element> codeword) {
  if (stored_) {
    throw std::logic_error("DuplexSystem::store_encoded: already stored");
  }
  if (data.size() != code_->k() || codeword.size() != code_->n()) {
    throw std::invalid_argument(
        "DuplexSystem::store_encoded: data/codeword size mismatch");
  }
  stored_data_.assign(data.begin(), data.end());
  stored_codeword_.assign(codeword.begin(), codeword.end());
  commit_store();
}

void DuplexSystem::commit_store() {
  module1_.write(stored_codeword_);
  module2_.write(stored_codeword_);
  stored_ = true;
  injector1_.start();
  injector2_.start();
  if (scrubber_) scrubber_->arm(queue_, [this] { scrub(); });
}

void DuplexSystem::scrub() {
  if (scrub_suspended_ || retired_) {
    ++stats_.scrubs_skipped;
    return;
  }
  ++stats_.scrubs_attempted;
  const std::uint64_t gen1 = module1_.generation();
  const std::uint64_t gen2 = module2_.generation();
  if (last_scrub_ != ScrubVerdict::kNone && gen1 == last_scrub_gen1_ &&
      gen2 == last_scrub_gen2_ && supports_batched_read()) {
    // Replay: both modules hold what the last arbitrated pass read (or what
    // its rewrite left, when that reads back as its output; see below), and
    // an inert policy makes arbitration a pure function of that state.
    ++stats_.scrubs_replayed;
    const bool ok = last_scrub_ != ScrubVerdict::kNoOutput;
    note_decode_result(ok);
    if (!ok) ++stats_.scrub_failures;
    if (last_scrub_ == ScrubVerdict::kMiscorrected) {
      ++stats_.scrub_miscorrections;
    }
    return;
  }
  const ArbiterResult& result = arbitrate_with_recovery();
  last_scrub_gen1_ = gen1;
  last_scrub_gen2_ = gen2;
  if (!result.has_output()) {
    ++stats_.scrub_failures;
    last_scrub_ = ScrubVerdict::kNoOutput;
    return;
  }
  // Rewrite the agreed codeword into both modules. Stuck bits survive, so
  // permanent faults (X/Y pairs) persist while transient damage is cleared:
  // exactly the chain's scrub target (X, Y+b, 0, 0, 0, 0). A dead module is
  // no longer written: it is out of the configuration.
  if (dead_module_ != 0) module1_.write(result.output);
  if (dead_module_ != 1) module2_.write(result.output);
  if (std::equal(result.output.begin(), result.output.end(),
                 stored_codeword_.begin())) {
    last_scrub_ = ScrubVerdict::kOk;
  } else {
    ++stats_.scrub_miscorrections;
    last_scrub_ = ScrubVerdict::kMiscorrected;
  }
  // A clean rewrite makes the next pass a replay of this one. If both
  // modules read back the output at every symbol they do not flag, the
  // next arbitration sees two words equal to the output outside the common
  // erasures. Those number at most n - k, since this pass decoded under the
  // same flags, so erasure-only decoding restores the output in both words,
  // the select rule outputs it and the rewrite changes nothing: the same
  // verdict, counters and failure streak.
  if (supports_batched_read() &&
      module1_.reads_back_outside_erasures(result.output) &&
      module2_.reads_back_outside_erasures(result.output)) {
    last_scrub_gen1_ = module1_.generation();
    last_scrub_gen2_ = module2_.generation();
  }
}

void DuplexSystem::inject_bit_flip(unsigned module_index, unsigned symbol,
                                   unsigned bit) {
  if (module_index > 1) {
    throw std::invalid_argument(
        "DuplexSystem::inject_bit_flip: module must be 0 or 1");
  }
  (module_index == 0 ? module1_ : module2_).flip_bit(symbol, bit);
}

void DuplexSystem::inject_stuck_bit(unsigned module_index, unsigned symbol,
                                    unsigned bit, bool level, bool detected) {
  if (module_index > 1) {
    throw std::invalid_argument(
        "DuplexSystem::inject_stuck_bit: module must be 0 or 1");
  }
  (module_index == 0 ? module1_ : module2_)
      .stick_bit(symbol, bit, level, detected);
}

const ArbiterResult& DuplexSystem::survivor_arbiter_result() const {
  const MemoryModule& survivor = dead_module_ == 0 ? module2_ : module1_;
  survivor.read_into(word1_scratch_);
  survivor.detected_erasures_into(erasures1_scratch_);
  ArbiterResult& result = arbitration_;
  result.outcome1 = code_->decode(word1_scratch_, erasures1_scratch_);
  result.outcome2 = rs::DecodeOutcome{};
  result.flag1 = result.outcome1.correction_flag();
  result.flag2 = false;
  result.common_erasures.clear();
  result.masked_erasures = 0;
  result.output.clear();
  result.decision = ArbiterDecision::kNoOutput;
  if (result.outcome1.ok()) {
    result.decision = ArbiterDecision::kWord1;
    result.output.assign(word1_scratch_.begin(), word1_scratch_.end());
  }
  return result;
}

const ArbiterResult& DuplexSystem::arbitrate_current() const {
  if (dead_module_ >= 0) return survivor_arbiter_result();
  module1_.read_into_plane(word1_scratch_, flags1_scratch_);
  module2_.read_into_plane(word2_scratch_, flags2_scratch_);
  arbiter_.arbitrate_planes(word1_scratch_, word2_scratch_, flags1_scratch_,
                            flags2_scratch_, arbitration_);
  return arbitration_;
}

bool DuplexSystem::probe_decode(const MemoryModule& module,
                                std::vector<Element>& word,
                                std::vector<unsigned>& erasures) const {
  module.read_into(word);
  module.detected_erasures_into(erasures);
  return code_->decode(word, erasures).ok();
}

void DuplexSystem::maybe_demote() const {
  module1_.detected_erasures_into(erasures1_scratch_);
  module2_.detected_erasures_into(erasures2_scratch_);
  // n - k + 1 erasures put a module alone beyond any decode.
  const unsigned threshold = code_->parity_symbols() + 1;
  const bool dead1 = erasures1_scratch_.size() >= threshold;
  const bool dead2 = erasures2_scratch_.size() >= threshold;
  if (dead1 && dead2) return;  // both beyond hope: a survivor cannot help
  if (dead1 != dead2) {
    dead_module_ = dead1 ? 0 : 1;
    ++degradation_.demotions;
    return;
  }
  // Neither side is past the erasure threshold, yet the pair fails: one
  // copy's (possibly transient, unlocatable) damage is poisoning the
  // arbitration through erasure masking. Probe each module alone with its
  // own erasure info; if exactly one decodes, the other is the dead copy.
  const bool ok1 = probe_decode(module1_, word1_scratch_, erasures1_scratch_);
  const bool ok2 = probe_decode(module2_, word2_scratch_, erasures2_scratch_);
  if (ok1 == ok2) return;
  dead_module_ = ok1 ? 1 : 0;
  ++degradation_.demotions;
}

const ArbiterResult& DuplexSystem::arbitrate_with_recovery() const {
  gathered_ = false;
  // Every arbitration below refills arbitration_, which `result` names.
  const ArbiterResult& result = arbitrate_current();
  const DegradationPolicy& policy = config_.degradation;
  if (!result.has_output() && policy.retry_with_detection) {
    // Rung 1: run both modules' self-tests (locating every stuck bit) and
    // re-arbitrate -- located stuck bits cost 1x as erasures.
    for (unsigned attempt = 0;
         attempt < policy.max_retries && !result.has_output(); ++attempt) {
      ++degradation_.retries_attempted;
      module1_.detect_all_faults();
      module2_.detect_all_faults();
      arbitrate_current();
      if (result.has_output()) ++degradation_.retry_recoveries;
    }
  }
  if (!result.has_output() && policy.erasure_only_fallback &&
      policy.bank_symbols > 0 && dead_module_ < 0) {
    // Rung 2: condemn heavily-stuck banks on both sides, then re-arbitrate
    // with the widened erasure sets.
    module1_.detected_erasures_into(erasures1_scratch_);
    module2_.detected_erasures_into(erasures2_scratch_);
    const unsigned c1 = condemn_banks(module1_, policy, erasures1_scratch_);
    const unsigned c2 = condemn_banks(module2_, policy, erasures2_scratch_);
    if (c1 + c2 > 0) {
      degradation_.banks_condemned += c1 + c2;
      ++degradation_.erasure_only_decodes;
      module1_.read_into(word1_scratch_);
      module2_.read_into(word2_scratch_);
      arbitration_ = arbiter_.arbitrate(word1_scratch_, word2_scratch_,
                                        erasures1_scratch_, erasures2_scratch_);
      if (result.has_output()) ++degradation_.erasure_only_recoveries;
    }
  }
  if (!result.has_output() && policy.demote_on_dead_module &&
      dead_module_ < 0) {
    // Rung 3: cut away a module whose erasure count makes it undecodable on
    // its own and continue simplex on the survivor.
    maybe_demote();
    if (dead_module_ >= 0) survivor_arbiter_result();
  }
  note_decode_result(result.has_output());
  return result;
}

void DuplexSystem::note_decode_result(bool ok) const {
  if (ok) {
    consecutive_failures_ = 0;
    return;
  }
  ++consecutive_failures_;
  ++degradation_.unrecovered_failures;
  const unsigned retire_after = config_.degradation.retire_after_failures;
  if (retire_after > 0 && !retired_ && consecutive_failures_ >= retire_after) {
    retired_ = true;
    ++degradation_.words_retired;
  }
}

void DuplexSystem::advance_to(double t_hours) {
  if (!stored_) {
    throw std::logic_error("DuplexSystem::advance_to: nothing stored");
  }
  gathered_ = false;
  queue_.run_until(t_hours);
  stats_.seu_injected = injector1_.seu_injected() + injector2_.seu_injected();
  stats_.permanent_injected =
      injector1_.permanent_injected() + injector2_.permanent_injected();
}

DuplexReadResult DuplexSystem::read() const {
  if (!stored_) {
    throw std::logic_error("DuplexSystem::read: nothing stored");
  }
  if (retired_) {
    ++degradation_.reads_in_degraded_mode;
    DuplexReadResult result;
    result.degraded = true;
    return result;  // success=false: the word was retired (DegradedMode)
  }
  arbitrate_with_recovery();
  return read_result();
}

DuplexReadResult DuplexSystem::read_result() const {
  DuplexReadResult result;
  result.arbitration = arbitration_;
  result.degraded = demoted();
  if (result.degraded) ++degradation_.reads_in_degraded_mode;
  result.read.outcome = arbitration_.outcome1;
  result.read.success = arbitration_.has_output();
  if (result.read.success) {
    result.read.data = code_->extract_data(arbitration_.output);
    result.read.data_correct =
        std::equal(result.read.data.begin(), result.read.data.end(),
                   stored_data_.begin(), stored_data_.end());
  }
  return result;
}

bool DuplexSystem::supports_batched_read() const {
  return stored_ && !retired_ && dead_module_ < 0 &&
         !config_.degradation.any_enabled();
}

void DuplexSystem::read_into_plane(std::span<Element> words,
                                   std::span<std::uint8_t> flags) const {
  if (!supports_batched_read()) {
    throw std::logic_error(
        "DuplexSystem::read_into_plane: batched read unsupported (need "
        "stored data, inert degradation policy)");
  }
  const std::size_t n = code_->n();
  if (words.size() != kPlaneWords * n || flags.size() != kPlaneWords * n) {
    throw std::invalid_argument(
        "DuplexSystem::read_into_plane: need 2n symbols and flags");
  }
  module1_.read_into_plane(words.first(n), flags.first(n));
  module2_.read_into_plane(words.last(n), flags.last(n));
  arbiter_.mask_erasures(words.first(n), words.last(n), flags.first(n),
                         flags.last(n), arbitration_);
  gathered_ = true;
}

DuplexReadResult DuplexSystem::finish_batched_read(
    std::span<const Element> words,
    std::span<const rs::DecodeOutcome> outcomes) const {
  // The gather checked supports_batched_read(), and only an arbitration,
  // which discards the gather, can retire or demote the pair.
  if (!gathered_) {
    throw std::logic_error(
        "DuplexSystem::finish_batched_read: no read_into_plane before it");
  }
  const std::size_t n = code_->n();
  if (words.size() != kPlaneWords * n || outcomes.size() != kPlaneWords) {
    throw std::invalid_argument(
        "DuplexSystem::finish_batched_read: need 2n symbols, 2 outcomes");
  }
  gathered_ = false;
  // With an inert degradation policy arbitrate_with_recovery is exactly
  // {arbitrate, note_decode_result}, and steps 1-2 already happened.
  arbitration_.outcome1 = outcomes[0];
  arbitration_.outcome2 = outcomes[1];
  arbiter_.select(words.first(n), words.last(n), arbitration_);
  note_decode_result(arbitration_.has_output());
  return read_result();
}

DamageSummary DuplexSystem::damage(unsigned module_index) const {
  if (!stored_) {
    throw std::logic_error("DuplexSystem::damage: nothing stored");
  }
  if (module_index > 1) {
    throw std::invalid_argument("DuplexSystem::damage: module must be 0 or 1");
  }
  const MemoryModule& module = module_index == 0 ? module1_ : module2_;
  DamageSummary summary;
  const std::vector<Element> word = module.read();
  for (unsigned p = 0; p < code_->n(); ++p) {
    if (module.symbol_has_detected_fault(p)) {
      ++summary.erased;
    } else if (word[p] != stored_codeword_[p]) {
      ++summary.corrupted;
    }
  }
  return summary;
}

DuplexSystem::PairClassification DuplexSystem::classify_pairs() const {
  PairClassification c;
  const std::vector<Element> w1 = module1_.read();
  const std::vector<Element> w2 = module2_.read();
  for (unsigned p = 0; p < code_->n(); ++p) {
    const bool er1 = module1_.symbol_has_stuck_bit(p);
    const bool er2 = module2_.symbol_has_stuck_bit(p);
    const bool err1 = !er1 && w1[p] != stored_codeword_[p];
    const bool err2 = !er2 && w2[p] != stored_codeword_[p];
    if (er1 && er2) {
      ++c.x;
    } else if (er1 || er2) {
      // One side erased; does the OTHER side carry a random error?
      const bool other_err = er1 ? err2 : err1;
      if (other_err) {
        ++c.b;
      } else {
        ++c.y;
      }
    } else if (err1 && err2) {
      ++c.ec;
    } else if (err1) {
      ++c.e1;
    } else if (err2) {
      ++c.e2;
    }
  }
  return c;
}

}  // namespace rsmem::memory

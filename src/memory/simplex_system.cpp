#include "memory/simplex_system.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rsmem::memory {

std::shared_ptr<const rs::ReedSolomon> resolve_code(
    const std::shared_ptr<const rs::ReedSolomon>& shared,
    const rs::CodeParams& params, const char* who) {
  if (!shared) return std::make_shared<const rs::ReedSolomon>(params);
  if (shared->n() != params.n || shared->k() != params.k ||
      shared->m() != params.m || shared->fcr() != params.fcr) {
    throw std::invalid_argument(std::string(who) +
                                ": shared_code parameters do not match code");
  }
  return shared;
}

SimplexSystem::SimplexSystem(const SimplexSystemConfig& config)
    : config_(config),
      code_(resolve_code(config.shared_code, config.code, "SimplexSystem")),
      module_(config.code.n, config.code.m),
      word_scratch_(config.code.n, 0) {
  erasure_scratch_.reserve(config.code.n);
  const sim::Rng root{config.seed};
  injector_ = std::make_unique<FaultInjector>(config.rates, root.split(1),
                                              queue_, module_);
  if (config.scrub_policy != ScrubPolicy::kNone) {
    scrubber_.emplace(config.scrub_policy, config.scrub_period_hours,
                      root.split(2));
  }
}

void SimplexSystem::store(std::span<const Element> data) {
  if (stored_) {
    throw std::logic_error("SimplexSystem::store: already stored");
  }
  stored_data_.assign(data.begin(), data.end());
  stored_codeword_.assign(code_->n(), 0);
  code_->encode(stored_data_, stored_codeword_);
  commit_store();
}

void SimplexSystem::store_encoded(std::span<const Element> data,
                                  std::span<const Element> codeword) {
  if (stored_) {
    throw std::logic_error("SimplexSystem::store_encoded: already stored");
  }
  if (data.size() != code_->k() || codeword.size() != code_->n()) {
    throw std::invalid_argument(
        "SimplexSystem::store_encoded: data/codeword size mismatch");
  }
  stored_data_.assign(data.begin(), data.end());
  stored_codeword_.assign(codeword.begin(), codeword.end());
  commit_store();
}

void SimplexSystem::commit_store() {
  module_.write(stored_codeword_);
  stored_ = true;
  injector_->start();
  if (scrubber_) scrubber_->arm(queue_, [this] { scrub(); });
}

void SimplexSystem::scrub() {
  if (scrub_suspended_ || retired_) {
    ++stats_.scrubs_skipped;
    return;
  }
  ++stats_.scrubs_attempted;
  module_.read_into(word_scratch_);
  module_.detected_erasures_into(erasure_scratch_);
  const rs::DecodeOutcome outcome =
      decode_with_recovery(word_scratch_, erasure_scratch_);
  if (!outcome.ok()) {
    // Unrecoverable content: scrubbing cannot help (the chain's Fail).
    ++stats_.scrub_failures;
    return;
  }
  module_.write(word_scratch_);  // rewrite the corrected codeword
  if (!std::equal(word_scratch_.begin(), word_scratch_.end(),
                  stored_codeword_.begin())) {
    // The decoder "corrected" to a wrong codeword and the scrub latched it.
    ++stats_.scrub_miscorrections;
  }
}

void SimplexSystem::inject_bit_flip(unsigned symbol, unsigned bit) {
  module_.flip_bit(symbol, bit);
}

void SimplexSystem::inject_stuck_bit(unsigned symbol, unsigned bit, bool level,
                                     bool detected) {
  module_.stick_bit(symbol, bit, level, detected);
}

void SimplexSystem::advance_to(double t_hours) {
  if (!stored_) {
    throw std::logic_error("SimplexSystem::advance_to: nothing stored");
  }
  queue_.run_until(t_hours);
  stats_.seu_injected = injector_->seu_injected();
  stats_.permanent_injected = injector_->permanent_injected();
}

rs::DecodeOutcome SimplexSystem::decode_with_recovery(
    std::span<Element> word, std::vector<unsigned>& erasures) const {
  rs::DecodeOutcome outcome = code_->decode(word, erasures);
  const DegradationPolicy& policy = config_.degradation;
  if (!outcome.ok() && policy.retry_with_detection) {
    // Rung 1: trigger the module self-test; located stuck bits become
    // erasures (1x capability) instead of random errors (2x).
    for (unsigned attempt = 0; attempt < policy.max_retries && !outcome.ok();
         ++attempt) {
      ++degradation_.retries_attempted;
      module_.detect_all_faults();
      module_.read_into(word);
      module_.detected_erasures_into(erasures);
      outcome = code_->decode(word, erasures);
      if (outcome.ok()) ++degradation_.retry_recoveries;
    }
  }
  if (!outcome.ok() && policy.erasure_only_fallback &&
      policy.bank_symbols > 0) {
    // Rung 2: condemn banks with enough reported stuck symbols, widening
    // the erasure set over the whole bank (covers latent stuck cells the
    // per-symbol detection has not located).
    module_.detected_erasures_into(erasures);
    const unsigned condemned = condemn_banks(module_, policy, erasures);
    if (condemned > 0 &&
        erasures.size() <= static_cast<std::size_t>(code_->parity_symbols())) {
      degradation_.banks_condemned += condemned;
      ++degradation_.erasure_only_decodes;
      module_.read_into(word);
      outcome = code_->decode(word, erasures);
      if (outcome.ok()) ++degradation_.erasure_only_recoveries;
    }
  }
  note_decode_result(outcome.ok());
  return outcome;
}

void SimplexSystem::note_decode_result(bool ok) const {
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

ReadResult SimplexSystem::read() const {
  if (!stored_) {
    throw std::logic_error("SimplexSystem::read: nothing stored");
  }
  if (retired_) {
    ++degradation_.reads_in_degraded_mode;
    return {};  // success=false: the word was retired (DegradedMode)
  }
  module_.read_into(word_scratch_);
  module_.detected_erasures_into(erasure_scratch_);
  const rs::DecodeOutcome outcome =
      decode_with_recovery(word_scratch_, erasure_scratch_);
  return read_result(word_scratch_, outcome);
}

ReadResult SimplexSystem::read_result(std::span<const Element> word,
                                      const rs::DecodeOutcome& outcome) const {
  ReadResult result;
  result.outcome = outcome;
  result.success = outcome.ok();
  if (result.success) {
    result.data = code_->extract_data(word);
    result.data_correct =
        std::equal(result.data.begin(), result.data.end(),
                   stored_data_.begin(), stored_data_.end());
  }
  return result;
}

bool SimplexSystem::supports_batched_read() const {
  return stored_ && !retired_ && !config_.degradation.any_enabled();
}

void SimplexSystem::check_batched_read(const char* who) const {
  if (!supports_batched_read()) {
    throw std::logic_error(std::string(who) +
                           ": batched read unsupported (need stored data, "
                           "inert degradation policy)");
  }
}

void SimplexSystem::read_into_plane(std::span<Element> words,
                                    std::span<std::uint8_t> flags) const {
  check_batched_read("SimplexSystem::read_into_plane");
  module_.read_into_plane(words, flags);
}

ReadResult SimplexSystem::finish_batched_read(
    std::span<const Element> words,
    std::span<const rs::DecodeOutcome> outcomes) const {
  check_batched_read("SimplexSystem::finish_batched_read");
  if (words.size() != code_->n() || outcomes.size() != kPlaneWords) {
    throw std::invalid_argument(
        "SimplexSystem::finish_batched_read: need n symbols, 1 outcome");
  }
  // With an inert degradation policy decode_with_recovery is exactly
  // {decode, note_decode_result}, and the decode already happened.
  note_decode_result(outcomes[0].ok());
  return read_result(words, outcomes[0]);
}

DamageSummary SimplexSystem::damage() const {
  if (!stored_) {
    throw std::logic_error("SimplexSystem::damage: nothing stored");
  }
  DamageSummary summary;
  const std::vector<Element> word = module_.read();
  for (unsigned p = 0; p < code_->n(); ++p) {
    if (module_.symbol_has_detected_fault(p)) {
      ++summary.erased;
    } else if (word[p] != stored_codeword_[p]) {
      ++summary.corrupted;
    }
  }
  return summary;
}

}  // namespace rsmem::memory

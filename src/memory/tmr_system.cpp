#include "memory/tmr_system.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rsmem::memory {

TmrSystem::TmrSystem(const TmrSystemConfig& config) : config_(config) {
  if (config.word_symbols == 0 || config.m == 0 || config.m > 16) {
    throw std::invalid_argument("TmrSystem: bad word geometry");
  }
  const sim::Rng root{config.seed};
  for (unsigned i = 0; i < 3; ++i) {
    modules_[i] =
        std::make_unique<MemoryModule>(config.word_symbols, config.m);
    injectors_[i] = std::make_unique<FaultInjector>(
        config.rates, root.split(i + 1), queue_, *modules_[i]);
  }
  if (config.scrub_policy != ScrubPolicy::kNone) {
    scrubber_.emplace(config.scrub_policy, config.scrub_period_hours,
                      root.split(7));
  }
}

void TmrSystem::store(std::span<const Element> data) {
  if (stored_) throw std::logic_error("TmrSystem::store: already stored");
  if (data.size() != config_.word_symbols) {
    throw std::invalid_argument("TmrSystem::store: size mismatch");
  }
  stored_data_.assign(data.begin(), data.end());
  for (auto& module : modules_) module->write(stored_data_);
  stored_ = true;
  for (auto& injector : injectors_) injector->start();
  if (scrubber_) scrubber_->arm(queue_, [this] { scrub(); });
}

std::vector<Element> TmrSystem::vote() const {
  const std::vector<Element> a = modules_[0]->read();
  const std::vector<Element> b = modules_[1]->read();
  const std::vector<Element> c = modules_[2]->read();
  std::vector<Element> out(config_.word_symbols);
  for (unsigned i = 0; i < config_.word_symbols; ++i) {
    // Bitwise majority: maj(a,b,c) = ab | bc | ca.
    out[i] = (a[i] & b[i]) | (b[i] & c[i]) | (c[i] & a[i]);
  }
  return out;
}

void TmrSystem::inject_bit_flip(unsigned module_index, unsigned symbol,
                                unsigned bit) {
  if (module_index > 2) {
    throw std::invalid_argument(
        "TmrSystem::inject_bit_flip: module must be 0..2");
  }
  modules_[module_index]->flip_bit(symbol, bit);
}

void TmrSystem::inject_stuck_bit(unsigned module_index, unsigned symbol,
                                 unsigned bit, bool level, bool detected) {
  if (module_index > 2) {
    throw std::invalid_argument(
        "TmrSystem::inject_stuck_bit: module must be 0..2");
  }
  modules_[module_index]->stick_bit(symbol, bit, level, detected);
}

void TmrSystem::scrub() {
  if (scrub_suspended_) {
    ++stats_.scrubs_skipped;
    return;
  }
  ++stats_.scrubs_attempted;
  const std::vector<Element> voted = vote();
  for (auto& module : modules_) module->write(voted);
  if (!std::equal(voted.begin(), voted.end(), stored_data_.begin())) {
    // The voter itself was wrong: the scrub latched corrupted data into all
    // three copies (TMR's equivalent of a mis-correction).
    ++stats_.scrub_miscorrections;
  }
}

void TmrSystem::advance_to(double t_hours) {
  if (!stored_) throw std::logic_error("TmrSystem::advance_to: no data");
  queue_.run_until(t_hours);
  stats_.seu_injected = 0;
  stats_.permanent_injected = 0;
  for (const auto& injector : injectors_) {
    stats_.seu_injected += injector->seu_injected();
    stats_.permanent_injected += injector->permanent_injected();
  }
}

ReadResult TmrSystem::read() const {
  if (!stored_) throw std::logic_error("TmrSystem::read: no data");
  ReadResult result;
  result.success = true;  // the voter always produces an output
  result.data = vote();
  result.data_correct = std::equal(result.data.begin(), result.data.end(),
                                   stored_data_.begin());
  return result;
}

unsigned TmrSystem::corrupted_voted_bits() const {
  const std::vector<Element> voted = vote();
  unsigned bits = 0;
  for (unsigned i = 0; i < config_.word_symbols; ++i) {
    bits += static_cast<unsigned>(
        std::popcount(voted[i] ^ stored_data_[i]));
  }
  return bits;
}

}  // namespace rsmem::memory

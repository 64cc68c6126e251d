#include "memory/memory_module.h"

#include <algorithm>
#include <stdexcept>

namespace rsmem::memory {

MemoryModule::MemoryModule(unsigned n, unsigned m)
    : n_(n),
      m_(m),
      value_(n, 0),
      stuck_mask_(n, 0),
      stuck_level_(n, 0),
      detected_mask_(n, 0) {
  if (n == 0 || m == 0 || m > 16) {
    throw std::invalid_argument("MemoryModule: require n > 0, 0 < m <= 16");
  }
}

void MemoryModule::check_position(unsigned symbol, unsigned bit) const {
  if (symbol >= n_ || bit >= m_) {
    throw std::invalid_argument("MemoryModule: position out of range");
  }
}

void MemoryModule::write(std::span<const Element> symbols) {
  if (symbols.size() != n_) {
    throw std::invalid_argument("MemoryModule::write: size mismatch");
  }
  Element wide = 0;
  for (const Element value : symbols) wide |= value;
  if (wide >> m_) {
    throw std::invalid_argument("MemoryModule::write: value too wide");
  }
  std::uint64_t changed = 0;
  for (unsigned i = 0; i < n_; ++i) {
    changed += value_[i] != symbols[i];
    value_[i] = symbols[i];
  }
  generation_ += changed;
}

void MemoryModule::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(stuck_mask_.begin(), stuck_mask_.end(), 0);
  std::fill(stuck_level_.begin(), stuck_level_.end(), 0);
  std::fill(detected_mask_.begin(), detected_mask_.end(), 0);
  generation_ = 0;
}

void MemoryModule::write_symbol(unsigned symbol, Element value) {
  check_position(symbol, 0);
  if (value >> m_) {
    throw std::invalid_argument("MemoryModule::write_symbol: value too wide");
  }
  if (value_[symbol] == value) return;
  value_[symbol] = value;
  ++generation_;
}

std::vector<Element> MemoryModule::read() const {
  std::vector<Element> out(n_);
  read_into(out);
  return out;
}

void MemoryModule::read_into(std::span<Element> out) const {
  if (out.size() != n_) {
    throw std::invalid_argument("MemoryModule::read_into: size mismatch");
  }
  for (unsigned i = 0; i < n_; ++i) {
    out[i] = (value_[i] & ~stuck_mask_[i]) | (stuck_level_[i] & stuck_mask_[i]);
  }
}

void MemoryModule::read_into_plane(std::span<Element> word,
                                   std::span<std::uint8_t> erasure_flags) const {
  if (word.size() != n_ || erasure_flags.size() != n_) {
    throw std::invalid_argument("MemoryModule::read_into_plane: size mismatch");
  }
  for (unsigned i = 0; i < n_; ++i) {
    word[i] =
        (value_[i] & ~stuck_mask_[i]) | (stuck_level_[i] & stuck_mask_[i]);
    erasure_flags[i] = detected_mask_[i] != 0 ? 1 : 0;
  }
}

Element MemoryModule::read_symbol(unsigned symbol) const {
  check_position(symbol, 0);
  return (value_[symbol] & ~stuck_mask_[symbol]) |
         (stuck_level_[symbol] & stuck_mask_[symbol]);
}

bool MemoryModule::reads_back_outside_erasures(
    std::span<const Element> word) const {
  if (word.size() != n_) {
    throw std::invalid_argument(
        "MemoryModule::reads_back_outside_erasures: size mismatch");
  }
  // Branch-free: the answer is nearly always true, so every symbol is read.
  Element mismatch = 0;
  for (unsigned i = 0; i < n_; ++i) {
    const Element read =
        (value_[i] & ~stuck_mask_[i]) | (stuck_level_[i] & stuck_mask_[i]);
    const Element compared = detected_mask_[i] != 0 ? 0 : ~Element{0};
    mismatch |= (read ^ word[i]) & compared;
  }
  return mismatch == 0;
}

void MemoryModule::flip_bit(unsigned symbol, unsigned bit) {
  check_position(symbol, bit);
  value_[symbol] ^= (Element{1} << bit);
  ++generation_;
}

void MemoryModule::stick_bit(unsigned symbol, unsigned bit, bool level,
                             bool detected) {
  check_position(symbol, bit);
  const Element mask = Element{1} << bit;
  stuck_mask_[symbol] |= mask;
  if (level) {
    stuck_level_[symbol] |= mask;
  } else {
    stuck_level_[symbol] &= ~mask;
  }
  if (detected) detected_mask_[symbol] |= mask;
  ++generation_;
}

void MemoryModule::detect_all_faults() {
  for (unsigned i = 0; i < n_; ++i) detected_mask_[i] = stuck_mask_[i];
  ++generation_;
}

bool MemoryModule::symbol_has_stuck_bit(unsigned symbol) const {
  check_position(symbol, 0);
  return stuck_mask_[symbol] != 0;
}

bool MemoryModule::symbol_has_detected_fault(unsigned symbol) const {
  check_position(symbol, 0);
  return detected_mask_[symbol] != 0;
}

std::vector<unsigned> MemoryModule::detected_erasures() const {
  std::vector<unsigned> out;
  detected_erasures_into(out);
  return out;
}

void MemoryModule::detected_erasures_into(std::vector<unsigned>& out) const {
  out.clear();
  for (unsigned i = 0; i < n_; ++i) {
    if (detected_mask_[i] != 0) out.push_back(i);
  }
}

std::vector<unsigned> MemoryModule::stuck_symbols() const {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < n_; ++i) {
    if (stuck_mask_[i] != 0) out.push_back(i);
  }
  return out;
}

unsigned MemoryModule::stuck_bit_count() const {
  unsigned count = 0;
  for (unsigned i = 0; i < n_; ++i) {
    count += static_cast<unsigned>(__builtin_popcount(stuck_mask_[i]));
  }
  return count;
}

}  // namespace rsmem::memory

// A physical memory module holding one RS codeword as real bits.
//
// Models the storage cells of one word of a COTS memory device:
//  * SEUs flip the stored value of a single bit (transient fault),
//  * permanent faults stick a bit at 0 or 1 (stuck-at fault).
// Reads return the stored value with stuck bits forced to their stuck
// level. Per the paper's assumption, permanent faults are located by
// self-checking hardware: symbols containing at least one *detected* stuck
// bit are reported as erasures to the decoder. Detection can be delayed
// (detection_latency knob on the fault injector) to ablate that assumption.
#ifndef RSMEM_MEMORY_MEMORY_MODULE_H
#define RSMEM_MEMORY_MEMORY_MODULE_H

#include <cstdint>
#include <span>
#include <vector>

#include "gf/galois_field.h"

namespace rsmem::memory {

using gf::Element;

class MemoryModule {
 public:
  // A module of n symbols of m bits each (one codeword slice).
  MemoryModule(unsigned n, unsigned m);

  unsigned n() const { return n_; }
  unsigned m() const { return m_; }

  // Writes symbol values. Stuck bits keep their stuck level regardless of
  // the written value. Throws std::invalid_argument on size/value mismatch;
  // a word with a value too wide for m bits is rejected whole, before any
  // symbol is written. A write that leaves a symbol's stored value
  // unchanged is not a state change (the generation stays put); write()
  // advances the generation once per symbol it changes.
  void write(std::span<const Element> symbols);
  void write_symbol(unsigned symbol, Element value);

  // Returns the module to its constructed state (every cell 0, no stuck
  // bit, generation 0), keeping its buffers.
  void reset();

  // Reads all symbols, with stuck bits masked in.
  std::vector<Element> read() const;
  // Allocation-free variant for hot simulation loops: out.size() must be n.
  void read_into(std::span<Element> out) const;
  // Batched-read gather: one pass filling the symbol values (as read_into)
  // and a per-symbol erasure indicator (1 where the symbol has a *detected*
  // permanent fault — the positions detected_erasures_into would list).
  // Both spans must have size n. The flag layout is exactly what
  // rs::ReedSolomon::decode_batch takes as erasure_flags, so a campaign can
  // gather many modules into one word/flag plane pair.
  void read_into_plane(std::span<Element> word,
                       std::span<std::uint8_t> erasure_flags) const;
  Element read_symbol(unsigned symbol) const;
  // True when the module reads back `word` (size n) at every symbol
  // without a detected permanent fault; erased symbols are not compared.
  // Allocation-free.
  bool reads_back_outside_erasures(std::span<const Element> word) const;

  // Transient fault: inverts the stored value of one bit. A flip on a stuck
  // bit has no observable effect (the cell output is forced).
  void flip_bit(unsigned symbol, unsigned bit);

  // Permanent fault: bit becomes stuck at `level` from now on.
  // `detected` marks whether the self-checking hardware has located it.
  void stick_bit(unsigned symbol, unsigned bit, bool level, bool detected);
  // Marks every stuck bit of the module as detected (used by deferred
  // detection: on-line test pass).
  void detect_all_faults();

  bool symbol_has_stuck_bit(unsigned symbol) const;
  bool symbol_has_detected_fault(unsigned symbol) const;

  // Positions of symbols with at least one *detected* permanent fault --
  // exactly the erasure information available to the decoder/arbiter.
  std::vector<unsigned> detected_erasures() const;
  // Allocation-free variant: clears `out` and refills it (capacity reused).
  void detected_erasures_into(std::vector<unsigned>& out) const;
  // Ground-truth stuck symbols (detected or not), for instrumentation.
  std::vector<unsigned> stuck_symbols() const;

  unsigned stuck_bit_count() const;

  // Advances on every state change: flip_bit, stick_bit, detect_all_faults
  // and each symbol a write or write_symbol changes; reset() returns it to
  // 0 with the rest of the module. An owner that kept
  // the generation of its last read can tell, without re-reading, that the
  // module still reads back exactly the same values and erasure flags.
  std::uint64_t generation() const { return generation_; }

 private:
  void check_position(unsigned symbol, unsigned bit) const;

  unsigned n_;
  unsigned m_;
  std::vector<Element> value_;           // written bits
  std::vector<Element> stuck_mask_;      // 1 = cell is stuck
  std::vector<Element> stuck_level_;     // stuck-at level where mask is 1
  std::vector<Element> detected_mask_;   // subset of stuck_mask_ located
  std::uint64_t generation_ = 0;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_MEMORY_MODULE_H

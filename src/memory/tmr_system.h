// Triple Modular Redundancy baseline: three UNCODED module copies with a
// bitwise majority voter.
//
// The classic alternative to EDAC coding for memories. Stores the raw
// k-symbol dataword in three modules; every read votes each bit; scrubbing
// (optional) rewrites the voted word into all three modules, re-converging
// diverged copies. The voter, like the paper's arbiter, is a hard core.
// Storage overhead is 3.0x -- compare with 2.25x for the duplex RS(18,16)
// or the simplex RS(36,16) (bench_tmr_baseline).
#ifndef RSMEM_MEMORY_TMR_SYSTEM_H
#define RSMEM_MEMORY_TMR_SYSTEM_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "memory/fault_injector.h"
#include "memory/memory_module.h"
#include "memory/scrubber.h"
#include "memory/simplex_system.h"  // ReadResult, SystemStats
#include "sim/event_queue.h"

namespace rsmem::memory {

struct TmrSystemConfig {
  unsigned word_symbols = 16;  // k
  unsigned m = 8;              // bits per symbol
  FaultRates rates;            // applied independently to each module
  ScrubPolicy scrub_policy = ScrubPolicy::kNone;
  double scrub_period_hours = 0.0;
  std::uint64_t seed = 1;
};

class TmrSystem {
 public:
  explicit TmrSystem(const TmrSystemConfig& config);

  double now_hours() const { return queue_.now(); }
  const SystemStats& stats() const { return stats_; }

  void store(std::span<const Element> data);
  void advance_to(double t_hours);

  // Bitwise-majority read; always produces an output (success is always
  // true), correctness is the interesting bit.
  ReadResult read() const;

  // Instrumentation: number of bit positions where >= 2 modules disagree
  // with the stored data (i.e. the voter is currently wrong).
  unsigned corrupted_voted_bits() const;

  // --- Robustness / fault-injection surface --------------------------------
  // Scripted fault injection (analysis/fault_campaign.h): damages one of
  // the three copies directly, bypassing the Poisson streams.
  void inject_bit_flip(unsigned module_index, unsigned symbol, unsigned bit);
  void inject_stuck_bit(unsigned module_index, unsigned symbol, unsigned bit,
                        bool level, bool detected);
  // Scrub stall window: due scrub passes are skipped while suspended.
  void suspend_scrubbing() { scrub_suspended_ = true; }
  void resume_scrubbing() { scrub_suspended_ = false; }
  bool scrub_suspended() const { return scrub_suspended_; }

 private:
  std::vector<Element> vote() const;
  void scrub();

  TmrSystemConfig config_;
  sim::EventQueue queue_;
  std::array<std::unique_ptr<MemoryModule>, 3> modules_;
  std::array<std::unique_ptr<FaultInjector>, 3> injectors_;
  std::optional<Scrubber> scrubber_;
  std::vector<Element> stored_data_;
  bool stored_ = false;
  SystemStats stats_;
  bool scrub_suspended_ = false;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_TMR_SYSTEM_H

// Graceful-degradation policies for the functional memory systems.
//
// The paper's systems degrade by design: the arbiter masks one-sided
// erasures, the duplex pair outvotes a mis-correcting decoder, scrubbing
// purges accumulated transients. This header adds the CONTROLLER-side
// escalation chain that real storage systems layer on top of the code:
//
//   rung 1  retry with on-line detection: after a failed decode/arbitration
//           the controller triggers the module self-test (locating every
//           stuck bit) and retries -- undetected stuck bits cost 2x as
//           random errors, located ones cost 1x as erasures;
//   rung 2  erasure-only bank fallback: a bank reporting >= threshold stuck
//           symbols is condemned and ALL its symbols are handed to the
//           decoder as erasures, covering latent faults the per-symbol
//           detection has not reported yet;
//   rung 3  duplex -> simplex demotion: a module whose detected-erasure
//           count reaches n-k+1 (it can never again produce a
//           decodable word alone) is declared dead
//           and the pair continues simplex on the survivor;
//   rung 4  retirement: after K consecutive unrecovered failures the word
//           is retired -- reads report DegradedMode instead of risking a
//           mis-correction being consumed downstream.
//
// Every feature defaults OFF, and every rung engages only after the normal
// path has already failed, so a default policy leaves system behaviour and
// outputs bit-identical to a build without this layer.
#ifndef RSMEM_MEMORY_DEGRADATION_H
#define RSMEM_MEMORY_DEGRADATION_H

#include <cstdint>
#include <vector>

namespace rsmem::memory {

class MemoryModule;

struct DegradationPolicy {
  // Rung 1: on a failed decode (simplex) or arbitration (duplex), run the
  // module self-test (MemoryModule::detect_all_faults) and retry, up to
  // max_retries times. Models the controller-triggered on-line test; the
  // "backoff" between attempts is the test latency, instantaneous in the
  // discrete-event clock.
  bool retry_with_detection = false;
  unsigned max_retries = 1;

  // Rung 2: treat any bank with >= bank_stuck_threshold detected-stuck
  // symbols as wholly erased before retrying the decode. Banks are
  // bank_symbols adjacent codeword symbols (symbol p lives in bank
  // p / bank_symbols); 0 disables the fallback even if the flag is set.
  bool erasure_only_fallback = false;
  unsigned bank_symbols = 0;
  unsigned bank_stuck_threshold = 1;

  // Rung 3 (duplex): demote the pair to simplex when one module reports
  // at least n - k + 1 erased symbols (the point where the module alone is
  // beyond any decode).
  bool demote_on_dead_module = false;

  // Rung 4: retire the word after this many CONSECUTIVE unrecovered
  // failures (0 = never retire). A retired system stops decoding and
  // reports degraded-mode reads instead.
  unsigned retire_after_failures = 0;

  // True when any rung is enabled.
  bool any_enabled() const {
    return retry_with_detection || (erasure_only_fallback && bank_symbols > 0) ||
           demote_on_dead_module || retire_after_failures > 0;
  }
};

// Per-system counters, one increment per policy action. The fault-injection
// campaign cross-checks these against its scripted fault counts.
struct DegradationCounters {
  std::uint64_t retries_attempted = 0;    // rung-1 decode retries
  std::uint64_t retry_recoveries = 0;     // ... that produced an output
  std::uint64_t banks_condemned = 0;      // rung-2 banks widened to erasures
  std::uint64_t erasure_only_decodes = 0; // rung-2 widened decode attempts
  std::uint64_t erasure_only_recoveries = 0;
  std::uint64_t demotions = 0;            // rung-3 duplex -> simplex
  std::uint64_t words_retired = 0;        // rung-4 transitions to retired
  std::uint64_t reads_in_degraded_mode = 0;  // reads while demoted/retired
  std::uint64_t unrecovered_failures = 0; // failures no rung could absorb

  bool any_engaged() const {
    return retries_attempted > 0 || banks_condemned > 0 ||
           erasure_only_decodes > 0 || demotions > 0 || words_retired > 0 ||
           reads_in_degraded_mode > 0;
  }

  void merge_from(const DegradationCounters& other) {
    retries_attempted += other.retries_attempted;
    retry_recoveries += other.retry_recoveries;
    banks_condemned += other.banks_condemned;
    erasure_only_decodes += other.erasure_only_decodes;
    erasure_only_recoveries += other.erasure_only_recoveries;
    demotions += other.demotions;
    words_retired += other.words_retired;
    reads_in_degraded_mode += other.reads_in_degraded_mode;
    unrecovered_failures += other.unrecovered_failures;
  }
};

// Rung-2 helper shared by the simplex and duplex recovery paths: widens
// `erasures` (the module's detected-erasure positions) with EVERY symbol of
// each bank containing >= policy.bank_stuck_threshold detected-stuck
// symbols. Returns the number of banks actually widened; `erasures` stays
// sorted and duplicate-free. No-op when the fallback is disabled.
unsigned condemn_banks(const MemoryModule& module,
                       const DegradationPolicy& policy,
                       std::vector<unsigned>& erasures);

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_DEGRADATION_H

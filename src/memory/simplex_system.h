// Functional simulation of the SIMPLEX RS-coded memory system.
//
// One module stores one RS(n,k) codeword of real bits; faults arrive by
// Poisson injection; scrubbing periodically read-corrects-rewrites the word
// (the scrub pass is the event queue's tick, armed by Scrubber::arm).
// Reads run the actual decoder, so every behaviour the Markov chain
// abstracts (including decoder mis-correction) happens for real here.
#ifndef RSMEM_MEMORY_SIMPLEX_SYSTEM_H
#define RSMEM_MEMORY_SIMPLEX_SYSTEM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "memory/degradation.h"
#include "memory/fault_injector.h"
#include "memory/memory_module.h"
#include "memory/scrubber.h"
#include "rs/reed_solomon.h"
#include "sim/event_queue.h"

namespace rsmem::memory {

struct ReadResult {
  bool success = false;       // the system produced an output word
  bool data_correct = false;  // ... and it matches the stored data
  std::vector<Element> data;  // decoded data symbols (k), empty on failure
  rs::DecodeOutcome outcome;  // decoder detail (simplex) / word-1 detail
};

// Ground-truth damage of one module at the current instant, classified
// against the stored codeword: `erased` counts symbols the module reports
// as erasures (detected permanent faults); `corrupted` counts the OTHER
// symbols whose read value differs from the stored codeword (SEU damage
// plus undetected stuck bits). The word is guaranteed recoverable while
// erased + 2*corrupted <= n - k.
struct DamageSummary {
  unsigned erased = 0;
  unsigned corrupted = 0;
};

struct SystemStats {
  unsigned seu_injected = 0;
  unsigned permanent_injected = 0;
  unsigned scrubs_attempted = 0;
  unsigned scrub_failures = 0;        // scrub found an unrecoverable word
  unsigned scrub_miscorrections = 0;  // scrub silently rewrote wrong data
  unsigned scrubs_skipped = 0;        // suspended (stall window) or retired
  // Attempted scrubs that found the modules unchanged since the last
  // arbitrated pass (or since its clean rewrite) and replayed its verdict
  // without decoding (duplex only; see DuplexSystem).
  unsigned scrubs_replayed = 0;
};

struct SimplexSystemConfig {
  rs::CodeParams code{18, 16, 8, 1};
  FaultRates rates;
  ScrubPolicy scrub_policy = ScrubPolicy::kNone;
  double scrub_period_hours = 0.0;
  std::uint64_t seed = 1;
  // Optional codec sharing for campaign workers: when set, the system uses
  // this codec instead of constructing its own (parameters must match
  // `code`; mismatch throws). Saves the per-trial field/generator build.
  std::shared_ptr<const rs::ReedSolomon> shared_code;
  // Graceful-degradation escalation chain (memory/degradation.h). All
  // features default off; rungs only engage after a decode has failed, so
  // the default policy leaves every output bit-identical.
  DegradationPolicy degradation;
};

// The codec a system runs: `shared` when set (its parameters must match
// `params`; std::invalid_argument naming `who` otherwise), else a new one.
std::shared_ptr<const rs::ReedSolomon> resolve_code(
    const std::shared_ptr<const rs::ReedSolomon>& shared,
    const rs::CodeParams& params, const char* who);

class SimplexSystem {
 public:
  explicit SimplexSystem(const SimplexSystemConfig& config);

  // Starts a new life with `seed` in place of config.seed: the state the
  // constructor gives for that seed (module cells and generation at 0, no
  // pending event or armed scrub tick, fault and scrub streams re-seeded,
  // nothing stored, stats and degradation state cleared, scrubbing
  // resumed), keeping every buffer. A campaign reuses one system per slot
  // this way instead of building one per trial. The constructor calls it,
  // so per-trial state is set here and only here.
  void reset(std::uint64_t seed);

  const rs::ReedSolomon& code() const { return *code_; }
  double now_hours() const { return queue_.now(); }
  const SystemStats& stats() const { return stats_; }

  // Encodes and stores `data` (k symbols). Must be called before advancing.
  void store(std::span<const Element> data);

  // Batched-store half: stores `data` (k symbols) whose `codeword` (n
  // symbols) was already encoded externally — the campaign batch path
  // encodes whole trial planes with rs::encode_batch (bit-identical per
  // word to encode()) and hands each system its slot. The caller guarantees
  // codeword == encode(data); observable behaviour is identical to
  // store(data).
  void store_encoded(std::span<const Element> data,
                     std::span<const Element> codeword);

  // Advances simulated time, processing fault arrivals and scrub passes.
  void advance_to(double t_hours);

  // Decodes the current memory content (non-destructive).
  ReadResult read() const;

  // --- Batched read surface (campaign gather/scatter) ----------------------
  // SimplexSystem and DuplexSystem share this shape, so one campaign loop
  // drives both (analysis/monte_carlo.cpp). A read is kPlaneWords decoded
  // words: read_into_plane gathers them into a caller's word/flag plane
  // slot (kPlaneWords * n symbols, in decode_batch's erasure_flags layout),
  // one rs::decode_batch call decodes many systems' slots, and
  // finish_batched_read takes the decoded words back with their
  // kPlaneWords outcomes. The split read is bit-identical to read()
  // whenever supports_batched_read() holds; both calls throw
  // std::logic_error when it does not.
  static constexpr unsigned kPlaneWords = 1;
  // True when read() reduces to exactly {gather, one decode, finish}: data
  // stored, not retired, and every degradation rung disabled (the rungs
  // re-read the module mid-decode, which cannot be batched).
  bool supports_batched_read() const;
  // The raw module read and its detected-erasure flags (spans of size n).
  void read_into_plane(std::span<Element> words,
                       std::span<std::uint8_t> flags) const;
  // The decoded word (size n) and its outcome: read()'s failure counting
  // and result.
  ReadResult finish_batched_read(
      std::span<const Element> words,
      std::span<const rs::DecodeOutcome> outcomes) const;

  // Ground-truth damage versus the stored codeword (instrumentation).
  DamageSummary damage() const;

  // --- Robustness / fault-injection surface --------------------------------
  // Scripted fault injection for adversarial campaigns (analysis/
  // fault_campaign.h): bypasses the Poisson streams and damages the module
  // directly, deterministically.
  void inject_bit_flip(unsigned symbol, unsigned bit);
  void inject_stuck_bit(unsigned symbol, unsigned bit, bool level,
                        bool detected);
  // Scrub stall window: while suspended, due scrub passes are skipped
  // (counted in stats().scrubs_skipped) but stay scheduled.
  void suspend_scrubbing() { scrub_suspended_ = true; }
  void resume_scrubbing() { scrub_suspended_ = false; }
  bool scrub_suspended() const { return scrub_suspended_; }
  // Degradation state (memory/degradation.h). A retired word no longer
  // decodes: read() reports failure and counts a degraded-mode read.
  const DegradationCounters& degradation() const { return degradation_; }
  bool retired() const { return retired_; }

 private:
  // Shared tail of store()/store_encoded(): write the codeword to the
  // module and start the fault/scrub processes.
  void commit_store();
  void scrub();
  // One decode plus the degradation escalation chain (retry-with-detection,
  // bank-wide erasure fallback) and the consecutive-failure/retire
  // bookkeeping. With the default policy this is exactly one decode.
  rs::DecodeOutcome decode_with_recovery(std::span<Element> word,
                                         std::vector<unsigned>& erasures) const;
  void note_decode_result(bool ok) const;
  // read()'s result for a decoded `word`, shared with finish_batched_read.
  ReadResult read_result(std::span<const Element> word,
                         const rs::DecodeOutcome& outcome) const;
  void check_batched_read(const char* who) const;

  SimplexSystemConfig config_;
  std::shared_ptr<const rs::ReedSolomon> code_;
  sim::EventQueue queue_;
  // Mutable: rung-1 recovery during a logically-const read() triggers the
  // module's self-test (detect_all_faults), which is controller-visible
  // device state, not simulation output.
  mutable MemoryModule module_;
  FaultInjector injector_;
  std::optional<Scrubber> scrubber_;
  std::vector<Element> stored_data_;      // ground truth dataword
  std::vector<Element> stored_codeword_;  // ground truth codeword
  bool stored_ = false;
  SystemStats stats_;
  // Reused read/erasure buffers so scrub passes (the hot loop of scrubbed
  // campaigns) do not allocate. Mutable: read() is logically const.
  mutable std::vector<Element> word_scratch_;
  mutable std::vector<unsigned> erasure_scratch_;
  bool scrub_suspended_ = false;
  mutable DegradationCounters degradation_;
  mutable unsigned consecutive_failures_ = 0;
  mutable bool retired_ = false;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_SIMPLEX_SYSTEM_H

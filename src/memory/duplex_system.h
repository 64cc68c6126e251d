// Functional simulation of the DUPLEX RS-coded memory system (paper Fig. 1).
//
// Two replicated modules store the same codeword; independent fault streams
// hit each copy; the arbiter performs erasure masking, dual decoding and
// flag-based selection on every read and scrub. This is the executable
// counterpart of the 6-tuple Markov chain in src/models/duplex_model.h.
//
// Scrub passes run as the event queue's tick, armed by Scrubber::arm, not
// as heap events; fault arrivals stay on the heap.
//
// Scrub replay: a scrub pass that finds both modules at the generations
// (MemoryModule::generation) the last arbitrated pass read, under an inert
// degradation policy (the supports_batched_read gate), repeats that pass's
// verdict and counters without reading, decoding or rewriting; it counts
// in SystemStats::scrubs_replayed. A pass whose rewrite leaves both
// modules reading back its output at every unflagged symbol records the
// generations after the rewrite instead, so the pass after a clean rewrite
// replays too: erasure-only decoding within n - k would restore that
// output in both words. Outputs are identical either way.
#ifndef RSMEM_MEMORY_DUPLEX_SYSTEM_H
#define RSMEM_MEMORY_DUPLEX_SYSTEM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "memory/arbiter.h"
#include "memory/fault_injector.h"
#include "memory/memory_module.h"
#include "memory/scrubber.h"
#include "memory/simplex_system.h"  // ReadResult, SystemStats
#include "rs/reed_solomon.h"
#include "sim/event_queue.h"

namespace rsmem::memory {

struct DuplexSystemConfig {
  rs::CodeParams code{18, 16, 8, 1};
  FaultRates rates;  // applied independently to each module
  ScrubPolicy scrub_policy = ScrubPolicy::kNone;
  double scrub_period_hours = 0.0;
  std::uint64_t seed = 1;
  // Optional codec sharing; see SimplexSystemConfig.
  std::shared_ptr<const rs::ReedSolomon> shared_code;
  // Graceful-degradation escalation chain (memory/degradation.h). All
  // features default off; the default policy leaves outputs bit-identical.
  DegradationPolicy degradation;
};

struct DuplexReadResult {
  ReadResult read;           // aggregate success / data / correctness
  ArbiterResult arbitration; // full arbiter detail
  bool degraded = false;     // served while demoted to simplex or retired
};

class DuplexSystem {
 public:
  explicit DuplexSystem(const DuplexSystemConfig& config);

  const rs::ReedSolomon& code() const { return *code_; }
  double now_hours() const { return queue_.now(); }
  const SystemStats& stats() const { return stats_; }

  void store(std::span<const Element> data);

  // Batched-store half: stores `data` (k symbols) with an externally
  // encoded `codeword` (n symbols, written to both modules). The campaign
  // batch path encodes whole trial planes with rs::encode_batch
  // (bit-identical per word to encode()); the caller guarantees
  // codeword == encode(data). Observable behaviour identical to store().
  void store_encoded(std::span<const Element> data,
                     std::span<const Element> codeword);

  void advance_to(double t_hours);

  DuplexReadResult read() const;

  // --- Batched read surface (campaign gather/scatter) ----------------------
  // The shape SimplexSystem documents, with two words per read:
  // read_into_plane fills module 1's word then module 2's with arbiter
  // step 1 (erasure masking) applied, both flag slots holding the pair's
  // common erasures; the external decode is step 2; finish_batched_read
  // runs step 3 (flag-based selection) and read()'s tail. Step 1's result
  // waits in arbitration_ between the two calls, so finish_batched_read
  // throws std::logic_error unless read_into_plane came just before it (a
  // read() or advance_to() in between discards the gather).
  static constexpr unsigned kPlaneWords = 2;
  // True when read() reduces to {mask, two decodes, select}: data stored,
  // not retired, not demoted, every degradation rung disabled.
  bool supports_batched_read() const;
  // Masked words and common-erasure flags (spans of size 2n).
  void read_into_plane(std::span<Element> words,
                       std::span<std::uint8_t> flags) const;
  // The two decoded words (size 2n) and their two outcomes.
  DuplexReadResult finish_batched_read(
      std::span<const Element> words,
      std::span<const rs::DecodeOutcome> outcomes) const;

  // Ground-truth damage of one module (0 or 1) versus the stored codeword.
  DamageSummary damage(unsigned module_index) const;

  // Instrumentation: classify the current symbol-pair damage into the
  // paper's 6-tuple (X, Y, b, e1, e2, ec) against the stored ground truth.
  struct PairClassification {
    unsigned x = 0, y = 0, b = 0, e1 = 0, e2 = 0, ec = 0;
  };
  PairClassification classify_pairs() const;

  // --- Robustness / fault-injection surface --------------------------------
  // Scripted fault injection (analysis/fault_campaign.h): damages module 0
  // or 1 directly, bypassing the Poisson streams.
  void inject_bit_flip(unsigned module_index, unsigned symbol, unsigned bit);
  void inject_stuck_bit(unsigned module_index, unsigned symbol, unsigned bit,
                        bool level, bool detected);
  // Scrub stall window: due scrub passes are skipped while suspended.
  void suspend_scrubbing() { scrub_suspended_ = true; }
  void resume_scrubbing() { scrub_suspended_ = false; }
  bool scrub_suspended() const { return scrub_suspended_; }
  // Degradation state. demoted() reports rung-3 duplex->simplex demotion
  // (dead_module() is then 0 or 1); retired() reports rung-4 retirement.
  const DegradationCounters& degradation() const { return degradation_; }
  bool demoted() const { return dead_module_ >= 0; }
  int dead_module() const { return dead_module_; }
  bool retired() const { return retired_; }

 private:
  // Shared tail of store()/store_encoded(): write the codeword to both
  // modules and start the fault/scrub processes.
  void commit_store();
  void scrub();
  // Full arbitration over the current module contents, on the scratch
  // planes, into arbitration_ (returned). With an active demotion, decodes
  // the survivor alone instead and synthesizes an equivalent ArbiterResult.
  const ArbiterResult& arbitrate_current() const;
  // arbitrate_current plus the degradation chain: rung-1 retry with
  // self-test, rung-3 dead-module demotion, rung-4 retire bookkeeping.
  const ArbiterResult& arbitrate_with_recovery() const;
  // Simplex decode of the surviving module, packaged into arbitration_.
  const ArbiterResult& survivor_arbiter_result() const;
  // Simplex decode of one module with its own erasure info (demotion probe).
  bool probe_decode(const MemoryModule& module, std::vector<Element>& word,
                    std::vector<unsigned>& erasures) const;
  void maybe_demote() const;
  void note_decode_result(bool ok) const;
  // read()'s result for the arbitration in arbitration_, shared with
  // finish_batched_read.
  DuplexReadResult read_result() const;

  DuplexSystemConfig config_;
  std::shared_ptr<const rs::ReedSolomon> code_;  // must precede arbiter_
  Arbiter arbiter_;
  sim::EventQueue queue_;
  // Mutable: rung-1 recovery during a logically-const read() triggers the
  // modules' self-tests (controller-visible device state).
  mutable MemoryModule module1_;
  mutable MemoryModule module2_;
  std::unique_ptr<FaultInjector> injector1_;
  std::unique_ptr<FaultInjector> injector2_;
  std::optional<Scrubber> scrubber_;
  std::vector<Element> stored_data_;
  std::vector<Element> stored_codeword_;
  bool stored_ = false;
  SystemStats stats_;
  // Reused module-read planes and arbitration result for scrub/read passes
  // (mutable: read() is logically const). Sized once at construction, so
  // steady-state arbitration never touches the heap.
  mutable std::vector<Element> word1_scratch_;
  mutable std::vector<Element> word2_scratch_;
  mutable std::vector<std::uint8_t> flags1_scratch_;
  mutable std::vector<std::uint8_t> flags2_scratch_;
  mutable std::vector<unsigned> erasures1_scratch_;
  mutable std::vector<unsigned> erasures2_scratch_;
  mutable ArbiterResult arbitration_;
  // True from read_into_plane until the finish_batched_read that uses its
  // step-1 result in arbitration_ (or until a read or advance_to).
  mutable bool gathered_ = false;
  // Scrub replay (see scrub()): the verdict of the last arbitrated scrub
  // pass and the module generations that pass read, or left after a clean
  // rewrite.
  enum class ScrubVerdict : std::uint8_t {
    kNone,  // no pass arbitrated yet
    kNoOutput,
    kOk,
    kMiscorrected,  // output written, but it differs from the stored word
  };
  ScrubVerdict last_scrub_ = ScrubVerdict::kNone;
  std::uint64_t last_scrub_gen1_ = 0;
  std::uint64_t last_scrub_gen2_ = 0;
  bool scrub_suspended_ = false;
  mutable DegradationCounters degradation_;
  mutable unsigned consecutive_failures_ = 0;
  mutable int dead_module_ = -1;  // rung 3: index of the demoted module
  mutable bool retired_ = false;
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_DUPLEX_SYSTEM_H

// Monte-Carlo estimation of the word-failure probability on the FUNCTIONAL
// memory systems (real bits, real decoder, real arbiter).
//
// Used to cross-validate the analytic Markov chains: at accelerated fault
// rates the binomial confidence interval of the simulated failure
// probability must cover the chain's P_Fail(t) (bench_mc_vs_markov, and the
// tests/test_differential_mc.cpp suite).
//
// Campaigns run on the sharded parallel engine (analysis/campaign.h). Every
// trial derives its random streams from the campaign seed and its GLOBAL
// trial index, and shard accumulators are folded in chunk order, so the
// result is bit-identical for every `threads` and `chunk_trials` setting --
// including the historical single-threaded path.
#ifndef RSMEM_ANALYSIS_MONTE_CARLO_H
#define RSMEM_ANALYSIS_MONTE_CARLO_H

#include <cstdint>
#include <functional>

#include "analysis/campaign.h"
#include "memory/duplex_system.h"
#include "memory/simplex_system.h"

namespace rsmem::analysis {

// Per-decoded-word observation of one trial, for property checks: the
// decoder's claimed corrections plus the ground-truth damage of the backing
// module at read time.
struct WordObservation {
  bool decode_ok = false;          // decoder produced a codeword
  unsigned errors_corrected = 0;   // claimed corrections outside erasures
  unsigned erasures_corrected = 0; // claimed corrections inside erasures
  unsigned erasures_supplied = 0;  // erasure positions given to the decoder
  unsigned erased_symbols = 0;     // module symbols reported as erasures
  unsigned corrupted_symbols = 0;  // non-erased symbols differing from truth
};

// Passed to MonteCarloConfig::observer once per finished trial. Simplex
// trials fill words[0]; duplex trials fill words[0] and words[1] (the two
// module decodes, post erasure-masking).
struct TrialRecord {
  std::size_t trial_index = 0;
  bool success = false;       // the system produced an output word
  bool data_correct = false;  // ... and it matched the stored data
  unsigned word_count = 1;
  WordObservation words[2];
  unsigned seu_injected = 0;
  unsigned permanent_injected = 0;
};

struct MonteCarloConfig {
  std::size_t trials = 1000;
  double t_end_hours = 48.0;
  std::uint64_t seed = 42;

  // Parallel campaign knobs (see analysis/campaign.h). Neither changes the
  // result: 0 threads = hardware concurrency.
  unsigned threads = 0;
  std::size_t chunk_trials = 1024;

  // Width of the gather/encode/decode/scatter batches inside each chunk:
  // that many trials' datawords are encoded by a single rs::encode_batch
  // call at store time, and their module reads (the systems' batched read
  // surface) are gathered into one word/flag plane and decoded by a single
  // rs::decode_batch call, so clean words exit through the plane-wide SIMD
  // syndrome screen. 0 selects the default width (64). Width 1 is the
  // per-trial read() path: the degradation path, which every campaign with
  // an enabled degradation rung takes whatever this knob says (the rungs
  // re-read a module mid-decode, which cannot be lifted into a plane), and
  // bench_mc_vs_markov's control for its batched-plane gate. Like
  // threads/chunk_trials this knob NEVER changes the result: every trial's
  // RNG streams stay keyed by its global index, and the batched decode is
  // bit-identical per word.
  std::size_t batch_trials = 0;

  // Optional per-trial hook, invoked after each trial completes. Called
  // CONCURRENTLY from shard workers in no particular order (records carry
  // their trial_index); the callee must be thread-safe.
  std::function<void(const TrialRecord&)> observer;
};

// Binomial estimate with a Wilson 95% confidence interval (well-behaved at
// p near 0, where these experiments live).
struct BinomialEstimate {
  std::size_t trials = 0;
  std::size_t failures = 0;

  double p_hat() const;
  double std_error() const;
  double wilson_low() const;
  double wilson_high() const;
  // True if `p` lies inside the Wilson 95% interval.
  bool covers(double p) const;
};

struct MonteCarloResult {
  BinomialEstimate failure;
  double mean_seu_per_trial = 0.0;
  double mean_permanent_per_trial = 0.0;
  std::uint64_t scrub_failures = 0;
  std::uint64_t scrub_miscorrections = 0;
  std::uint64_t no_output_failures = 0;     // detected (no output produced)
  std::uint64_t wrong_data_failures = 0;    // undetected (wrong data out)
};

// Per-shard accumulator for campaign runs. All fields are exact under
// merging: the counters are integers, and the fault-count sums are sums of
// small integers held in doubles (exactly representable far below 2^53),
// so merging is associative and commutative bit-for-bit.
struct MonteCarloAccumulator {
  std::size_t trials = 0;
  std::size_t failures = 0;
  double seu_sum = 0.0;
  double permanent_sum = 0.0;
  std::uint64_t scrub_failures = 0;
  std::uint64_t scrub_miscorrections = 0;
  std::uint64_t no_output_failures = 0;
  std::uint64_t wrong_data_failures = 0;

  void merge_from(const MonteCarloAccumulator& other);
  MonteCarloResult finalize() const;
};

// Runs `config.trials` independent lives of the system: store random data at
// t=0, advance to t_end, read once (the paper's "stopping time" semantics).
// A read that returns wrong data (an undetected mis-correction) counts as a
// failure, as the Markov chains count any unrecoverable pattern as Fail.
// Both arrangements run one campaign body. Optionally reports campaign
// throughput / live progress.
MonteCarloResult run_simplex_trials(const memory::SimplexSystemConfig& system,
                                    const MonteCarloConfig& config,
                                    CampaignReport* report = nullptr,
                                    CampaignProgress* progress = nullptr);
MonteCarloResult run_duplex_trials(const memory::DuplexSystemConfig& system,
                                   const MonteCarloConfig& config,
                                   CampaignReport* report = nullptr,
                                   CampaignProgress* progress = nullptr);

}  // namespace rsmem::analysis

#endif  // RSMEM_ANALYSIS_MONTE_CARLO_H

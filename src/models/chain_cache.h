// Memoization of enumerated CTMC state spaces across sweep points.
//
// A rate sweep solves the same model shape at dozens of (lambda, lambda_e,
// sigma) points; the reachable state set depends only on the code geometry
// and on WHICH rates are nonzero, not on their magnitudes. The cache keeps
// one enumeration per such structural key and replays the model's
// transitions over it for each new rate point, skipping BFS discovery and
// hash interning. Exactly repeated parameters short-circuit to a memoized
// StateSpace.
#ifndef RSMEM_MODELS_CHAIN_CACHE_H
#define RSMEM_MODELS_CHAIN_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "markov/state_space.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"

namespace rsmem::models {

class ChainCache {
 public:
  ChainCache() = default;
  ChainCache(const ChainCache&) = delete;
  ChainCache& operator=(const ChainCache&) = delete;

  // Returns the chain for `params`, rebuilding as little as possible:
  //  1. bitwise-equal params: the memoized StateSpace is shared directly;
  //  2. equal structural key (geometry + rate zero-pattern): the cached
  //     enumeration is replayed with the new rates. The replay verifies
  //     every emitted destination against the recorded one and falls back
  //     to a direct build on any mismatch, so a replayed generator is
  //     always bitwise identical to a freshly built one (same triplet
  //     sequence, same accumulation order);
  //  3. otherwise: direct build, capturing the structure for later points.
  // Thread-safe; the returned chain is immutable and may be solved
  // concurrently.
  std::shared_ptr<const markov::StateSpace> simplex(
      const SimplexParams& params);
  std::shared_ptr<const markov::StateSpace> duplex(const DuplexParams& params);

  struct Stats {
    std::uint64_t exact_hits = 0;
    std::uint64_t replays = 0;
    std::uint64_t builds = 0;
    std::uint64_t replay_fallbacks = 0;
  };
  Stats stats() const;
  void clear();

  // Exact-parameter memo size per arrangement; past it the oldest entry is
  // evicted (its structure stays, so a re-query replays).
  static constexpr std::size_t kMaxMemo = 256;

 private:
  // Recorded enumeration: states in BFS discovery order plus, per state,
  // the dense indices of its nonzero non-self transitions in emission
  // order. Replaying for_each_transition over `states` in index order
  // reproduces the builder's exact triplet sequence.
  struct Structure {
    std::vector<markov::PackedState> states;
    std::unordered_map<markov::PackedState, std::size_t> index;
    std::size_t initial_index = 0;
    std::vector<std::uint32_t> dest_offsets;  // per-state [begin, end)
    std::vector<std::uint32_t> dests;
  };
  struct SimplexStructKey {
    unsigned n, k, m;
    bool seu, erasure, scrub;
    double mbu_probability;
    unsigned mbu_span_bits;
    friend bool operator==(const SimplexStructKey&,
                           const SimplexStructKey&) = default;
  };
  struct DuplexStructKey {
    unsigned n, k, m;
    bool seu, erasure, scrub;
    RateConvention convention;
    FailCriterion fail_criterion;
    bool use_text_rate_for_b;
    friend bool operator==(const DuplexStructKey&,
                           const DuplexStructKey&) = default;
  };
  static SimplexStructKey structural_key(const SimplexParams& params);
  static DuplexStructKey structural_key(const DuplexParams& params);

  // One arrangement's exact-parameter memo and per-structural-key
  // enumerations. Linear scans: the paper's design spaces touch at most a
  // few dozen keys, far below the cost of one transient solve.
  template <typename Params, typename Key>
  struct Shelf {
    std::vector<std::pair<Params, std::shared_ptr<const markov::StateSpace>>>
        memo;
    std::vector<std::pair<Key, Structure>> structs;
  };

  // The lookup both arrangements run (steps 1-3 above), under mutex_.
  template <typename Model, typename Params, typename Key>
  std::shared_ptr<const markov::StateSpace> lookup_locked(
      Shelf<Params, Key>& shelf, const Params& params);

  mutable std::mutex mutex_;
  Shelf<SimplexParams, SimplexStructKey> simplex_;
  Shelf<DuplexParams, DuplexStructKey> duplex_;
  Stats stats_;
};

// Process-wide cache shared by core::analyze_ber and the sweep engine.
ChainCache& global_chain_cache();

}  // namespace rsmem::models

#endif  // RSMEM_MODELS_CHAIN_CACHE_H

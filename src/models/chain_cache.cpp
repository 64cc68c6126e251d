#include "models/chain_cache.h"

#include <optional>
#include <stdexcept>

#include "linalg/csr_matrix.h"

namespace rsmem::models {

namespace {

// Records the enumeration of a freshly built space: per state, the dense
// destination index of every emission the builder kept (nonzero rate, not
// a self-loop), in emission order.
void capture_structure(const markov::TransitionModel& model,
                       const markov::StateSpace& space,
                       std::vector<std::uint32_t>& dest_offsets,
                       std::vector<std::uint32_t>& dests) {
  dest_offsets.clear();
  dests.clear();
  dest_offsets.reserve(space.size() + 1);
  dest_offsets.push_back(0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const markov::PackedState from_state = space.states[i];
    model.for_each_transition(
        from_state, [&](double rate, markov::PackedState to) {
          if (rate == 0.0 || to == from_state) return;
          dests.push_back(
              static_cast<std::uint32_t>(space.index.at(to)));
        });
    dest_offsets.push_back(static_cast<std::uint32_t>(dests.size()));
  }
}

// Rebuilds the generator over a recorded enumeration. Returns nullopt when
// the model's emissions no longer line up with the recording (the caller
// then rebuilds from scratch). The triplet sequence -- and with it the
// CsrMatrix and Ctmc -- matches a direct build_state_space bit for bit.
template <typename Structure>
std::optional<markov::StateSpace> replay_structure(
    const markov::TransitionModel& model, const Structure& st) {
  if (st.states.empty() ||
      model.initial_state() != st.states[st.initial_index]) {
    return std::nullopt;
  }
  std::vector<linalg::Triplet> triplets;
  triplets.reserve(st.dests.size() + st.states.size());
  bool ok = true;
  for (std::size_t from = 0; from < st.states.size(); ++from) {
    const markov::PackedState from_state = st.states[from];
    std::size_t cursor = st.dest_offsets[from];
    const std::size_t end = st.dest_offsets[from + 1];
    double exit_rate = 0.0;
    model.for_each_transition(
        from_state, [&](double rate, markov::PackedState to) {
          if (rate < 0.0) {
            throw std::invalid_argument(
                "build_state_space: negative transition rate");
          }
          if (rate == 0.0 || to == from_state) return;
          if (!ok) return;
          if (cursor >= end || st.states[st.dests[cursor]] != to) {
            ok = false;
            return;
          }
          triplets.push_back({from, st.dests[cursor], rate});
          exit_rate += rate;
          ++cursor;
        });
    if (cursor != end) ok = false;
    if (!ok) return std::nullopt;
    if (exit_rate > 0.0) {
      triplets.push_back({from, from, -exit_rate});
    }
  }
  const std::size_t n = st.states.size();
  markov::Ctmc chain{linalg::CsrMatrix(n, n, std::move(triplets)),
                     st.initial_index};
  return markov::StateSpace{st.states, st.index, st.initial_index,
                            std::move(chain)};
}

}  // namespace

ChainCache::SimplexStructKey ChainCache::structural_key(
    const SimplexParams& params) {
  return {params.n,
          params.k,
          params.m,
          params.seu_rate_per_bit_hour > 0.0,
          params.erasure_rate_per_symbol_hour > 0.0,
          params.scrub_rate_per_hour > 0.0,
          params.mbu_probability,
          params.mbu_span_bits};
}

ChainCache::DuplexStructKey ChainCache::structural_key(
    const DuplexParams& params) {
  return {params.n,
          params.k,
          params.m,
          params.seu_rate_per_bit_hour > 0.0,
          params.erasure_rate_per_symbol_hour > 0.0,
          params.scrub_rate_per_hour > 0.0,
          params.convention,
          params.fail_criterion,
          params.use_text_rate_for_b};
}

std::shared_ptr<const markov::StateSpace> ChainCache::simplex(
    const SimplexParams& params) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lookup_locked<SimplexModel>(simplex_, params);
}

std::shared_ptr<const markov::StateSpace> ChainCache::duplex(
    const DuplexParams& params) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lookup_locked<DuplexModel>(duplex_, params);
}

template <typename Model, typename Params, typename Key>
std::shared_ptr<const markov::StateSpace> ChainCache::lookup_locked(
    Shelf<Params, Key>& shelf, const Params& params) {
  for (const auto& [memo_params, space] : shelf.memo) {
    if (memo_params == params) {
      ++stats_.exact_hits;
      return space;
    }
  }
  const Model model{params};  // validates params before any caching
  const Key key = structural_key(params);
  std::shared_ptr<const markov::StateSpace> space;
  for (const auto& [struct_key, st] : shelf.structs) {
    if (struct_key == key) {
      if (auto replayed = replay_structure(model, st)) {
        ++stats_.replays;
        space = std::make_shared<const markov::StateSpace>(
            std::move(*replayed));
      } else {
        ++stats_.replay_fallbacks;
      }
      break;
    }
  }
  if (!space) {
    ++stats_.builds;
    auto built = std::make_shared<markov::StateSpace>(model.build());
    Structure st;
    st.states = built->states;
    st.index = built->index;
    st.initial_index = built->initial_index;
    capture_structure(model, *built, st.dest_offsets, st.dests);
    std::erase_if(shelf.structs,
                  [&](const auto& entry) { return entry.first == key; });
    shelf.structs.emplace_back(key, std::move(st));
    space = std::move(built);
  }
  if (shelf.memo.size() >= kMaxMemo) {
    shelf.memo.erase(shelf.memo.begin());
  }
  shelf.memo.emplace_back(params, space);
  return space;
}

ChainCache::Stats ChainCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ChainCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  simplex_.memo.clear();
  simplex_.structs.clear();
  duplex_.memo.clear();
  duplex_.structs.clear();
  stats_ = Stats{};
}

ChainCache& global_chain_cache() {
  static ChainCache cache;
  return cache;
}

}  // namespace rsmem::models

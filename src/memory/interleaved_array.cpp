#include "memory/interleaved_array.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"

namespace rsmem::memory {

InterleavedTrialResult run_interleaved_trial(
    const InterleavedArrayConfig& config, double t_hours) {
  if (config.depth == 0) {
    throw std::invalid_argument("interleaved_array: depth must be >= 1");
  }
  if (!(config.rates.seu_rate_per_bit_hour >= 0.0) || !(t_hours >= 0.0) ||
      !std::isfinite(config.rates.seu_rate_per_bit_hour) ||
      !std::isfinite(t_hours)) {
    throw std::invalid_argument(
        "interleaved_array: rate and time must be finite and non-negative");
  }
  const rs::ReedSolomon code{config.code};
  const unsigned word_bits = config.code.n * config.code.m;
  const unsigned total_bits = word_bits * config.depth;
  const unsigned span = config.rates.mbu_span_bits;
  if (!(config.rates.mbu_probability >= 0.0 &&
        config.rates.mbu_probability <= 1.0)) {
    throw std::invalid_argument(
        "interleaved_array: mbu_probability outside [0,1]");
  }
  if (config.rates.mbu_probability > 0.0 &&
      (span < 2 || span > total_bits)) {
    throw std::invalid_argument("interleaved_array: bad mbu span");
  }

  sim::Rng rng{config.seed};

  // Store `depth` random codewords; track damage as flat bit flips.
  std::vector<std::vector<gf::Element>> truth(config.depth);
  std::vector<std::vector<gf::Element>> stored(config.depth);
  for (unsigned w = 0; w < config.depth; ++w) {
    std::vector<gf::Element> data(config.code.k);
    for (auto& d : data) {
      d = static_cast<gf::Element>(rng.uniform_int(1u << config.code.m));
    }
    truth[w] = code.encode(data);
    stored[w] = truth[w];
  }

  const auto flip_physical = [&](unsigned physical_bit) {
    // Interleaving map: codeword = bit mod I, logical bit = bit / I.
    const unsigned word = physical_bit % config.depth;
    const unsigned logical = physical_bit / config.depth;
    const unsigned symbol = logical / config.code.m;
    const unsigned bit = logical % config.code.m;
    stored[word][symbol] ^= (gf::Element{1} << bit);
  };

  InterleavedTrialResult result;
  result.words = config.depth;

  // Poisson arrival count over the whole horizon (no scrubbing: order of
  // arrivals does not matter, only the final XOR pattern).
  const double mean_arrivals =
      config.rates.seu_rate_per_bit_hour * total_bits * t_hours;
  const std::uint64_t arrivals = rng.poisson(mean_arrivals);
  result.seu_arrivals = static_cast<unsigned>(arrivals);
  for (std::uint64_t a = 0; a < arrivals; ++a) {
    if (config.rates.mbu_probability > 0.0 &&
        rng.bernoulli(config.rates.mbu_probability)) {
      const unsigned start =
          static_cast<unsigned>(rng.uniform_int(total_bits - span + 1));
      for (unsigned i = 0; i < span; ++i) flip_physical(start + i);
    } else {
      flip_physical(static_cast<unsigned>(rng.uniform_int(total_bits)));
    }
  }

  for (unsigned w = 0; w < config.depth; ++w) {
    std::vector<gf::Element> word = stored[w];
    const rs::DecodeOutcome outcome = code.decode(word);
    if (!outcome.ok()) {
      ++result.decode_failures;
    } else if (word != truth[w]) {
      ++result.wrong_data;
    }
  }
  return result;
}

double interleaved_fail_fraction(const InterleavedArrayConfig& config,
                                 double t_hours, unsigned trials) {
  if (trials == 0) {
    throw std::invalid_argument("interleaved_fail_fraction: trials == 0");
  }
  sim::Rng root{config.seed};
  unsigned failed = 0;
  unsigned words = 0;
  for (unsigned trial = 0; trial < trials; ++trial) {
    InterleavedArrayConfig cfg = config;
    cfg.seed = root.split(trial).next_u64();
    const InterleavedTrialResult r = run_interleaved_trial(cfg, t_hours);
    failed += r.failed_words();
    words += r.words;
  }
  return static_cast<double>(failed) / static_cast<double>(words);
}

}  // namespace rsmem::memory

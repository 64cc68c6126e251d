#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rsmem::sim {

namespace {

// SplitMix64 finalizer: decorrelates nearby seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// MT19937-64 parameters.
constexpr unsigned kN = 312;  // state words (Rng::state_)
constexpr unsigned kShift = 156;  // m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;
// Block-0 words twisted per refill. Shorter runs pay a refill every few
// draws (1-word runs were about 1.7x slower at 100 draws); longer ones
// seed and twist words a short stream never draws (64-word runs cost about
// 1.4x more for a 1-draw stream). 8 to 32 measured level.
constexpr unsigned kRun = 16;

std::uint64_t twisted(std::uint64_t word, std::uint64_t next,
                      std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  // A mask, not a branch: y's low bit is a coin flip.
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

// Twists words [begin, end) of x in index order -- the standard
// recurrence, split at the two places its indices wrap.
void twist(std::uint64_t* x, unsigned begin, unsigned end) {
  unsigned k = begin;
  for (const unsigned stop = std::min(end, kN - kShift); k < stop; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k + kShift]);
  }
  for (const unsigned stop = std::min(end, kN - 1); k < stop; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k - (kN - kShift)]);
  }
  if (k < end) x[kN - 1] = twisted(x[kN - 1], x[0], x[kShift - 1]);
}

}  // namespace

void Rng::refill(std::size_t wanted) {
  if (ready_ == kN) {
    twist(state_, 0, kN);
    pos_ = 0;
    return;
  }
  // Block 0: carry the seed recurrence to the last word the next run's
  // twist reads (never lowering seeded_), then twist the run.
  const unsigned end = static_cast<unsigned>(
      std::min<std::size_t>(ready_ + std::max<std::size_t>(wanted, kRun), kN));
  const unsigned seed_end = std::min(end + kShift, kN);
  if (seed_end > seeded_) {
    unsigned i = seeded_;
    if (i == 0) state_[i++] = mix(root_seed_);
    for (std::uint64_t word = state_[i - 1]; i < seed_end; ++i) {
      word = kInitMultiplier * (word ^ (word >> 62)) + i;
      state_[i] = word;
    }
    seeded_ = static_cast<std::uint16_t>(seed_end);
  }
  twist(state_, ready_, end);
  ready_ = static_cast<std::uint16_t>(end);
}

namespace {

// Writes block 0's seed words of `lanes` streams side by side: each word of
// a stream depends on the one before it through a 64-bit multiply, so one
// chain leaves the multiplier idle for most of its latency, and interleaved
// chains fill it.
template <unsigned Lanes>
void seed_block0(std::uint64_t* const* states,
                 const std::uint64_t* first_words) {
  std::uint64_t word[Lanes];
  for (unsigned lane = 0; lane < Lanes; ++lane) {
    word[lane] = first_words[lane];
    states[lane][0] = word[lane];
  }
  for (unsigned i = 1; i < kN; ++i) {
    for (unsigned lane = 0; lane < Lanes; ++lane) {
      word[lane] = kInitMultiplier * (word[lane] ^ (word[lane] >> 62)) + i;
      states[lane][i] = word[lane];
    }
  }
}

}  // namespace

void Rng::seed_lockstep(std::span<Rng* const> streams) {
  constexpr unsigned kLanes = 4;
  std::uint64_t* states[kLanes];
  std::uint64_t first_words[kLanes];
  unsigned lanes = 0;
  const auto flush = [&] {
    switch (lanes) {
      case 1: seed_block0<1>(states, first_words); break;
      case 2: seed_block0<2>(states, first_words); break;
      case 3: seed_block0<3>(states, first_words); break;
      case 4: seed_block0<4>(states, first_words); break;
      default: break;
    }
    lanes = 0;
  };
  for (Rng* const stream : streams) {
    if (stream->seeded_ != 0) continue;  // it drew: its seeding is under way
    states[lanes] = stream->state_;
    first_words[lanes] = mix(stream->root_seed_);
    stream->seeded_ = kN;
    if (++lanes == kLanes) flush();
  }
  flush();
}

Rng Rng::split(std::uint64_t stream_id) const {
  return Rng{mix(root_seed_ ^ mix(stream_id + 1))};
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_positive() {
  // (0, 1]: complements uniform() which is [0, 1).
  return 1.0 - uniform();
}

namespace {

// uniform_int's rejection limit: a draw x is kept when x < limit. For a
// power-of-two bound, 2^64 mod bound == 0, so the limit is 2^64 - bound.
std::uint64_t rejection_limit(std::uint64_t bound) {
  return ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
}

}  // namespace

std::uint64_t Rng::uniform_int(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_int: bound == 0");
  if ((bound & (bound - 1)) == 0) {
    // Power-of-two bound: bit-identical to the general path below (for
    // 2^64 mod bound == 0 its limit is 2^64 - bound and x % bound is
    // x & (bound - 1)) without the two 64-bit divisions.
    const std::uint64_t limit = ~std::uint64_t{0} - (bound - 1);
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return x & (bound - 1);
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = rejection_limit(bound);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % bound;
}

template <typename T>
void Rng::fill_uniform(std::uint64_t bound, std::span<T> out) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_ints: bound == 0");
  if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
    if (bound - 1 > std::numeric_limits<T>::max()) {
      throw std::invalid_argument(
          "Rng::uniform_ints: bound too large for the output type");
    }
  }
  const std::uint64_t limit = rejection_limit(bound);
  // Each pass draws from the twisted words [pos_, ready_) in one tight
  // loop, at most one word per value still missing (a word gives at most
  // one value); a refill twists block 0 as far as those values reach.
  const auto fill = [&](auto reduce) {
    std::size_t filled = 0;
    while (filled < out.size()) {
      if (pos_ == ready_) refill(out.size() - filled);
      const unsigned stop = pos_ + static_cast<unsigned>(std::min<std::size_t>(
                                       ready_ - pos_, out.size() - filled));
      for (unsigned pos = pos_; pos < stop; ++pos) {
        const std::uint64_t x = temper(state_[pos]);
        if (x < limit) out[filled++] = static_cast<T>(reduce(x));
      }
      pos_ = static_cast<std::uint16_t>(stop);
    }
  };
  if ((bound & (bound - 1)) == 0) {
    // Power-of-two bound: x % bound is x & (bound - 1), as in uniform_int.
    fill([mask = bound - 1](std::uint64_t x) { return x & mask; });
  } else {
    fill([bound](std::uint64_t x) { return x % bound; });
  }
}

void Rng::uniform_ints(std::uint64_t bound, std::span<std::uint32_t> out) {
  fill_uniform(bound, out);
}

void Rng::uniform_ints(std::uint64_t bound, std::span<std::uint64_t> out) {
  fill_uniform(bound, out);
}

bool Rng::bernoulli(double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("Rng::bernoulli: p outside [0,1]");
  }
  return uniform() < p;
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument(
        "Rng::exponential: rate must be finite and > 0");
  }
  return -std::log(uniform_positive()) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  if (!(mean >= 0.0) || !std::isfinite(mean)) {
    throw std::invalid_argument(
        "Rng::poisson: mean must be finite and >= 0");
  }
  // Chunk large means so the product inversion below never underflows.
  std::uint64_t count = 0;
  while (mean > 500.0) {
    // A Poisson(mean) is the sum of independent Poisson(500) + Poisson(rest).
    count += poisson(500.0);
    mean -= 500.0;
  }
  const double limit = std::exp(-mean);
  double product = uniform_positive();
  while (product > limit) {
    product *= uniform_positive();
    ++count;
  }
  return count;
}

}  // namespace rsmem::sim

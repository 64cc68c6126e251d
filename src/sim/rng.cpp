#include "sim/rng.h"

#include <algorithm>
#include <cmath>
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

void Rng::refill() {
  if (ready_ == kN) {
    twist(state_, 0, kN);
    pos_ = 0;
    return;
  }
  // Block 0: carry the seed recurrence to the last word the next run's
  // twist reads (seed_end never falls behind seeded_), then twist the run.
  const unsigned end = std::min(ready_ + kRun, kN);
  const unsigned seed_end = std::min(end + kShift, kN);
  unsigned i = seeded_;
  if (i == 0) state_[i++] = mix(root_seed_);
  for (std::uint64_t word = state_[i - 1]; i < seed_end; ++i) {
    word = kInitMultiplier * (word ^ (word >> 62)) + i;
    state_[i] = word;
  }
  seeded_ = static_cast<std::uint16_t>(seed_end);
  twist(state_, ready_, end);
  ready_ = static_cast<std::uint16_t>(end);
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

std::uint64_t Rng::uniform_int(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_int: bound == 0");
  if ((bound & (bound - 1)) == 0) {
    // Power-of-two bound: bit-identical to the general path below (for
    // 2^64 mod bound == 0 its limit is 2^64 - bound and x % bound is
    // x & (bound - 1)) without the two 64-bit divisions — this is the
    // symbol-draw path for every power-of-two field (m = 8 included), hot
    // in Monte-Carlo dataword generation.
    const std::uint64_t limit = ~std::uint64_t{0} - (bound - 1);
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return x & (bound - 1);
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % bound;
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

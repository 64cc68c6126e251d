// Deterministic random number generation for the Monte-Carlo simulator.
//
// Rng is an in-house MT19937-64: its outputs are those of
// std::mt19937_64 seeded with mix(seed) (the SplitMix64 finalizer in
// rng.cpp), bit for bit; the Rng.* differential tests hold it to the
// standard engine. Every distribution transform is in-house too (std::
// distributions are implementation defined, which would make simulation
// results differ across standard libraries). Streams can be split so that
// independent subsystems (fault injection per module, scrubbing jitter,
// ...) draw from decorrelated sequences while staying reproducible from one
// root seed.
//
// SEED-AHEAD / TWIST INVARIANT. A Monte-Carlo trial makes 3-5 streams and
// draws between 1 and a few hundred values from each, so seeding and
// twisting all 312 state words on the first draw (as std::mt19937_64 does)
// would dominate a trial. Here the first block is built only as far as
// draws reach it:
//  * words [0, ready_) of the current block are twisted (drawable),
//    [ready_, seeded_) still hold their seed values, and [seeded_, 312)
//    have never been written and are never read or copied;
//  * block 0 is twisted in runs of 16 words as draws reach them.
//    Twisting word k < 156 reads the seed values of words k, k+1 and
//    k+156; for k >= 156 the third word is the already-twisted word
//    k-156 (and for k = 311 the second is twisted word 0). So before a
//    run ending at word e the seed recurrence is carried to word
//    min(e + 156, 312) - 1 and no further;
//  * once block 0 is whole (ready_ == seeded_ == 312), each later block is
//    twisted in bulk through the same loop, as std::mt19937_64 does.
// Every word is twisted in index order from the same inputs as in the
// standard engine, so only when the work is done changes, not its result.
// An Rng that has not drawn has touched no state word: constructing,
// copying and split()-ting it cost a few scalar moves and never allocate.
//
// THREAD-SAFETY INVARIANT (parallel Monte-Carlo campaigns): an Rng holds
// mutable engine state and is NOT safe for concurrent draws. The library
// keeps every generator strictly SHARD-LOCAL: there are no global/static
// generators anywhere in rsmem, each simulated system owns the Rngs it
// draws from, and a campaign derives each trial's streams from the root
// seed via split() keyed by the GLOBAL trial index (split() is const and
// safe to call concurrently -- it only mixes seeds, touching no engine
// state). Worker threads therefore never share engine state, and trial
// results are independent of the thread or shard that ran them.
#ifndef RSMEM_SIM_RNG_H
#define RSMEM_SIM_RNG_H

#include <cstdint>
#include <cstring>

namespace rsmem::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : root_seed_(seed) {}

  // Copies only the words written so far (none before the first draw).
  Rng(const Rng& other) noexcept { copy_from(other); }
  Rng& operator=(const Rng& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Deterministically derives an independent stream (SplitMix64 mixing of
  // the root seed with the stream id). Draws taken from *this do not
  // change the result.
  Rng split(std::uint64_t stream_id) const;

  // Uniform in [0, 1) with 53 bits of precision.
  double uniform();
  // Uniform in (0, 1]; never returns exactly 0 (safe for log()).
  double uniform_positive();
  // Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t uniform_int(std::uint64_t bound);
  // p must be in [0, 1] (NaN throws).
  bool bernoulli(double p);
  // Exponential with the given finite rate (> 0); mean 1/rate.
  double exponential(double rate);
  // Poisson count with the given finite mean (>= 0) by inversion/chunking.
  std::uint64_t poisson(double mean);

  std::uint64_t next_u64() {
    if (pos_ == ready_) refill();
    std::uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  // Makes state_[pos_] drawable: the next run of block 0, or the next
  // whole block once block 0 is done.
  void refill();

  void copy_from(const Rng& other) {
    root_seed_ = other.root_seed_;
    pos_ = other.pos_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
    std::memcpy(state_, other.state_, seeded_ * sizeof(state_[0]));
  }

  std::uint64_t root_seed_;
  std::uint16_t pos_ = 0;     // next word of the current block to draw
  std::uint16_t ready_ = 0;   // words [0, ready_) are twisted
  std::uint16_t seeded_ = 0;  // words [0, seeded_) have been written
  std::uint64_t state_[312];  // MT19937-64's n words, unwritten until drawn
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_RNG_H

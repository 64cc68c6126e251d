// Verifies the headline guarantee of the codec: once a DecoderWorkspace
// has been reserved (or has seen one decode of a given code), further
// encode/decode/batch calls perform ZERO heap allocations — including the
// workspace-free decode, which runs on the codec's per-thread workspace.
// The same holds one layer up for duplex scrubbing, which arbitrates on
// the system's own scratch planes, and for the uniformization solver on a
// warmed-up SolverWorkspace.
//
// Implemented with counting global operator new/delete overrides, which is
// why this lives in its own test binary: the overrides are process-wide and
// must not contaminate the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "markov/solver_workspace.h"
#include "markov/uniformization.h"
#include "memory/duplex_system.h"
#include "models/duplex_model.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

// GCC pairs `new` expressions with the DEFAULT operator delete when warning,
// but this TU replaces both globals consistently on top of malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rsmem::rs {
namespace {

// Counts heap allocations performed by `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<Element> random_data(const ReedSolomon& code, sim::Rng& rng) {
  std::vector<Element> data(code.k());
  for (auto& d : data) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  return data;
}

class ZeroAlloc : public ::testing::TestWithParam<rs::CodeParams> {};

TEST_P(ZeroAlloc, SteadyStateDecodeDoesNotAllocate) {
  const ReedSolomon code{GetParam()};
  DecoderWorkspace ws;
  ws.reserve(code);
  sim::Rng rng{GetParam().n};

  const auto data = random_data(code, rng);
  const std::vector<Element> clean = code.encode(data);
  const unsigned t = code.t();

  // Pre-build every fault pattern outside the counting window.
  std::vector<Element> clean_word = clean;
  std::vector<Element> error_word = clean;
  for (unsigned i = 0; i < t; ++i) error_word[2 * i] ^= 1;
  std::vector<Element> erased_word = clean;
  std::vector<unsigned> erasures(code.parity_symbols());
  for (unsigned i = 0; i < erasures.size(); ++i) {
    erasures[i] = i;
    erased_word[i] ^= 3;
  }
  std::vector<Element> scratch(code.n());

  // Warm-up pass: first decode of each shape may still grow buffers (the
  // caller's workspace and the codec's own per-thread one).
  scratch = error_word;
  code.decode(ws, scratch, {});
  scratch = erased_word;
  code.decode(ws, scratch, erasures);
  scratch = error_word;
  code.decode(scratch);
  scratch = erased_word;
  code.decode(scratch, erasures);

  const std::uint64_t count = allocations_in([&] {
    for (int rep = 0; rep < 10; ++rep) {
      std::copy(clean.begin(), clean.end(), scratch.begin());
      code.decode(ws, scratch, {});                      // clean exit
      std::copy(error_word.begin(), error_word.end(), scratch.begin());
      code.decode(ws, scratch, {});                      // full pipeline
      std::copy(erased_word.begin(), erased_word.end(), scratch.begin());
      code.decode(ws, scratch, erasures);                // erasure pipeline
      // The workspace-free overload runs on the per-thread workspace.
      std::copy(clean.begin(), clean.end(), scratch.begin());
      code.decode(scratch);
      std::copy(error_word.begin(), error_word.end(), scratch.begin());
      code.decode(scratch);
      std::copy(erased_word.begin(), erased_word.end(), scratch.begin());
      code.decode(scratch, erasures);
      code.encode(data, scratch);                        // LFSR encoder
    }
  });
  EXPECT_EQ(count, 0u) << "steady-state codec calls must not hit the heap";
}

TEST_P(ZeroAlloc, SteadyStateBatchDoesNotAllocate) {
  const ReedSolomon code{GetParam()};
  DecoderWorkspace ws;
  ws.reserve(code);
  sim::Rng rng{GetParam().n + 1};

  const std::size_t count = 16;
  const unsigned n = code.n();
  std::vector<Element> data_plane(count * code.k());
  for (auto& d : data_plane) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  std::vector<Element> plane(count * n);
  std::vector<Element> damaged(count * n);
  std::vector<std::uint8_t> flags(count * n, 0);
  std::vector<DecodeOutcome> outcomes(count);

  code.encode_batch(ws, data_plane, plane);
  for (std::size_t w = 0; w < count; ++w) {
    damaged[w * n] = plane[w * n] ^ 1;  // one corrupted symbol per word...
    flags[w * n + 1] = 1;               // ...and one erasure flag
  }
  // Warm-up: erasure_scratch grows on the first flagged batch.
  std::copy(plane.begin(), plane.end(), damaged.begin());
  code.decode_batch(ws, damaged, outcomes, flags);

  const std::uint64_t allocs = allocations_in([&] {
    for (int rep = 0; rep < 5; ++rep) {
      code.encode_batch(ws, data_plane, plane);
      std::copy(plane.begin(), plane.end(), damaged.begin());
      for (std::size_t w = 0; w < count; ++w) damaged[w * n] ^= 1;
      code.decode_batch(ws, damaged, outcomes, flags);
    }
  });
  EXPECT_EQ(allocs, 0u) << "steady-state batch calls must not hit the heap";
}

INSTANTIATE_TEST_SUITE_P(
    Codes, ZeroAlloc,
    ::testing::Values(rs::CodeParams{18, 16, 8, 1, 0},
                      rs::CodeParams{36, 16, 8, 1, 0},
                      rs::CodeParams{255, 223, 8, 1, 0},
                      // m > 8: no dense table; the log/exp fast path must
                      // be allocation-free too.
                      rs::CodeParams{100, 88, 10, 1, 0}));

TEST(ZeroAllocScrub, SteadyStateDuplexScrubbingDoesNotAllocate) {
  // Periodic passes every hour, no Poisson faults: the only event is the
  // scrub tick, and the only faults are the scripted flips.
  memory::DuplexSystemConfig cfg;
  cfg.scrub_policy = memory::ScrubPolicy::kPeriodic;
  cfg.scrub_period_hours = 1.0;
  memory::DuplexSystem sys{cfg};
  sim::Rng rng{18};
  sys.store(random_data(sys.code(), rng));
  // Warm-up: one corrected flip grows the codec's per-thread workspace.
  sys.inject_bit_flip(0, 5, 3);
  sys.advance_to(4.5);

  // Counted window: a flip arbitrated for real (the pass at t=5 corrects
  // and rewrites it, and both modules read back its output) and then
  // replayed passes from t=6 on.
  sys.inject_bit_flip(1, 11, 6);
  const std::uint64_t replayed_before = sys.stats().scrubs_replayed;
  const std::uint64_t allocs = allocations_in([&] { sys.advance_to(40.5); });
  EXPECT_EQ(allocs, 0u) << "steady-state scrub passes must not hit the heap";
  EXPECT_EQ(sys.stats().scrubs_attempted, 40u);
  EXPECT_EQ(sys.stats().scrubs_replayed - replayed_before, 35u);
  EXPECT_EQ(sys.damage(1).corrupted, 0u);
  EXPECT_TRUE(sys.read().read.data_correct);
}

TEST(ZeroAllocSolver, SteadyStateUniformizationDoesNotAllocate) {
  // Duplex RS(18,16) with SEUs, erasures and scrubbing: a chain where the
  // early stop fires and the reach flags, breadth-first list and window
  // tail sums are all in use.
  models::DuplexParams params;
  params.seu_rate_per_bit_hour = 1.7e-5 / 24.0;
  params.erasure_rate_per_symbol_hour = 1e-6;
  params.scrub_rate_per_hour = 4.0;
  const markov::StateSpace space = models::DuplexModel{params}.build();
  const markov::Ctmc& chain = space.chain;
  const std::size_t n = space.size();
  const markov::UniformizationSolver solver;
  markov::SolverWorkspace ws;
  const std::vector<double> pi0 = chain.initial_distribution();
  std::vector<double> full(n, 1.0 / static_cast<double>(n));
  std::vector<double> basis(n, 0.0);
  std::vector<double> out(n);
  const double times[] = {0.25, 1.0, 12.0, 48.0};

  // Warm-up: one solve per step width grows the buffers and caches the
  // windows.
  for (const double t : times) solver.solve_into(chain, full, t, ws, out);

  const std::uint64_t allocs = allocations_in([&] {
    for (int rep = 0; rep < 3; ++rep) {
      for (const double t : times) {
        solver.solve_into(chain, pi0, t, ws, out);
        solver.solve_into(chain, full, t, ws, out);
        for (std::size_t i = 0; i < n; i += 7) {
          basis[i] = 1.0;
          solver.solve_into(chain, basis, t, ws, out);
          basis[i] = 0.0;
        }
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "steady-state solve_into must not hit the heap";
  EXPECT_LT(ws.terms_summed(), ws.terms_offered());
}

}  // namespace
}  // namespace rsmem::rs

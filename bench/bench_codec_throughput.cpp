// E10 -- microbenchmarks (google-benchmark): RS codec encode/decode
// throughput for the paper's codes, chain construction, and transient
// solves. These are engineering numbers for library users, not paper
// artifacts; the benchmark of record is perfbench/ (BENCHMARK.json).
//
// Every RS codec case is reported for BOTH implementations side by side:
//   *_legacy    -- the Poly-based reference codec (test oracle, rsmem_oracles)
//   *_workspace -- the allocation-free DecoderWorkspace fast path
// and the batch-plane cases additionally A/B the SIMD kernel layer:
//   *_scalar    -- gf::simd forced to the scalar control (original loops)
//   *_simd      -- the backend the runtime dispatcher selected on this host
// The JSON context (--benchmark_out=FILE) carries `rsmem_build_type` (from
// this binary's NDEBUG state — the system libbenchmark's own
// library_build_type may say "debug" regardless) and `gf_backend` (the
// dispatcher's pick), so a saved run says what produced it.
//
// `--plane-selfcheck`: instead of benchmarks, times encode_batch over a
// large plane under the forced-scalar control vs the selected backend and
// asserts the >= 2x speedup contract when a PSHUFB-or-better backend
// (ssse3/avx2/gfni) is selected (record-only on hosts without one). Exit
// code 0 iff the check passes. It is a manual gate, not a CTest test:
//
//   build/bench/bench_codec_throughput --plane-selfcheck
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "gf/simd_mul.h"
#include "markov/uniformization.h"
#include "models/ber.h"
#include "models/duplex_model.h"
#include "models/simplex_model.h"
#include "oracles/berlekamp.h"
#include "oracles/reference_codec.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace {

using namespace rsmem;

enum class Path { kLegacy, kWorkspace };

const rs::ReedSolomon& code1816() {
  static const rs::ReedSolomon code{18, 16, 8};
  return code;
}
const rs::ReedSolomon& code3616() {
  static const rs::ReedSolomon code{36, 16, 8};
  return code;
}
const rs::ReedSolomon& code255223() {
  static const rs::ReedSolomon code{255, 223, 8};
  return code;
}

std::vector<gf::Element> random_data(const rs::ReedSolomon& code,
                                     std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<gf::Element> data(code.k());
  for (auto& d : data) {
    d = static_cast<gf::Element>(rng.uniform_int(code.field().size()));
  }
  return data;
}

void BM_Encode(benchmark::State& state, const rs::ReedSolomon& code,
               Path path) {
  const auto data = random_data(code, 1);
  std::vector<gf::Element> cw(code.n());
  for (auto _ : state) {
    if (path == Path::kWorkspace) {
      code.encode(data, cw);
    } else {
      oracles::encode_legacy(code, data, cw);
    }
    benchmark::DoNotOptimize(cw.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          code.k() * code.m() / 8);
}

rs::DecodeOutcome run_decode(const rs::ReedSolomon& code,
                             rs::DecoderWorkspace& ws, Path path,
                             std::vector<gf::Element>& word,
                             std::span<const unsigned> erasures = {}) {
  return path == Path::kWorkspace
             ? code.decode(ws, word, erasures)
             : oracles::decode_legacy(code, word, erasures);
}

void BM_DecodeClean(benchmark::State& state, const rs::ReedSolomon& code,
                    Path path) {
  const auto cw = code.encode(random_data(code, 2));
  std::vector<gf::Element> word = cw;
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  for (auto _ : state) {
    word = cw;
    const auto outcome = run_decode(code, ws, path, word);
    benchmark::DoNotOptimize(outcome);
  }
}

void BM_DecodeOneError(benchmark::State& state, const rs::ReedSolomon& code,
                       Path path) {
  const auto cw = code.encode(random_data(code, 3));
  std::vector<gf::Element> word;
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  unsigned pos = 0;
  for (auto _ : state) {
    word = cw;
    word[pos % code.n()] ^= 0x2A;
    ++pos;
    const auto outcome = run_decode(code, ws, path, word);
    benchmark::DoNotOptimize(outcome);
  }
}

void BM_DecodeErasuresPlusError(benchmark::State& state,
                                const rs::ReedSolomon& code, Path path) {
  const auto cw = code.encode(random_data(code, 4));
  const unsigned budget = code.parity_symbols();
  const unsigned erasure_count = budget > 2 ? budget - 2 : 0;
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < erasure_count; ++i) erasures.push_back(i);
  std::vector<gf::Element> word;
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  for (auto _ : state) {
    word = cw;
    for (const unsigned p : erasures) word[p] ^= 0x11;
    word[code.n() - 1] ^= 0x55;
    const auto outcome = run_decode(code, ws, path, word, erasures);
    benchmark::DoNotOptimize(outcome);
  }
}

// Erasure-heavy: the entire parity budget spent on erasures (er = n-k,
// re = 0), every erased symbol actually corrupted.
void BM_DecodeErasureOnlyFull(benchmark::State& state,
                              const rs::ReedSolomon& code, Path path) {
  const auto cw = code.encode(random_data(code, 6));
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < code.parity_symbols(); ++i) erasures.push_back(i);
  std::vector<gf::Element> word;
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  for (auto _ : state) {
    word = cw;
    for (const unsigned p : erasures) word[p] ^= 0x11;
    const auto outcome = run_decode(code, ws, path, word, erasures);
    benchmark::DoNotOptimize(outcome);
  }
}

// At-capability: 2*re + er = n-k exactly, mixing both fault kinds (the
// decoder's worst case: longest locators, fullest Chien/Forney pass).
void BM_DecodeAtCapability(benchmark::State& state,
                           const rs::ReedSolomon& code, Path path) {
  const auto cw = code.encode(random_data(code, 7));
  const unsigned budget = code.parity_symbols();
  const unsigned re = budget >= 4 ? budget / 4 : budget / 2;
  const unsigned er = budget - 2 * re;
  std::vector<unsigned> erasures;
  for (unsigned i = 0; i < er; ++i) erasures.push_back(i);
  std::vector<gf::Element> word;
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  for (auto _ : state) {
    word = cw;
    for (const unsigned p : erasures) word[p] ^= 0x11;
    for (unsigned i = 0; i < re; ++i) word[er + 2 * i] ^= 0x2A;
    const auto outcome = run_decode(code, ws, path, word, erasures);
    benchmark::DoNotOptimize(outcome);
  }
}

// ---- batch planes: scalar control vs the dispatcher's backend ----------
//
// force_backend() is sanctioned here by the one-backend-per-process rule's
// test/bench exemption: benchmarks run sequentially in this process, and
// main() restores the dispatcher's own selection afterwards.

void BM_EncodePlane(benchmark::State& state, const rs::ReedSolomon& code,
                    gf::simd::Backend backend, std::size_t count) {
  if (!gf::simd::force_backend(backend)) {
    state.SkipWithError("backend unsupported on this host");
    return;
  }
  sim::Rng rng{11};
  std::vector<gf::Element> data(count * code.k());
  for (auto& d : data) {
    d = static_cast<gf::Element>(rng.uniform_int(code.field().size()));
  }
  std::vector<gf::Element> plane(count * code.n());
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  code.encode_batch(ws, data, plane);  // warm the SoA buffers
  for (auto _ : state) {
    code.encode_batch(ws, data, plane);
    benchmark::DoNotOptimize(plane.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * count *
                          code.k() * code.m() / 8);
}

void BM_DecodePlane(benchmark::State& state, const rs::ReedSolomon& code,
                    gf::simd::Backend backend, std::size_t count) {
  if (!gf::simd::force_backend(backend)) {
    state.SkipWithError("backend unsupported on this host");
    return;
  }
  sim::Rng rng{13};
  std::vector<gf::Element> data(count * code.k());
  for (auto& d : data) {
    d = static_cast<gf::Element>(rng.uniform_int(code.field().size()));
  }
  std::vector<gf::Element> clean(count * code.n());
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  code.encode_batch(ws, data, clean);
  // Mostly-clean plane (1 in 16 words carries one error): the memory-array
  // steady state the batch syndrome screen is built for.
  std::vector<gf::Element> noisy = clean;
  for (std::size_t w = 0; w < count; w += 16) {
    noisy[w * code.n() + w % code.n()] ^= 0x2A;
  }
  std::vector<gf::Element> plane(noisy.size());
  std::vector<rs::DecodeOutcome> outcomes(count);
  for (auto _ : state) {
    std::copy(noisy.begin(), noisy.end(), plane.begin());
    code.decode_batch(ws, plane, outcomes);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * count *
                          code.n() * code.m() / 8);
}

void BM_BerlekampDecodeOneError(benchmark::State& state,
                                const rs::ReedSolomon& code) {
  const oracles::BerlekampDecoder decoder{code};
  const auto cw = code.encode(random_data(code, 5));
  std::vector<gf::Element> word;
  unsigned pos = 0;
  for (auto _ : state) {
    word = cw;
    word[pos % code.n()] ^= 0x2A;
    ++pos;
    const auto outcome = decoder.decode(word);
    benchmark::DoNotOptimize(outcome);
  }
}

void BM_BuildSimplexChain(benchmark::State& state) {
  models::SimplexParams p;
  p.n = 36;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-5;
  p.erasure_rate_per_symbol_hour = 1e-6;
  p.scrub_rate_per_hour = 1.0;
  for (auto _ : state) {
    const markov::StateSpace space = models::SimplexModel{p}.build();
    benchmark::DoNotOptimize(space.size());
  }
}

void BM_BuildDuplexChain(benchmark::State& state) {
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 1e-5;
  p.erasure_rate_per_symbol_hour = 1e-6;
  p.scrub_rate_per_hour = 1.0;
  for (auto _ : state) {
    const markov::StateSpace space = models::DuplexModel{p}.build();
    benchmark::DoNotOptimize(space.size());
  }
}

void BM_SolveDuplex48hScrubbed(benchmark::State& state) {
  models::DuplexParams p;
  p.n = 18;
  p.k = 16;
  p.m = 8;
  p.seu_rate_per_bit_hour = 7e-7;
  p.scrub_rate_per_hour = 4.0;  // Tsc = 900 s: the stiffest paper case
  const markov::StateSpace space = models::DuplexModel{p}.build();
  const markov::UniformizationSolver solver;
  for (auto _ : state) {
    const auto pi = solver.solve(space.chain, 48.0);
    benchmark::DoNotOptimize(pi.data());
  }
}

}  // namespace

#define RSMEM_BENCH_BOTH_PATHS(fn, tag, code_fn)                     \
  BENCHMARK_CAPTURE(fn, tag##_legacy, code_fn(), Path::kLegacy);     \
  BENCHMARK_CAPTURE(fn, tag##_workspace, code_fn(), Path::kWorkspace)

RSMEM_BENCH_BOTH_PATHS(BM_Encode, rs1816, code1816);
RSMEM_BENCH_BOTH_PATHS(BM_Encode, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_Encode, rs255_223, code255223);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeClean, rs1816, code1816);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeClean, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeClean, rs255_223, code255223);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeOneError, rs1816, code1816);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeOneError, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeOneError, rs255_223, code255223);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeErasuresPlusError, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeErasuresPlusError, rs255_223, code255223);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeErasureOnlyFull, rs1816, code1816);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeErasureOnlyFull, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeErasureOnlyFull, rs255_223, code255223);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeAtCapability, rs1816, code1816);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeAtCapability, rs3616, code3616);
RSMEM_BENCH_BOTH_PATHS(BM_DecodeAtCapability, rs255_223, code255223);
BENCHMARK_CAPTURE(BM_BerlekampDecodeOneError, rs1816, code1816());
BENCHMARK_CAPTURE(BM_BerlekampDecodeOneError, rs255_223, code255223());
BENCHMARK(BM_BuildSimplexChain);
BENCHMARK(BM_BuildDuplexChain);
BENCHMARK(BM_SolveDuplex48hScrubbed);

// Plane pairs: scalar control first, then whatever the dispatcher picks
// (where no vector backend is available both rows run the scalar loops —
// the pair then documents that the control IS the product).
#define RSMEM_BENCH_PLANE_PAIR(fn, tag, code_fn, count)              \
  BENCHMARK_CAPTURE(fn, tag##_scalar, code_fn(),                     \
                    gf::simd::Backend::kScalar, count);              \
  BENCHMARK_CAPTURE(fn, tag##_simd, code_fn(), gf::simd::select_backend(), \
                    count)

RSMEM_BENCH_PLANE_PAIR(BM_EncodePlane, rs1816_x4096, code1816, 4096);
RSMEM_BENCH_PLANE_PAIR(BM_EncodePlane, rs3616_x4096, code3616, 4096);
RSMEM_BENCH_PLANE_PAIR(BM_EncodePlane, rs255_223_x512, code255223, 512);
RSMEM_BENCH_PLANE_PAIR(BM_DecodePlane, rs1816_x4096, code1816, 4096);
RSMEM_BENCH_PLANE_PAIR(BM_DecodePlane, rs3616_x4096, code3616, 4096);
RSMEM_BENCH_PLANE_PAIR(BM_DecodePlane, rs255_223_x512, code255223, 512);

namespace {

// --plane-selfcheck: assert the kernel layer actually pays for itself.
// Times encode_batch over a large RS(36,16) plane, forced-scalar vs the
// dispatcher's backend, best-of-N wall clock. On hosts where a PSHUFB
// backend (ssse3/avx2) is selected the >= 2x contract is enforced; with
// only scalar available the ratio is recorded but not gated.
int run_plane_selfcheck() {
  using clock = std::chrono::steady_clock;
  const rs::ReedSolomon& code = code3616();
  constexpr std::size_t kCount = 1 << 14;
  constexpr int kReps = 7;
  sim::Rng rng{17};
  std::vector<gf::Element> data(kCount * code.k());
  for (auto& d : data) {
    d = static_cast<gf::Element>(rng.uniform_int(code.field().size()));
  }
  std::vector<gf::Element> plane(kCount * code.n());
  rs::DecoderWorkspace ws;
  ws.reserve(code);

  const gf::simd::Backend selected = gf::simd::select_backend();
  const auto time_backend = [&](gf::simd::Backend b) {
    gf::simd::force_backend(b);
    code.encode_batch(ws, data, plane);  // warm-up + buffer growth
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      code.encode_batch(ws, data, plane);
      const auto t1 = clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };

  const double scalar_s = time_backend(gf::simd::Backend::kScalar);
  const double simd_s = time_backend(selected);
  gf::simd::force_backend(selected);

  const double mb = static_cast<double>(kCount) * code.k() *
                    code.m() / 8.0 / 1e6;
  const double ratio = scalar_s / simd_s;
  // PSHUFB-or-better: the gfni affine backend replaces the two shuffles
  // with one instruction, so it inherits (at least) the PSHUFB contract.
  const bool pshufb = selected == gf::simd::Backend::kSsse3 ||
                      selected == gf::simd::Backend::kAvx2 ||
                      selected == gf::simd::Backend::kGfni;
  std::printf("plane-selfcheck: encode_batch RS(36,16) x %zu words\n",
              kCount);
  std::printf("  scalar  %8.3f ms  %8.1f MB/s\n", scalar_s * 1e3,
              mb / scalar_s);
  std::printf("  %-6s  %8.3f ms  %8.1f MB/s\n",
              gf::simd::to_string(selected), simd_s * 1e3, mb / simd_s);
  std::printf("  speedup %.2fx (threshold %s)\n", ratio,
              pshufb ? ">= 2x enforced" : "record-only");
  if (pshufb && ratio < 2.0) {
    std::printf("FAIL: PSHUFB backend below the 2x speedup contract\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plane-selfcheck") == 0) {
      return run_plane_selfcheck();
    }
  }
#if defined(NDEBUG)
  benchmark::AddCustomContext("rsmem_build_type", "release");
#else
  benchmark::AddCustomContext("rsmem_build_type", "debug");
#endif
  benchmark::AddCustomContext("gf_backend", gf::simd::active().name);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Differential suite for the SIMD GF(2^m) kernel layer (gf/simd_mul.h).
//
// The kernel layer's contract is BIT-IDENTITY: every backend (ssse3, avx2,
// gfni) must produce exactly the bytes of the scalar reference, and the
// codec must produce exactly the same outcomes and corrected words whether
// it runs kernels or its original scalar loops. This binary pins that
// contract at three levels:
//
//   1. kernel level   — mul_const_acc/xor_acc for every backend, every
//                       constant of every m in {2,3,4,8}, lengths crossing
//                       each backend's vector width, unaligned buffers;
//   2. codec level    — exhaustive weight-1..4 error/erasure patterns on
//                       small codes and randomized RS(36,16) noise, decoded
//                       under every backend in turn, against the Poly-based
//                       reference decoder (tests/oracles);
//   3. batch level    — encode_batch/decode_batch planes at counts that are
//                       not a multiple of any vector width, plus misaligned
//                       caller planes, against the forced-scalar control.
//
// It lives in its own test binary (label `codec`) because force_backend()
// swaps the process-wide kernel selection, which must not race with other
// suites exercising the codec.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/monte_carlo.h"
#include "gf/aligned.h"
#include "gf/galois_field.h"
#include "gf/simd_mul.h"
#include "oracles/reference_codec.h"
#include "rs/reed_solomon.h"

namespace {

using rsmem::gf::Element;
using rsmem::gf::GaloisField;
using rsmem::oracles::decode_legacy;
using rsmem::rs::CodeParams;
using rsmem::rs::DecodeOutcome;
using rsmem::rs::DecoderWorkspace;
using rsmem::rs::ReedSolomon;
namespace simd = rsmem::gf::simd;

// Restores the process-wide backend selection on scope exit so a failing
// test cannot leak a forced backend into later tests.
class BackendGuard {
 public:
  BackendGuard() : prev_(simd::active().backend) {}
  ~BackendGuard() { simd::force_backend(prev_); }

 private:
  simd::Backend prev_;
};

std::vector<simd::Backend> supported_backends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b : simd::kAllBackends) {
    if (simd::backend_supported(b)) out.push_back(b);
  }
  return out;
}

const simd::Kernels* kernels_of(simd::Backend b) {
  switch (b) {
    case simd::Backend::kScalar:
      return simd::scalar_kernels();
    case simd::Backend::kSsse3:
      return simd::ssse3_kernels();
    case simd::Backend::kAvx2:
      return simd::avx2_kernels();
    case simd::Backend::kGfni:
      return simd::gfni_kernels();
  }
  return nullptr;
}

// Lengths that straddle every backend's step size (16, 32, 64) plus the
// scalar tails on either side of each boundary.
const std::size_t kLengths[] = {0,  1,  3,  7,  8,  9,  15, 16, 17,
                                31, 32, 33, 63, 64, 65, 100};

TEST(SimdKernels, BaselineBackendsAlwaysSupported) {
  EXPECT_TRUE(simd::backend_supported(simd::Backend::kScalar));
  EXPECT_NE(kernels_of(simd::Backend::kScalar), nullptr);
  // The process selection is one of the supported backends.
  EXPECT_TRUE(simd::backend_supported(simd::active().backend));
  EXPECT_STREQ(simd::to_string(simd::active().backend), simd::active().name);
}

TEST(SimdKernels, ForceBackendRejectsUnsupported) {
  BackendGuard guard;
  for (const simd::Backend b : {simd::Backend::kSsse3, simd::Backend::kAvx2,
                                simd::Backend::kGfni}) {
    if (simd::backend_supported(b)) continue;
    EXPECT_FALSE(simd::force_backend(b));
  }
  ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  EXPECT_EQ(simd::active().backend, simd::Backend::kScalar);
}

// The scalar kernel IS the reference, so it gets its own independent check:
// mul_one through the split-nibble tables against GaloisField::mul for
// every (c, x) pair of every byte-sized field.
TEST(SimdKernels, ScalarKernelMatchesFieldExhaustively) {
  for (const unsigned m : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const GaloisField field(m);
    simd::MulTables t;
    for (Element c = 0; c < field.size(); ++c) {
      simd::build_tables(t, field, c);
      for (Element x = 0; x < field.size(); ++x) {
        ASSERT_EQ(simd::mul_one(t, static_cast<std::uint8_t>(x)),
                  field.mul(c, x))
            << "m=" << m << " c=" << c << " x=" << x;
      }
    }
  }
}

// Every compiled backend against the scalar kernels: all constants of
// m in {2,3,4,8}, all boundary-straddling lengths, unaligned src/dst.
TEST(SimdKernels, MulConstAccBitIdenticalAcrossBackends) {
  const auto* scalar = simd::scalar_kernels();
  const auto backends = supported_backends();
  for (const unsigned m : {2u, 3u, 4u, 8u}) {
    const GaloisField field(m);
    std::mt19937 rng(0xC0DEC0 + m);
    std::uniform_int_distribution<unsigned> sym(0, field.size() - 1);
    simd::MulTables t;
    for (Element c = 0; c < field.size(); ++c) {
      simd::build_tables(t, field, c);
      for (const std::size_t len : kLengths) {
        for (const std::size_t src_off : {0u, 1u, 3u}) {
          for (const std::size_t dst_off : {0u, 5u}) {
            std::vector<std::uint8_t> src(src_off + len);
            std::vector<std::uint8_t> dst(dst_off + len);
            for (auto& b : src) b = static_cast<std::uint8_t>(sym(rng));
            for (auto& b : dst) b = static_cast<std::uint8_t>(sym(rng));
            std::vector<std::uint8_t> want(dst.begin() + dst_off, dst.end());
            scalar->mul_const_acc(want.data(), src.data() + src_off, t, len);
            for (const simd::Backend b : backends) {
              std::vector<std::uint8_t> got(dst.begin() + dst_off, dst.end());
              kernels_of(b)->mul_const_acc(got.data(), src.data() + src_off,
                                           t, len);
              ASSERT_EQ(got, want)
                  << simd::to_string(b) << " m=" << m << " c=" << c
                  << " len=" << len << " soff=" << src_off
                  << " doff=" << dst_off;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, XorAccBitIdenticalAcrossBackends) {
  const auto* scalar = simd::scalar_kernels();
  const auto backends = supported_backends();
  std::mt19937 rng(0xA5A5);
  std::uniform_int_distribution<unsigned> byte(0, 255);
  for (const std::size_t len : kLengths) {
    for (const std::size_t off : {0u, 1u, 7u}) {
      std::vector<std::uint8_t> src(off + len);
      std::vector<std::uint8_t> dst(off + len);
      for (auto& b : src) b = static_cast<std::uint8_t>(byte(rng));
      for (auto& b : dst) b = static_cast<std::uint8_t>(byte(rng));
      std::vector<std::uint8_t> want(dst.begin() + off, dst.end());
      scalar->xor_acc(want.data(), src.data() + off, len);
      for (const simd::Backend b : backends) {
        std::vector<std::uint8_t> got(dst.begin() + off, dst.end());
        kernels_of(b)->xor_acc(got.data(), src.data() + off, len);
        ASSERT_EQ(got, want)
            << simd::to_string(b) << " len=" << len << " off=" << off;
      }
    }
  }
}

// The fused multi-row kernel against a scalar mul_const_acc loop: random
// constants (zeros included), boundary-straddling lengths, row counts
// around the codec's two_t sweeps, rows packed at stride = len + slack so
// out-of-row writes would corrupt a neighbour and fail the compare.
TEST(SimdKernels, MulRowsAccMatchesMulConstAccLoop) {
  const auto* scalar = simd::scalar_kernels();
  for (const unsigned m : {3u, 8u}) {
    const GaloisField field(m);
    std::mt19937 rng(0xF05ED + m);
    std::uniform_int_distribution<unsigned> sym(0, field.size() - 1);
    for (const std::size_t rows : {1u, 5u, 32u}) {
      for (const std::size_t len : kLengths) {
        for (const std::size_t src_off : {0u, 3u}) {
          const std::size_t stride = len + 8;
          std::vector<simd::MulTables> tables(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            // Every 4th row gets c = 0 to exercise the skip path.
            const Element c =
                (r % 4 == 3) ? 0 : static_cast<Element>(sym(rng));
            simd::build_tables(tables[r], field, c);
          }
          std::vector<std::uint8_t> src(src_off + len);
          std::vector<std::uint8_t> dst(rows * stride);
          for (auto& b : src) b = static_cast<std::uint8_t>(sym(rng));
          for (auto& b : dst) b = static_cast<std::uint8_t>(sym(rng));
          std::vector<std::uint8_t> want = dst;
          for (std::size_t r = 0; r < rows; ++r) {
            scalar->mul_const_acc(want.data() + r * stride,
                                  src.data() + src_off, tables[r], len);
          }
          for (const simd::Backend b : supported_backends()) {
            if (b == simd::Backend::kScalar) continue;
            const simd::Kernels* kn = kernels_of(b);
            // The batch codec calls it unguarded on every vector backend.
            ASSERT_NE(kn->mul_rows_acc, nullptr) << simd::to_string(b);
            std::vector<std::uint8_t> got = dst;
            kn->mul_rows_acc(got.data(), stride, src.data() + src_off,
                             tables.data(), rows, len);
            ASSERT_EQ(got, want)
                << simd::to_string(b) << " m=" << m << " rows=" << rows
                << " len=" << len << " soff=" << src_off;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ZeroConstantLeavesDstUntouched) {
  for (const unsigned m : {2u, 8u}) {
    const GaloisField field(m);
    simd::MulTables t;
    simd::build_tables(t, field, 0);
    std::vector<std::uint8_t> src(100, 0x3);
    for (const simd::Backend b : supported_backends()) {
      std::vector<std::uint8_t> dst(100, 0x7);
      kernels_of(b)->mul_const_acc(dst.data(), src.data(), t, dst.size());
      EXPECT_EQ(dst, std::vector<std::uint8_t>(100, 0x7))
          << simd::to_string(b);
    }
  }
}

// ---- hot-table alignment (the SoA planes and constant tables the kernels
// stream through are 64-byte aligned; caller buffers need not be) ---------

TEST(HotPathAlignment, TablesAndPlanesAreCacheLineAligned) {
  static_assert(sizeof(simd::MulTables) == rsmem::gf::kHotPathAlignment);
  static_assert(alignof(simd::MulTables) == rsmem::gf::kHotPathAlignment);
  const GaloisField field(8);
  EXPECT_TRUE(rsmem::gf::is_hot_path_aligned(field.dense_mul_table()));
  rsmem::gf::AlignedVector<std::uint8_t> plane(1000);
  EXPECT_TRUE(rsmem::gf::is_hot_path_aligned(plane.data()));
  rsmem::gf::AlignedVector<simd::MulTables> tables(3);
  EXPECT_TRUE(rsmem::gf::is_hot_path_aligned(tables.data()));
  // Row strides keep successive rows on the boundary.
  EXPECT_EQ(rsmem::gf::aligned_stride(1), 64u);
  EXPECT_EQ(rsmem::gf::aligned_stride(64), 64u);
  EXPECT_EQ(rsmem::gf::aligned_stride(65), 128u);
}

// ---- codec-level differential: every backend vs the reference decoder ---

void expect_same_decode(const ReedSolomon& code, DecoderWorkspace& ws,
                        const std::vector<Element>& noisy,
                        const std::vector<unsigned>& erasures,
                        const char* tag) {
  std::vector<Element> legacy_word = noisy;
  std::vector<Element> fast_word = noisy;
  const DecodeOutcome legacy = decode_legacy(code, legacy_word, erasures);
  const DecodeOutcome fast = code.decode(ws, fast_word, erasures);
  ASSERT_EQ(fast.status, legacy.status) << tag;
  ASSERT_EQ(fast.errors_corrected, legacy.errors_corrected) << tag;
  ASSERT_EQ(fast.erasures_corrected, legacy.erasures_corrected) << tag;
  ASSERT_EQ(fast_word, legacy_word) << tag;
}

// All weight-1..4 patterns on small codes: every position subset; values
// exhaustive for weight <= 2 over GF(2^3)/GF(2^4), randomized otherwise.
// Each subset is also replayed with every sub-pattern of erasure flags.
void run_pattern_sweep(const CodeParams& params) {
  const ReedSolomon code(params);
  DecoderWorkspace ws;
  ws.reserve(code);
  const unsigned n = code.n();
  std::mt19937 rng(params.m * 77 + params.n);
  std::uniform_int_distribution<unsigned> sym(1, code.field().size() - 1);
  std::vector<Element> data(code.k());
  for (auto& d : data) d = sym(rng) % code.field().size();
  const std::vector<Element> codeword = code.encode(data);

  std::vector<unsigned> pos(n);
  std::iota(pos.begin(), pos.end(), 0);
  for (unsigned weight = 1; weight <= 4 && weight <= n; ++weight) {
    std::vector<bool> select(n, false);
    std::fill(select.end() - weight, select.end(), true);
    do {
      std::vector<unsigned> hits;
      for (unsigned p = 0; p < n; ++p) {
        if (select[p]) hits.push_back(p);
      }
      // A few value assignments per position set (exhaustive would be
      // size^weight; the kernel layer has no value-dependent branches
      // beyond the nibble split, which the kernel-level sweep covers
      // exhaustively).
      const unsigned value_trials = weight <= 2 ? 8 : 4;
      for (unsigned trial = 0; trial < value_trials; ++trial) {
        std::vector<Element> noisy = codeword;
        for (const unsigned p : hits) noisy[p] ^= sym(rng);
        // Erasure sub-patterns: none, all hits, first half of the hits.
        for (const unsigned flavour : {0u, 1u, 2u}) {
          std::vector<unsigned> erasures;
          if (flavour == 1) erasures = hits;
          if (flavour == 2) {
            erasures.assign(hits.begin(),
                            hits.begin() + (hits.size() + 1) / 2);
          }
          expect_same_decode(code, ws, noisy, erasures, "pattern sweep");
        }
      }
    } while (std::next_permutation(select.begin(), select.end()));
  }
}

TEST(CodecDifferential, SmallCodePatternsEveryBackend) {
  BackendGuard guard;
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    run_pattern_sweep(CodeParams{3, 1, 2, 1});
    run_pattern_sweep(CodeParams{7, 3, 3, 1});
    run_pattern_sweep(CodeParams{7, 3, 4, 1});
    run_pattern_sweep(CodeParams{7, 3, 8, 1});
  }
}

// RS(36,16) is the paper's duplex code and the smallest tier-1 code whose
// n and 2t clear the kernel engagement thresholds, so this sweep actually
// runs the per-word SIMD syndrome/Chien/LFSR paths.
TEST(CodecDifferential, Rs3616RandomNoiseEveryBackend) {
  BackendGuard guard;
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    const ReedSolomon code(36, 16, 8);
    DecoderWorkspace ws;
    ws.reserve(code);
    std::mt19937 rng(0xDA7E05);
    std::uniform_int_distribution<unsigned> sym(0, 255);
    std::uniform_int_distribution<unsigned> posd(0, 35);
    for (unsigned trial = 0; trial < 200; ++trial) {
      std::vector<Element> data(16);
      for (auto& d : data) d = sym(rng);
      std::vector<Element> noisy = code.encode(data);
      const unsigned weight = trial % 14;  // 0..13, beyond capability too
      std::vector<unsigned> hit_set;
      for (unsigned i = 0; i < weight; ++i) {
        const unsigned p = posd(rng);
        if (std::find(hit_set.begin(), hit_set.end(), p) == hit_set.end()) {
          hit_set.push_back(p);
          noisy[p] ^= 1 + sym(rng) % 255;
        }
      }
      std::vector<unsigned> erasures;
      for (std::size_t i = 0; i + 1 < hit_set.size(); i += 2) {
        erasures.push_back(hit_set[i]);
      }
      expect_same_decode(code, ws, noisy, erasures, "rs(36,16) noise");
    }
  }
}

// ---- exhaustive erasure subsets: the guarantee duplex scrub replay uses --

// Walks every erasure set of `code` as a bitmask, as a binary counter (the
// druid rs.c model). A set of at most n - k erasures, with random values
// written into the erased positions, must decode to the codeword with no
// error corrected; one more erasure must be a detected failure.
void check_every_erasure_subset(const ReedSolomon& code, std::mt19937& rng,
                                DecoderWorkspace& ws) {
  const unsigned n = code.n();
  const unsigned parity = code.parity_symbols();
  std::uniform_int_distribution<unsigned> sym(0, code.field().size() - 1);
  std::vector<Element> data(code.k());
  for (auto& d : data) d = sym(rng);
  const std::vector<Element> codeword = code.encode(data);
  std::vector<Element> word(n);
  std::vector<unsigned> erasures;
  erasures.reserve(n);
  const std::string tag = "RS(" + std::to_string(n) + "," +
                          std::to_string(code.k()) + ") over GF(2^" +
                          std::to_string(code.m()) + ")";
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    const unsigned size = static_cast<unsigned>(__builtin_popcount(mask));
    if (size > parity + 1) continue;
    word = codeword;
    erasures.clear();
    for (unsigned p = 0; p < n; ++p) {
      if ((mask >> p) & 1) {
        erasures.push_back(p);
        word[p] = static_cast<Element>(sym(rng));
      }
    }
    const DecodeOutcome outcome = code.decode(ws, word, erasures);
    if (size <= parity) {
      ASSERT_TRUE(outcome.ok()) << tag << ", mask " << mask;
      ASSERT_EQ(outcome.errors_corrected, 0u) << tag << ", mask " << mask;
      ASSERT_EQ(word, codeword) << tag << ", mask " << mask;
    } else {
      ASSERT_EQ(outcome.status, rsmem::rs::DecodeStatus::kFailure)
          << tag << ", mask " << mask;
    }
  }
}

TEST(ExhaustiveErasures, EverySubsetWithinNMinusKRestoresTheCodeword) {
  // Every RS(n,k) over GF(2^m), m in {2,3,4}, plus the duplex RS(18,16).
  std::mt19937 rng(0xE5A5E);
  DecoderWorkspace ws;
  std::size_t codes = 0;
  for (const unsigned m : {2u, 3u, 4u}) {
    for (unsigned n = 2; n <= (1u << m) - 1; ++n) {
      for (unsigned k = 1; k < n; ++k) {
        check_every_erasure_subset(ReedSolomon(n, k, m), rng, ws);
        if (HasFatalFailure()) return;
        ++codes;
      }
    }
  }
  check_every_erasure_subset(ReedSolomon(18, 16, 8), rng, ws);
  EXPECT_EQ(codes, 3u + 21u + 105u);
}

// ---- batch planes: counts off every vector width, misaligned planes -----

const std::size_t kPlaneCounts[] = {1, 2, 3, 5, 17, 33};

TEST(BatchDifferential, EncodePlaneMatchesScalarControl) {
  BackendGuard guard;
  const ReedSolomon code(36, 16, 8);
  DecoderWorkspace ws;
  ws.reserve(code);
  std::mt19937 rng(0xBA7C4);
  std::uniform_int_distribution<unsigned> sym(0, 255);
  for (const std::size_t count : kPlaneCounts) {
    std::vector<Element> data(count * code.k());
    for (auto& d : data) d = sym(rng);
    // Scalar control: the original per-word LFSR loops.
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    std::vector<Element> want(count * code.n());
    code.encode_batch(ws, data, want);
    for (const simd::Backend b : supported_backends()) {
      ASSERT_TRUE(simd::force_backend(b));
      std::vector<Element> got(count * code.n(), 0);
      code.encode_batch(ws, data, got);
      ASSERT_EQ(got, want) << simd::to_string(b) << " count=" << count;
    }
  }
}

TEST(BatchDifferential, DecodePlaneMatchesScalarControl) {
  BackendGuard guard;
  const ReedSolomon code(36, 16, 8);
  DecoderWorkspace ws;
  ws.reserve(code);
  std::mt19937 rng(0xD0DEC);
  std::uniform_int_distribution<unsigned> sym(0, 255);
  std::uniform_int_distribution<unsigned> posd(0, 35);
  for (const std::size_t count : kPlaneCounts) {
    std::vector<Element> data(count * code.k());
    for (auto& d : data) d = sym(rng);
    std::vector<Element> plane(count * code.n());
    code.encode_batch(ws, data, plane);
    std::vector<std::uint8_t> flags(plane.size(), 0);
    for (std::size_t w = 0; w < count; ++w) {
      // Word w gets w%8 corruptions, half of them flagged as erasures;
      // leaves a mix of clean words, correctable words, and failures.
      for (unsigned i = 0; i < w % 8; ++i) {
        const unsigned p = posd(rng);
        plane[w * code.n() + p] ^= 1 + sym(rng) % 255;
        if (i % 2 == 0) flags[w * code.n() + p] = 1;
      }
    }
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    std::vector<Element> want_plane = plane;
    std::vector<DecodeOutcome> want(count);
    code.decode_batch(ws, want_plane, want, flags);
    for (const simd::Backend b : supported_backends()) {
      ASSERT_TRUE(simd::force_backend(b));
      std::vector<Element> got_plane = plane;
      std::vector<DecodeOutcome> got(count);
      code.decode_batch(ws, got_plane, got, flags);
      ASSERT_EQ(got_plane, want_plane)
          << simd::to_string(b) << " count=" << count;
      for (std::size_t w = 0; w < count; ++w) {
        ASSERT_EQ(got[w].status, want[w].status)
            << simd::to_string(b) << " count=" << count << " w=" << w;
        ASSERT_EQ(got[w].errors_corrected, want[w].errors_corrected);
        ASSERT_EQ(got[w].erasures_corrected, want[w].erasures_corrected);
      }
    }
  }
}

// Caller planes are NOT required to be 64-byte aligned: the kernels use
// unaligned loads and the SoA staging re-bases everything. Regression for
// the alignment work — feed planes deliberately off the hot-path boundary.
TEST(BatchDifferential, MisalignedCallerPlanes) {
  BackendGuard guard;
  const ReedSolomon code(36, 16, 8);
  DecoderWorkspace ws;
  ws.reserve(code);
  std::mt19937 rng(0x0FF5E7);
  std::uniform_int_distribution<unsigned> sym(0, 255);
  const std::size_t count = 17;
  // Backing stores with a one-element skew so the spans handed to the
  // codec sit 4 bytes off any 64-byte boundary.
  std::vector<Element> data_store(count * code.k() + 1);
  std::vector<Element> plane_store(count * code.n() + 1);
  const std::span<Element> data(data_store.data() + 1, count * code.k());
  const std::span<Element> plane(plane_store.data() + 1, count * code.n());
  for (auto& d : data) d = sym(rng);

  ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  std::vector<Element> want(count * code.n());
  code.encode_batch(ws, data, want);
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    code.encode_batch(ws, data, plane);
    ASSERT_TRUE(std::equal(plane.begin(), plane.end(), want.begin()))
        << simd::to_string(b);
    // Corrupt in place, decode in place through the misaligned span.
    std::vector<DecodeOutcome> outcomes(count);
    plane[5] ^= 0x21;
    plane[3 * code.n() + 7] ^= 0x9;
    code.decode_batch(ws, plane, outcomes);
    EXPECT_EQ(outcomes[0].status, rsmem::rs::DecodeStatus::kCorrected)
        << simd::to_string(b);
    EXPECT_EQ(outcomes[3].status, rsmem::rs::DecodeStatus::kCorrected)
        << simd::to_string(b);
    for (const std::size_t w : {1u, 2u, 4u, 16u}) {
      EXPECT_EQ(outcomes[w].status, rsmem::rs::DecodeStatus::kNoError)
          << simd::to_string(b) << " w=" << w;
    }
    ASSERT_TRUE(std::equal(plane.begin(), plane.end(), want.begin()))
        << simd::to_string(b);
  }
}

// Erasure-first planes: words whose damage is dominated by FLAGGED symbol
// positions (the located-permanent-fault shape the memory systems feed the
// batch decoder), at off-width counts, with erasure loads sweeping from
// zero through full capability to beyond-capability — each word checked
// against the reference decoder with the equivalent ascending position
// list.
TEST(BatchDifferential, ErasureFirstPlanesMatchLegacyOffWidths) {
  BackendGuard guard;
  const ReedSolomon code(36, 16, 8);
  DecoderWorkspace ws;
  ws.reserve(code);
  const unsigned n = code.n();
  const unsigned cap = code.n() - code.k();  // erasure-only capability
  std::mt19937 rng(0xE7A5E5);
  std::uniform_int_distribution<unsigned> sym(0, 255);
  std::uniform_int_distribution<unsigned> posd(0, n - 1);
  for (const std::size_t count : kPlaneCounts) {
    std::vector<Element> data(count * code.k());
    for (auto& d : data) d = sym(rng);
    std::vector<Element> plane(count * n);
    code.encode_batch(ws, data, plane);
    std::vector<std::uint8_t> flags(plane.size(), 0);
    std::vector<std::vector<unsigned>> erasures(count);
    for (std::size_t w = 0; w < count; ++w) {
      // Word w carries w % (cap + 3) erasures: sweeps clean words, partial
      // loads, exactly-at-capability, and beyond-capability failures.
      const unsigned load = static_cast<unsigned>(w % (cap + 3));
      while (erasures[w].size() < load) {
        const unsigned p = posd(rng);
        if (flags[w * n + p] != 0) continue;
        flags[w * n + p] = 1;
        erasures[w].push_back(p);
        // Erased content is untrusted: trash it (sometimes to itself).
        plane[w * n + p] = sym(rng);
      }
      std::sort(erasures[w].begin(), erasures[w].end());
      // Half the words also take one random (unflagged) error on top.
      if (w % 2 == 1) plane[w * n + posd(rng)] ^= 1 + sym(rng) % 255;
    }
    std::vector<Element> legacy_plane = plane;
    std::vector<DecodeOutcome> legacy(count);
    for (std::size_t w = 0; w < count; ++w) {
      const std::span<Element> word{legacy_plane.data() + w * n, n};
      legacy[w] = decode_legacy(code, word, erasures[w]);
    }
    for (const simd::Backend b : supported_backends()) {
      ASSERT_TRUE(simd::force_backend(b));
      std::vector<Element> got_plane = plane;
      std::vector<DecodeOutcome> got(count);
      code.decode_batch(ws, got_plane, got, flags);
      ASSERT_EQ(got_plane, legacy_plane)
          << simd::to_string(b) << " count=" << count;
      for (std::size_t w = 0; w < count; ++w) {
        ASSERT_EQ(got[w].status, legacy[w].status)
            << simd::to_string(b) << " count=" << count << " w=" << w;
        ASSERT_EQ(got[w].errors_corrected, legacy[w].errors_corrected)
            << simd::to_string(b) << " count=" << count << " w=" << w;
        ASSERT_EQ(got[w].erasures_corrected, legacy[w].erasures_corrected)
            << simd::to_string(b) << " count=" << count << " w=" << w;
      }
    }
  }
}

// Batch APIs must reject out-of-field symbols identically on both routes.
TEST(BatchDifferential, ValidationIdenticalAcrossRoutes) {
  BackendGuard guard;
  const ReedSolomon code(36, 16, 8);
  DecoderWorkspace ws;
  ws.reserve(code);
  const std::size_t count = 8;  // above the SoA threshold
  std::vector<Element> data(count * code.k(), 1);
  std::vector<Element> plane(count * code.n());
  data[5 * code.k() + 3] = 256;  // out of GF(2^8)
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    EXPECT_THROW(code.encode_batch(ws, data, plane), std::invalid_argument)
        << simd::to_string(b);
  }
  data[5 * code.k() + 3] = 1;
  code.encode_batch(ws, data, plane);
  plane[2 * code.n() + 1] = 300;
  std::vector<DecodeOutcome> outcomes(count);
  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    EXPECT_THROW(code.decode_batch(ws, plane, outcomes),
                 std::invalid_argument)
        << simd::to_string(b);
  }
}

// ---- campaign level: batched trial planes vs the per-trial read() path --
//
// The Monte-Carlo engine's batched gather/decode/scatter path must be
// bit-identical to the historical per-trial path for every batch width and
// on every backend. batch_trials = 1 forces the per-trial control; the
// width-64 default and off-width settings must reproduce it exactly —
// including the per-trial observer records.

namespace analysis = rsmem::analysis;
namespace memory = rsmem::memory;

// Packs one trial's full observable signature (outcome flags, per-word
// decoder claims, ground-truth damage, fault counts) into a fingerprint.
std::uint64_t trial_signature(const analysis::TrialRecord& record) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(record.success ? 1 : 0);
  mix(record.data_correct ? 1 : 0);
  mix(record.word_count);
  for (unsigned w = 0; w < record.word_count; ++w) {
    const analysis::WordObservation& word = record.words[w];
    mix(word.decode_ok ? 1 : 0);
    mix(word.errors_corrected);
    mix(word.erasures_corrected);
    mix(word.erasures_supplied);
    mix(word.erased_symbols);
    mix(word.corrupted_symbols);
  }
  mix(record.seu_injected);
  mix(record.permanent_injected);
  return h;
}

void expect_same_campaign(const analysis::MonteCarloResult& got,
                          const analysis::MonteCarloResult& want,
                          const std::vector<std::uint64_t>& got_sigs,
                          const std::vector<std::uint64_t>& want_sigs,
                          const std::string& tag) {
  EXPECT_EQ(got.failure.trials, want.failure.trials) << tag;
  EXPECT_EQ(got.failure.failures, want.failure.failures) << tag;
  EXPECT_EQ(got.mean_seu_per_trial, want.mean_seu_per_trial) << tag;
  EXPECT_EQ(got.mean_permanent_per_trial, want.mean_permanent_per_trial)
      << tag;
  EXPECT_EQ(got.scrub_failures, want.scrub_failures) << tag;
  EXPECT_EQ(got.scrub_miscorrections, want.scrub_miscorrections) << tag;
  EXPECT_EQ(got.no_output_failures, want.no_output_failures) << tag;
  EXPECT_EQ(got.wrong_data_failures, want.wrong_data_failures) << tag;
  ASSERT_EQ(got_sigs.size(), want_sigs.size()) << tag;
  for (std::size_t t = 0; t < want_sigs.size(); ++t) {
    ASSERT_EQ(got_sigs[t], want_sigs[t]) << tag << " trial=" << t;
  }
}

// Off-width batch settings (primes, sub-SoA-threshold widths, the default,
// wider-than-chunk) against the width-1 per-trial control.
const std::size_t kBatchWidths[] = {2, 3, 5, 64, 4096};

TEST(CampaignDifferential, BatchedSimplexMatchesPerWordEveryBackend) {
  BackendGuard guard;
  memory::SimplexSystemConfig cfg;
  cfg.code = rsmem::rs::CodeParams{36, 16, 8, 1};
  cfg.rates.seu_rate_per_bit_hour = 2.0 / 24.0;
  cfg.rates.perm_rate_per_symbol_hour = 0.3 / 24.0;

  analysis::MonteCarloConfig mc;
  mc.trials = 600;
  mc.t_end_hours = 48.0;
  mc.seed = 0x5117;
  mc.threads = 1;
  std::vector<std::uint64_t> sigs(mc.trials, 0);
  mc.observer = [&sigs](const analysis::TrialRecord& record) {
    sigs[record.trial_index] = trial_signature(record);
  };

  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    mc.batch_trials = 1;  // per-trial read() control
    const analysis::MonteCarloResult want = run_simplex_trials(cfg, mc);
    const std::vector<std::uint64_t> want_sigs = sigs;
    ASSERT_GT(want.failure.failures, 0u) << "workload too tame to differ";
    for (const std::size_t width : kBatchWidths) {
      mc.batch_trials = width;
      std::fill(sigs.begin(), sigs.end(), 0);
      const analysis::MonteCarloResult got = run_simplex_trials(cfg, mc);
      expect_same_campaign(got, want, sigs, want_sigs,
                           std::string("simplex ") + simd::to_string(b) +
                               " width=" + std::to_string(width));
    }
  }
}

TEST(CampaignDifferential, BatchedDuplexMatchesPerWordEveryBackend) {
  BackendGuard guard;
  memory::DuplexSystemConfig cfg;
  cfg.code = rsmem::rs::CodeParams{18, 16, 8, 1};
  cfg.rates.seu_rate_per_bit_hour = 0.5 / 24.0;
  cfg.rates.perm_rate_per_symbol_hour = 0.25 / 24.0;

  analysis::MonteCarloConfig mc;
  mc.trials = 400;
  mc.t_end_hours = 48.0;
  mc.seed = 0xD0B1E;
  mc.threads = 1;
  mc.chunk_trials = 97;  // off-width chunks: batches straddle chunk ends
  std::vector<std::uint64_t> sigs(mc.trials, 0);
  mc.observer = [&sigs](const analysis::TrialRecord& record) {
    sigs[record.trial_index] = trial_signature(record);
  };

  for (const simd::Backend b : supported_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    mc.batch_trials = 1;
    const analysis::MonteCarloResult want = run_duplex_trials(cfg, mc);
    const std::vector<std::uint64_t> want_sigs = sigs;
    ASSERT_GT(want.failure.failures, 0u) << "workload too tame to differ";
    for (const std::size_t width : kBatchWidths) {
      mc.batch_trials = width;
      std::fill(sigs.begin(), sigs.end(), 0);
      const analysis::MonteCarloResult got = run_duplex_trials(cfg, mc);
      expect_same_campaign(got, want, sigs, want_sigs,
                           std::string("duplex ") + simd::to_string(b) +
                               " width=" + std::to_string(width));
    }
  }
}

}  // namespace

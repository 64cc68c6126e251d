// SIMD GF(2^m) constant-by-vector kernels (m <= 8) with runtime dispatch.
//
// The RS codec's hot loops (systematic LFSR encoding, syndrome computation,
// Chien search, and the batch encode/decode planes) reduce to two byte-wise
// primitives over field elements packed one-per-byte:
//
//   mul_const_acc:  dst[i] ^= c * src[i]      (constant c, vector src)
//   xor_acc:        dst[i] ^= src[i]
//   mul_rows_acc:   dst_r[i] ^= c_r * src[i]  (many constants, one src row;
//                   fused form of a mul_const_acc loop, vector backends)
//
// Constant-by-vector multiplication uses the ISA-L-style split-nibble
// decomposition: c*x = c*(x & 0xF) ^ c*(x & 0xF0), each factor a 16-entry
// table lookup, which maps 1:1 onto PSHUFB/VPSHUFB. Backends:
//
//   kScalar  byte-at-a-time nibble lookups; the A/B control. When the
//            active backend is kScalar the RS codec bypasses the kernel
//            layer entirely and runs its original scalar loops.
//   kSsse3   PSHUFB split-nibble, 16 bytes per step (x86 SSSE3).
//   kAvx2    VPSHUFB split-nibble, 32 bytes per step (x86 AVX2).
//   kGfni    GF2P8AFFINEQB affine multiply, 64 bytes per step (x86 GFNI +
//            AVX-512F/BW, with AVX-512VL 256/128-bit tail steps).
//            Constant-by-x multiplication in GF(2^m) is GF(2)-linear in x,
//            so c*x is one 8x8 bit-matrix transform — one instruction where
//            the PSHUFB backends need two shuffles plus mask/shift/xor.
//
// DISPATCH / ONE-BACKEND-PER-PROCESS RULE: the backend is chosen once, on
// first use, by select_backend() — compile-time per-arch availability,
// then the RSMEM_GF_BACKEND environment knob
// (scalar|ssse3|avx2|gfni|auto), then CPUID feature detection, best first
// (gfni > avx2 > ssse3), falling back to scalar on hosts with none.
// All threads share the selected kernel table for the life of the process.
// force_backend() exists ONLY for tests and benchmarks that A/B the
// backends in a single process; it is not thread-safe against concurrent
// codec use and must never be called from production code.
//
// Every backend computes bit-identical results: all kernels evaluate exact
// GF(2^m) products, and the exhaustive differential suite
// (tests/test_simd_kernels.cpp) pins each backend against the scalar path
// across vector-width tails and unaligned buffers.
#ifndef RSMEM_GF_SIMD_MUL_H
#define RSMEM_GF_SIMD_MUL_H

#include <cstddef>
#include <cstdint>

#include "gf/aligned.h"
#include "gf/galois_field.h"

namespace rsmem::gf::simd {

enum class Backend : std::uint8_t { kScalar = 0, kSsse3, kAvx2, kGfni };

// Every backend, in dispatch preference order (best last). Iteration helper
// for version reporting and the differential suite.
inline constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kSsse3,
                                           Backend::kAvx2, Backend::kGfni};

// Split-nibble multiplication tables for one constant c in GF(2^m), m <= 8:
//   lo[v] = c * v          for v in [0, 16)
//   hi[v] = c * (v << 4)   for v with (v << 4) inside the field, else 0
// plus the constant c itself and the 8x8 GF(2) bit matrix of x -> c*x for
// the GFNI backend: qword byte (7 - i) holds row i (the mask of input bits
// feeding output bit i, i.e. bit j is set iff bit i of c * 2^j is, with
// columns j >= m zeroed) — exactly the operand layout of GF2P8AFFINEQB.
// 64-byte aligned so a kernel can load all tables from one cache line.
struct alignas(kHotPathAlignment) MulTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
  std::uint64_t affine = 0;  // GFNI affine matrix of x -> c*x
  std::uint8_t c = 0;
};
static_assert(sizeof(MulTables) == kHotPathAlignment,
              "MulTables must occupy exactly one cache line");
static_assert(alignof(MulTables) == kHotPathAlignment,
              "MulTables must be cache-line aligned");

// Fills `t` with the split-nibble tables for constant c over `field`.
// Requires field.m() <= 8 and c inside the field.
void build_tables(MulTables& t, const GaloisField& field, Element c);

// One backend's kernel set. Buffers may be arbitrarily aligned (kernels
// issue unaligned loads/stores); len is in bytes/elements. dst and src must
// not partially overlap (dst == src is allowed for xor_acc-style zeroing
// tricks but the codec never relies on it).
struct Kernels {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";
  // dst[i] ^= c * src[i], i in [0, len)
  void (*mul_const_acc)(std::uint8_t* dst, const std::uint8_t* src,
                        const MulTables& t, std::size_t len) = nullptr;
  // dst[i] ^= src[i], i in [0, len)
  void (*xor_acc)(std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t len) = nullptr;
  // dst[r * dst_stride + i] ^= tables[r].c * src[i] for every row
  // r in [0, rows), i in [0, len). Semantically a mul_const_acc loop over
  // `rows` consecutive MulTables sharing one source row, fused so the
  // source loads (and, on the PSHUFB backends, the nibble extraction) are
  // paid once per vector step instead of once per row — the shape of the
  // batch codec's syndrome/parity sweeps, which call this once per
  // codeword position. Every vector backend (ssse3, avx2, gfni) must
  // provide it; only kScalar leaves it null, and the codec never runs its
  // batch sweeps through the kScalar set. The dst rows must not overlap
  // src or each other.
  void (*mul_rows_acc)(std::uint8_t* dst, std::size_t dst_stride,
                       const std::uint8_t* src, const MulTables* tables,
                       std::size_t rows, std::size_t len) = nullptr;
};

// True if `b` is compiled in AND usable on this host (CPUID-checked for the
// vector backends). kScalar is always supported.
bool backend_supported(Backend b);

// The backend select_backend() would pick from compile gates, the
// RSMEM_GF_BACKEND environment knob, and CPUID — without touching the
// process-wide selection.
Backend select_backend();

// The process-wide kernel set, selected once on first call (thread-safe).
const Kernels& active();

// Test/bench-only: swap the active kernel set. Returns false (and leaves
// the selection unchanged) if `b` is unsupported on this host. NOT
// thread-safe against concurrent codec use; see the one-backend-per-process
// rule above.
bool force_backend(Backend b);

const char* to_string(Backend b);

// Scalar reference for one element: c * x via the split-nibble tables.
inline std::uint8_t mul_one(const MulTables& t, std::uint8_t x) {
  return static_cast<std::uint8_t>(t.lo[x & 0xF] ^ t.hi[x >> 4]);
}

// Internal: per-backend kernel tables. kSsse3/kAvx2/kGfni return nullptr
// when the translation unit was not compiled (non-x86 or an old compiler).
// A non-null table only proves the backend is compiled in —
// backend_supported() additionally checks the host CPU.
const Kernels* scalar_kernels();
const Kernels* ssse3_kernels();
const Kernels* avx2_kernels();
const Kernels* gfni_kernels();

}  // namespace rsmem::gf::simd

#endif  // RSMEM_GF_SIMD_MUL_H

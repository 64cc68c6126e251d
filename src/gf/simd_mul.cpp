// Scalar GF(2^m) kernels and the runtime backend dispatcher.
//
// The vector-ISA backends live in their own translation units
// (simd_mul_ssse3.cpp / simd_mul_avx2.cpp / simd_mul_gfni.cpp) compiled
// with the matching per-file -m flags, so the rest of the library never
// emits an instruction the host might not have; this file only ever calls
// them through function pointers after a CPUID check.
#include "gf/simd_mul.h"

#include <atomic>
#include <cstdlib>
#include <string>

namespace rsmem::gf::simd {

namespace {

// ---- scalar backend: byte-at-a-time split-nibble lookups ----------------

void scalar_mul_const_acc(std::uint8_t* dst, const std::uint8_t* src,
                          const MulTables& t, std::size_t len) {
  if (t.c == 0) return;
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= mul_one(t, src[i]);
}

void scalar_xor_acc(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
}

constexpr Kernels kScalarKernels{Backend::kScalar, "scalar",
                                 &scalar_mul_const_acc, &scalar_xor_acc};

// ---- dispatch -----------------------------------------------------------

bool cpu_supports(Backend b) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (b == Backend::kSsse3) return __builtin_cpu_supports("ssse3") != 0;
  if (b == Backend::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  if (b == Backend::kGfni) {
    // The kernels use the 512-bit form plus VL 256/128-bit tail steps, so
    // GFNI alone (as shipped on some SSE-only parts) is not enough.
    return __builtin_cpu_supports("gfni") != 0 &&
           __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
  }
#endif
  if (b == Backend::kSsse3 || b == Backend::kAvx2 || b == Backend::kGfni) {
    return false;
  }
  return true;
}

const Kernels* kernels_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return scalar_kernels();
    case Backend::kSsse3:
      return ssse3_kernels();
    case Backend::kAvx2:
      return avx2_kernels();
    case Backend::kGfni:
      return gfni_kernels();
  }
  return nullptr;
}

// Parses RSMEM_GF_BACKEND; returns true and sets `out` on a recognized
// explicit backend name, false for unset/"auto"/unrecognized.
bool env_backend(Backend& out) {
  const char* env = std::getenv("RSMEM_GF_BACKEND");
  if (env == nullptr || *env == '\0') return false;
  const std::string v{env};
  if (v == "scalar") return out = Backend::kScalar, true;
  if (v == "ssse3") return out = Backend::kSsse3, true;
  if (v == "avx2") return out = Backend::kAvx2, true;
  if (v == "gfni") return out = Backend::kGfni, true;
  return false;  // "auto" and unknown values fall through to detection
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels* scalar_kernels() { return &kScalarKernels; }

#if !defined(RSMEM_HAVE_SSSE3)
const Kernels* ssse3_kernels() { return nullptr; }
#endif
#if !defined(RSMEM_HAVE_AVX2)
const Kernels* avx2_kernels() { return nullptr; }
#endif
#if !defined(RSMEM_HAVE_GFNI)
const Kernels* gfni_kernels() { return nullptr; }
#endif

void build_tables(MulTables& t, const GaloisField& field, Element c) {
  const std::uint32_t size = field.size();
  t.c = static_cast<std::uint8_t>(c);
  for (unsigned v = 0; v < 16; ++v) {
    t.lo[v] = v < size ? static_cast<std::uint8_t>(field.mul(c, v)) : 0;
    const unsigned vh = v << 4;
    t.hi[v] = vh < size ? static_cast<std::uint8_t>(field.mul(c, vh)) : 0;
  }
  // GFNI affine matrix: multiplication by c is GF(2)-linear, so column j of
  // the 8x8 bit matrix is c * 2^j (zero for j >= m — valid field elements
  // never carry those bits). GF2P8AFFINEQB wants row i (the input-bit mask
  // of output bit i) in qword byte (7 - i).
  t.affine = 0;
  for (unsigned j = 0; j < 8; ++j) {
    const unsigned bit = 1u << j;
    const Element col = bit < size ? field.mul(c, bit) : 0;
    for (unsigned i = 0; i < 8; ++i) {
      if ((col >> i) & 1u) {
        t.affine |= std::uint64_t{1} << ((7 - i) * 8 + j);
      }
    }
  }
}

bool backend_supported(Backend b) {
  return kernels_for(b) != nullptr && cpu_supports(b);
}

Backend select_backend() {
  Backend requested;
  if (env_backend(requested) && backend_supported(requested)) {
    return requested;
  }
  if (backend_supported(Backend::kGfni)) return Backend::kGfni;
  if (backend_supported(Backend::kAvx2)) return Backend::kAvx2;
  if (backend_supported(Backend::kSsse3)) return Backend::kSsse3;
  // No vector backend (none compiled in, or none this CPU runs): the
  // codec runs its original scalar loops.
  return Backend::kScalar;
}

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: every contender computes the same selection.
    k = kernels_for(select_backend());
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool force_backend(Backend b) {
  if (!backend_supported(b)) return false;
  g_active.store(kernels_for(b), std::memory_order_release);
  return true;
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSsse3:
      return "ssse3";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kGfni:
      return "gfni";
  }
  return "unknown";
}

}  // namespace rsmem::gf::simd

// Reed-Solomon RS(n,k) codec over GF(2^m) with errors-AND-erasures decoding.
//
// This is the EDAC scheme of the paper: transient faults (SEU bit flips) are
// random errors at unknown positions; located permanent faults are erasures.
// A pattern of `re` random errors and `er` erasures is correctable iff
//     2*re + er <= n - k.
//
// Shortened codes (n < 2^m - 1), e.g. the paper's RS(18,16) and RS(36,16)
// over GF(2^8), are supported directly: codeword position p corresponds to
// the coefficient of x^(n-1-p), i.e. data symbols first, parity last.
//
// Decoding pipeline (Blahut, "Theory and Practice of Error Control Codes"):
//   syndromes -> erasure locator -> modified syndromes -> Sugiyama
//   (extended Euclid) key-equation solver -> Chien search -> Forney.
//
// There is one implementation of that pipeline, an allocation-free
// steady-state codec: all decode temporaries live in a reusable
// DecoderWorkspace, the encoder is a table-driven systematic LFSR, clean
// words exit straight from the syndrome pass, and for m <= 8 the inner
// loops read the field's dense multiplication table (no log/exp
// indirection, no zero branches). On top of that, for m <= 8 the three hot
// loops — LFSR encoding, syndrome computation, and Chien search — and the
// batch plane APIs run on the runtime-dispatched SIMD kernel layer
// (gf/simd_mul.h: GFNI affine or PSHUFB/AVX2 split-nibble multiply). When
// the selected backend is `scalar` (RSMEM_GF_BACKEND=scalar, a host without
// SSSE3, or a non-x86 build) every call runs the original scalar loops
// instead. All backends are bit-identical: same outcomes, same
// corrected words, same thrown errors.
//
// The independent implementations this codec is checked against — the
// original Poly-based encoder/decoder and a Berlekamp-Massey decoder — are
// test oracles (tests/oracles/, the rsmem_oracles library), not part of
// this library. The codec is bit-identical to the Poly-based reference on
// every input, including beyond-capability mis-corrections.
//
// Failure semantics matter to the duplex arbiter (paper Section 3):
//  * kNoError   - the word is already a codeword; nothing changed.
//  * kCorrected - a correction was performed; the "flag" of the paper.
//  * kFailure   - the decoder knows it cannot produce a codeword.
// When the fault pattern exceeds the code capability the decoder may instead
// "mis-correct": return kCorrected with a *valid but wrong* codeword. That
// behaviour is real (not simulated) and is exactly what the duplex arbiter's
// flag-comparison logic is designed to handle.
#ifndef RSMEM_RS_REED_SOLOMON_H
#define RSMEM_RS_REED_SOLOMON_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "gf/aligned.h"
#include "gf/galois_field.h"
#include "gf/poly.h"
#include "gf/simd_mul.h"

namespace rsmem::rs {

using gf::Element;

enum class DecodeStatus : std::uint8_t {
  kNoError,    // word was already a codeword
  kCorrected,  // correction performed (sets the paper's flag)
  kFailure,    // detected uncorrectable pattern
};

struct DecodeOutcome {
  DecodeStatus status = DecodeStatus::kNoError;
  unsigned errors_corrected = 0;    // changed symbols outside the erasure set
  unsigned erasures_corrected = 0;  // changed symbols inside the erasure set

  // The paper's per-word correction flag: set when a correction has been
  // performed and completed.
  bool correction_flag() const { return status == DecodeStatus::kCorrected; }
  bool ok() const { return status != DecodeStatus::kFailure; }
};

struct CodeParams {
  unsigned n = 0;    // codeword length in symbols
  unsigned k = 0;    // dataword length in symbols
  unsigned m = 0;    // bits per symbol; requires n <= 2^m - 1
  unsigned fcr = 1;  // first consecutive root exponent of the generator
  // Primitive polynomial for GF(2^m), leading x^m term included; 0 selects
  // the library default. Set this when interoperating with an existing
  // codec built over a different field representation.
  std::uint32_t prim_poly = 0;
};

class ReedSolomon;

// Reusable scratch arena for the allocation-free codec. Every decode
// temporary (syndromes, erasure/error locators, Sugiyama remainder and
// cofactor buffers, the corrected-word image) lives here and is
// re-initialized — never reallocated — on each call, so steady-state
// decodes perform ZERO heap allocations once the buffers have grown to the
// largest code seen (or after reserve()).
//
// THREAD SAFETY: a workspace is per-call mutable state; use one workspace
// per thread. One workspace may be shared freely across different codes and
// interleaved calls on the same thread — buffers adapt per call, and no
// state (including failed-decode state) leaks between calls.
class DecoderWorkspace {
 public:
  DecoderWorkspace() = default;

  // Pre-sizes every buffer for `code` (and forces the field's dense
  // multiplication table for m <= 8), so even the first decode through this
  // workspace allocates nothing.
  void reserve(const ReedSolomon& code);

 private:
  friend class ReedSolomon;
  std::vector<Element> synd;       // 2t syndromes / final re-check
  std::vector<Element> gamma;      // erasure locator Gamma(x)
  std::vector<Element> xi;         // modified syndromes Xi(x)
  std::vector<Element> r0, r1;     // Sugiyama remainder pair
  std::vector<Element> u0, u1;     // Sugiyama cofactor pair
  std::vector<Element> psi;        // combined locator Lambda*Gamma
  std::vector<Element> psi_deriv;  // formal derivative of psi
  std::vector<Element> omega;      // combined evaluator
  std::vector<Element> corrected;  // corrected-word image
  std::vector<unsigned char> erasure_mark;  // per-position erasure flags
  std::vector<unsigned> erasure_scratch;    // batch erasure gathering

  // Byte-domain SoA staging for the batch-plane SIMD paths (m <= 8 only).
  // 64-byte aligned (gf::AlignedVector) with row strides rounded to the
  // same boundary, so every SoA row starts on a cache line; caller planes
  // may be arbitrarily aligned — the kernels use unaligned loads for those.
  gf::AlignedVector<std::uint8_t> soa_in;     // batch symbol planes (SoA)
  gf::AlignedVector<std::uint8_t> soa_acc;    // batch parity/syndrome rows
  gf::AlignedVector<std::uint8_t> soa_dirty;  // batch non-clean word mask
};

class ReedSolomon {
 public:
  // Throws std::invalid_argument for inconsistent parameters
  // (k >= n, n > 2^m - 1, m out of range).
  explicit ReedSolomon(const CodeParams& params);
  ReedSolomon(unsigned n, unsigned k, unsigned m)
      : ReedSolomon(CodeParams{n, k, m, 1}) {}

  unsigned n() const { return params_.n; }
  unsigned k() const { return params_.k; }
  unsigned m() const { return params_.m; }
  unsigned fcr() const { return params_.fcr; }
  unsigned parity_symbols() const { return params_.n - params_.k; }
  // Maximum random errors correctable with no erasures: t = floor((n-k)/2).
  unsigned t() const { return parity_symbols() / 2; }

  const gf::GaloisField& field() const { return field_; }
  const gf::Poly& generator() const { return generator_; }

  // True iff the pattern (erasures, random_errors) is within the code's
  // guaranteed correction capability: erasures + 2*random_errors <= n-k.
  bool correctable(unsigned erasures, unsigned random_errors) const {
    return erasures + 2 * random_errors <= parity_symbols();
  }

  // Systematic encoding: codeword = [data (k symbols) | parity (n-k)].
  // Implemented as a table-driven LFSR over the precomputed generator
  // coefficients; allocation-free (the encoder needs no workspace).
  // Throws std::invalid_argument on size mismatch or out-of-field symbols.
  void encode(std::span<const Element> data, std::span<Element> codeword) const;
  std::vector<Element> encode(std::span<const Element> data) const;

  // In-place errors-and-erasures decoding through a caller-held workspace
  // (allocation-free in steady state). `erasure_positions` lists indices in
  // [0, n) whose content is untrusted (located permanent faults); the stored
  // value at those positions is irrelevant. Duplicate positions are rejected
  // with std::invalid_argument. On kNoError/kCorrected the word is a valid
  // codeword afterwards; on kFailure the word is left untouched.
  DecodeOutcome decode(DecoderWorkspace& ws, std::span<Element> word,
                       std::span<const unsigned> erasure_positions = {}) const;

  // The same decode through a per-thread DecoderWorkspace owned by the
  // codec layer (one per thread, shared across codes): allocation-free in
  // steady state, and safe to call from any number of threads at once.
  DecodeOutcome decode(std::span<Element> word,
                       std::span<const unsigned> erasure_positions = {}) const;

  // Batch API over contiguous symbol planes: `data_plane` is `count`
  // datawords of k symbols back to back; `codeword_plane` receives `count`
  // codewords of n symbols. Sizes must match exactly (count is derived from
  // the plane sizes).
  void encode_batch(DecoderWorkspace& ws, std::span<const Element> data_plane,
                    std::span<Element> codeword_plane) const;
  // Decodes `count = word_plane.size()/n` words in place, one outcome per
  // word. `erasure_flags`, when non-empty, marks untrusted symbol positions
  // (size must equal word_plane.size()). Allocation-free in steady state.
  void decode_batch(DecoderWorkspace& ws, std::span<Element> word_plane,
                    std::span<DecodeOutcome> outcomes,
                    std::span<const std::uint8_t> erasure_flags = {}) const;

  // Extracts the k data symbols from a (corrected) codeword.
  std::vector<Element> extract_data(std::span<const Element> codeword) const;

  bool is_codeword(std::span<const Element> word) const;

 private:
  // Syndromes S_j = c(alpha^(fcr+j)), j in [0, n-k). Returns true if all 0.
  bool syndromes(std::span<const Element> word,
                 std::vector<Element>& out) const;
  // Locator value of codeword position p: X = alpha^(n-1-p).
  Element locator_of_position(unsigned p) const {
    return field_.alpha_pow(static_cast<long long>(params_.n - 1 - p));
  }
  void validate_encode_args(std::span<const Element> data,
                            std::span<Element> codeword) const;
  template <bool kDense>
  DecodeOutcome decode_fast(DecoderWorkspace& ws, std::span<Element> word,
                            std::span<const unsigned> erasure_positions,
                            const Element* dense) const;

  // Per-code constant tables for the SIMD kernel layer (m <= 8), built
  // lazily on first use (thread-safe, one build per code) and shared by
  // every workspace. reserve() forces the build so steady-state calls
  // never construct tables. All rows are 64-byte aligned.
  struct SimdTables {
    // Batch encode: split-nibble tables for P[p][j], the parity-j
    // contribution of a unit data symbol at position p. Index p*2t + j.
    gf::AlignedVector<gf::simd::MulTables> encode_mul;
    // Batch syndromes: tables for X_p^(fcr+j). Index p*2t + j.
    gf::AlignedVector<gf::simd::MulTables> synd_mul;
    // Per-word syndromes, split-nibble pre-expansion: row (p, v) holds
    // v * X_p^(fcr+j) over j for v in [0,16), then (v<<4) * X_p^(fcr+j)
    // for v in [16,32). Index ((p*32 + v) * synd_stride + j).
    gf::AlignedVector<std::uint8_t> synd_nib;
    std::size_t synd_stride = 0;  // 2t rounded up for row alignment
    // Per-word LFSR encode: row v holds v*g[j] (v < 16) / (v-16)<<4 * g[j].
    gf::AlignedVector<std::uint8_t> lfsr_nib;
    // Chien search: row i holds X_p^(-i) over positions p, i in [0, 2t].
    gf::AlignedVector<std::uint8_t> chien_pow;
    std::size_t chien_stride = 0;  // n rounded up for row alignment
  };
  // Returns the lazily built tables, or nullptr for m > 8.
  const SimdTables* simd_tables() const;
  // reserve() forces the lazy SIMD table build.
  friend class DecoderWorkspace;

  CodeParams params_;
  gf::GaloisField field_;
  gf::Poly generator_;
  // Precomputed per-code tables for the codec (all O(n) small):
  std::vector<Element> syndrome_root_;    // alpha^(fcr+j), j in [0, n-k)
  std::vector<Element> pos_locator_;      // X_p = alpha^(n-1-p)
  std::vector<Element> pos_locator_inv_;  // X_p^-1 (Chien search)
  std::vector<Element> forney_scale_;     // X_p^(1-fcr) (Forney)
  std::vector<Element> gen_lfsr_;         // g coeff of x^(n-k-1-j) at [j]
  // Lazily built SIMD constant tables (see SimdTables above).
  mutable std::unique_ptr<SimdTables> simd_;
  mutable std::atomic<const SimdTables*> simd_ptr_{nullptr};
  mutable std::mutex simd_build_;
};

}  // namespace rsmem::rs

#endif  // RSMEM_RS_REED_SOLOMON_H

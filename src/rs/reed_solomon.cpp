#include "rs/reed_solomon.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace rsmem::rs {

using gf::GaloisField;
using gf::Poly;

namespace {

// SIMD kernel-path engagement thresholds. Below these sizes the kernel
// call overhead beats the vector win and the scalar loops stay in charge;
// either route is bit-identical, so the constants are pure tuning.
constexpr unsigned kMinKernelTwoT = 16;   // per-word syndrome/LFSR rows
constexpr unsigned kMinKernelN = 32;      // per-word Chien row
constexpr std::size_t kMinSoaBatch = 4;   // batch SoA staging
// Stack staging for per-word kernel paths: n <= 255 and 2t < n for every
// m <= 8 code, so one page-free 256-byte buffer covers both.
constexpr std::size_t kMaxSymbols = 256;

// Returns the active kernel set when the SIMD layer should serve this
// code, nullptr when the scalar loops must run (m > 8, or the selected
// backend is the scalar A/B control). A non-null set is a vector backend,
// so it has mul_rows_acc (gf/simd_mul.h).
inline const gf::simd::Kernels* simd_kernels_for(unsigned m) {
  if (m > 8) return nullptr;
  const gf::simd::Kernels& k = gf::simd::active();
  return k.backend == gf::simd::Backend::kScalar ? nullptr : &k;
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

// Degree of the polynomial stored in a[0..len), -1 for zero.
inline int degree_in(const Element* a, std::size_t len) {
  for (std::size_t i = len; i > 0; --i) {
    if (a[i - 1] != 0) return static_cast<int>(i - 1);
  }
  return -1;
}

// Field multiplication for the fast path: either one dense-table load
// (m <= 8) or the log/exp route. Dispatched statically so the inner loops
// carry no per-mul branch.
template <bool kDense>
struct FieldOps {
  const GaloisField& f;
  const Element* dense;
  unsigned m;

  Element mul(Element a, Element b) const {
    if constexpr (kDense) {
      return dense[(static_cast<std::size_t>(a) << m) | b];
    } else {
      return f.mul(a, b);
    }
  }
};

}  // namespace

ReedSolomon::ReedSolomon(const CodeParams& params)
    : params_(params),
      field_(params.m, params.prim_poly != 0
                           ? params.prim_poly
                           : gf::GaloisField::default_primitive_poly(
                                 params.m)) {
  if (params_.k == 0 || params_.k >= params_.n) {
    throw std::invalid_argument("ReedSolomon: require 0 < k < n");
  }
  if (params_.n > field_.order()) {
    throw std::invalid_argument(
        "ReedSolomon: n exceeds 2^m - 1 (n=" + std::to_string(params_.n) +
        ", m=" + std::to_string(params_.m) + ")");
  }
  // g(x) = prod_{j=0}^{n-k-1} (x - alpha^(fcr+j)); note -a == a in GF(2^m).
  generator_ = Poly::one();
  for (unsigned j = 0; j < parity_symbols(); ++j) {
    const Element root = field_.alpha_pow(params_.fcr + j);
    Poly factor{std::vector<Element>{root, 1}};  // (x + root)
    generator_ = Poly::mul(field_, generator_, factor);
  }
  // Per-code tables for the fast path.
  const unsigned two_t = parity_symbols();
  syndrome_root_.resize(two_t);
  gen_lfsr_.resize(two_t);
  for (unsigned j = 0; j < two_t; ++j) {
    syndrome_root_[j] = field_.alpha_pow(params_.fcr + j);
    // Parity position k+j holds coeff of x^(n-k-1-j); store the matching
    // generator coefficient so the LFSR walks the table forward.
    gen_lfsr_[j] = generator_.coeff(two_t - 1 - j);
  }
  pos_locator_.resize(params_.n);
  pos_locator_inv_.resize(params_.n);
  forney_scale_.resize(params_.n);
  for (unsigned p = 0; p < params_.n; ++p) {
    const Element X = locator_of_position(p);
    pos_locator_[p] = X;
    pos_locator_inv_[p] = field_.inv(X);
    forney_scale_[p] =
        field_.pow(X, 1 - static_cast<long long>(params_.fcr));
  }
}

const ReedSolomon::SimdTables* ReedSolomon::simd_tables() const {
  if (params_.m > 8) return nullptr;
  const SimdTables* t = simd_ptr_.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  const std::lock_guard<std::mutex> lock(simd_build_);
  if (simd_ptr_.load(std::memory_order_relaxed) == nullptr) {
    auto st = std::make_unique<SimdTables>();
    const unsigned n = params_.n;
    const unsigned k = params_.k;
    const unsigned two_t = parity_symbols();
    const std::uint32_t size = field_.size();
    st->synd_stride = gf::aligned_stride(two_t);
    st->chien_stride = gf::aligned_stride(n);

    // Batch-encode constants: P[p][j] is the parity-j symbol produced by
    // the unit dataword e_p, computed with an inline scalar LFSR so the
    // build never re-enters the dispatched encoder.
    st->encode_mul.resize(static_cast<std::size_t>(k) * two_t);
    std::vector<Element> par(two_t);
    for (unsigned p = 0; p < k; ++p) {
      std::fill(par.begin(), par.end(), 0);
      for (unsigned q = 0; q < k; ++q) {
        const Element fb = (q == p ? 1u : 0u) ^ par[0];
        for (unsigned j = 0; j + 1 < two_t; ++j) {
          par[j] = par[j + 1] ^ field_.mul(fb, gen_lfsr_[j]);
        }
        par[two_t - 1] = field_.mul(fb, gen_lfsr_[two_t - 1]);
      }
      for (unsigned j = 0; j < two_t; ++j) {
        gf::simd::build_tables(
            st->encode_mul[static_cast<std::size_t>(p) * two_t + j], field_,
            par[j]);
      }
    }

    // Batch-syndrome constants X_p^(fcr+j) and their per-word split-nibble
    // pre-expansion (rows of v * X_p^(fcr+j) over j).
    st->synd_mul.resize(static_cast<std::size_t>(n) * two_t);
    st->synd_nib.assign(static_cast<std::size_t>(n) * 32 * st->synd_stride,
                        0);
    for (unsigned p = 0; p < n; ++p) {
      for (unsigned j = 0; j < two_t; ++j) {
        const Element c = field_.pow(pos_locator_[p], params_.fcr + j);
        gf::simd::build_tables(
            st->synd_mul[static_cast<std::size_t>(p) * two_t + j], field_, c);
        std::uint8_t* rows =
            st->synd_nib.data() +
            static_cast<std::size_t>(p) * 32 * st->synd_stride;
        for (unsigned v = 0; v < 16; ++v) {
          // Nibble values outside small fields (m < 4 lo, m < 8 hi) can
          // never appear in a validated word; their rows stay zero.
          rows[v * st->synd_stride + j] =
              v < size ? static_cast<std::uint8_t>(field_.mul(v, c)) : 0;
          const unsigned vh = v << 4;
          rows[(16 + v) * st->synd_stride + j] =
              vh < size ? static_cast<std::uint8_t>(field_.mul(vh, c)) : 0;
        }
      }
    }

    // Per-word LFSR rows: v * g[j] for each feedback nibble.
    st->lfsr_nib.assign(32 * st->synd_stride, 0);
    for (unsigned v = 0; v < 16; ++v) {
      for (unsigned j = 0; j < two_t; ++j) {
        st->lfsr_nib[v * st->synd_stride + j] =
            v < size
                ? static_cast<std::uint8_t>(field_.mul(v, gen_lfsr_[j]))
                : 0;
        const unsigned vh = v << 4;
        st->lfsr_nib[(16 + v) * st->synd_stride + j] =
            vh < size ? static_cast<std::uint8_t>(field_.mul(vh, gen_lfsr_[j]))
                      : 0;
      }
    }

    // Chien power rows: X_p^(-i) across positions, one row per locator
    // coefficient index.
    st->chien_pow.assign(
        static_cast<std::size_t>(two_t + 1) * st->chien_stride, 0);
    for (unsigned i = 0; i <= two_t; ++i) {
      for (unsigned p = 0; p < n; ++p) {
        st->chien_pow[static_cast<std::size_t>(i) * st->chien_stride + p] =
            static_cast<std::uint8_t>(field_.pow(pos_locator_inv_[p], i));
      }
    }

    simd_ = std::move(st);
    simd_ptr_.store(simd_.get(), std::memory_order_release);
  }
  return simd_ptr_.load(std::memory_order_relaxed);
}

void DecoderWorkspace::reserve(const ReedSolomon& code) {
  const std::size_t two_t = code.parity_symbols();
  const std::size_t n = code.n();
  synd.reserve(two_t);
  gamma.reserve(two_t + 1);
  xi.reserve(two_t);
  r0.reserve(two_t + 1);
  r1.reserve(two_t + 1);
  u0.reserve(two_t + 1);
  u1.reserve(two_t + 1);
  psi.reserve(two_t + 1);
  psi_deriv.reserve(two_t);
  omega.reserve(two_t);
  corrected.reserve(n);
  erasure_mark.reserve(n);
  erasure_scratch.reserve(n);
  if (code.m() <= 8) {
    code.field().dense_mul_table();  // force the lazy build
    code.simd_tables();              // and the SIMD constant tables
  }
}

void ReedSolomon::validate_encode_args(std::span<const Element> data,
                                       std::span<Element> codeword) const {
  if (data.size() != params_.k) {
    throw std::invalid_argument("ReedSolomon::encode: data size != k");
  }
  if (codeword.size() != params_.n) {
    throw std::invalid_argument("ReedSolomon::encode: codeword size != n");
  }
  for (const Element d : data) {
    if (!field_.contains(d)) {
      throw std::invalid_argument("ReedSolomon::encode: symbol out of field");
    }
  }
}

void ReedSolomon::encode(std::span<const Element> data,
                         std::span<Element> codeword) const {
  validate_encode_args(data, codeword);
  // Systematic LFSR division by the monic generator: feed the data symbols
  // highest-degree first, keeping the running remainder in the parity slots
  // (parity[j] = coeff of x^(n-k-1-j), already in external order).
  const unsigned two_t = parity_symbols();
  std::copy(data.begin(), data.end(), codeword.begin());
  Element* parity = codeword.data() + params_.k;
  std::fill(parity, parity + two_t, 0);
  const Element* gr = gen_lfsr_.data();
  if (const gf::simd::Kernels* kn = simd_kernels_for(params_.m);
      kn != nullptr && two_t >= kMinKernelTwoT) {
    // Kernel path: the LFSR step "shift parity, xor fb*g" becomes one
    // memmove plus two split-nibble row xors (fb = lo ^ hi<<4, with
    // v*g[j] rows precomputed per code). Bit-identical to the scalar
    // LFSR below: same feedback chain, same field products.
    const SimdTables* st = simd_tables();
    const std::size_t stride = st->synd_stride;
    const std::uint8_t* rows = st->lfsr_nib.data();
    std::uint8_t par[kMaxSymbols];
    std::memset(par, 0, two_t);
    for (unsigned p = 0; p < params_.k; ++p) {
      const Element fb = data[p] ^ par[0];
      std::memmove(par, par + 1, two_t - 1);
      par[two_t - 1] = 0;
      if (fb == 0) continue;
      kn->xor_acc(par, rows + (fb & 0xF) * stride, two_t);
      kn->xor_acc(par, rows + (16 + (fb >> 4)) * stride, two_t);
    }
    for (unsigned j = 0; j < two_t; ++j) parity[j] = par[j];
    return;
  }
  const Element* dense =
      params_.m <= 8 ? field_.dense_mul_table() : nullptr;
  if (dense != nullptr) {
    const unsigned m = params_.m;
    for (unsigned p = 0; p < params_.k; ++p) {
      const Element fb = data[p] ^ parity[0];
      if (fb == 0) {
        for (unsigned j = 0; j + 1 < two_t; ++j) parity[j] = parity[j + 1];
        parity[two_t - 1] = 0;
        continue;
      }
      const Element* row = dense + (static_cast<std::size_t>(fb) << m);
      for (unsigned j = 0; j + 1 < two_t; ++j) {
        parity[j] = parity[j + 1] ^ row[gr[j]];
      }
      parity[two_t - 1] = row[gr[two_t - 1]];
    }
  } else {
    for (unsigned p = 0; p < params_.k; ++p) {
      const Element fb = data[p] ^ parity[0];
      for (unsigned j = 0; j + 1 < two_t; ++j) {
        parity[j] = parity[j + 1] ^ field_.mul(fb, gr[j]);
      }
      parity[two_t - 1] = field_.mul(fb, gr[two_t - 1]);
    }
  }
}

std::vector<Element> ReedSolomon::encode(std::span<const Element> data) const {
  std::vector<Element> cw(params_.n, 0);
  encode(data, cw);
  return cw;
}

void ReedSolomon::encode_batch(DecoderWorkspace& ws,
                               std::span<const Element> data_plane,
                               std::span<Element> codeword_plane) const {
  const std::size_t k = params_.k;
  const std::size_t n = params_.n;
  if (data_plane.size() % k != 0) {
    throw std::invalid_argument(
        "ReedSolomon::encode_batch: data plane is not a multiple of k");
  }
  const std::size_t count = data_plane.size() / k;
  if (codeword_plane.size() != count * n) {
    throw std::invalid_argument(
        "ReedSolomon::encode_batch: codeword plane size mismatch");
  }
  const gf::simd::Kernels* kn = simd_kernels_for(params_.m);
  if (kn != nullptr && count >= kMinSoaBatch) {
    // SoA plane path: transpose the word-major plane into one byte stream
    // per data position, then accumulate each parity stream as a sum of
    // constant-by-vector products parity_j ^= P[p][j] * data_p — the
    // ISA-L shape, with `count` as the vector axis. Parity symbols are
    // unique for a given dataword, so this is bit-identical to the
    // per-word LFSR.
    const SimdTables* st = simd_tables();
    const std::size_t two_t = parity_symbols();
    const std::size_t stride = gf::aligned_stride(count);
    const std::uint32_t size = field_.size();
    ws.soa_in.resize(k * stride);
    ws.soa_acc.assign(two_t * stride, 0);
    std::uint8_t* in = ws.soa_in.data();
    std::uint8_t* acc = ws.soa_acc.data();
    for (std::size_t w = 0; w < count; ++w) {
      const Element* word = data_plane.data() + w * k;
      for (std::size_t p = 0; p < k; ++p) {
        if (word[p] >= size) {
          throw std::invalid_argument(
              "ReedSolomon::encode: symbol out of field");
        }
        in[p * stride + w] = static_cast<std::uint8_t>(word[p]);
      }
    }
    // Fused sweep: one kernel call per data position updates every
    // parity row (encode_mul rows for a position are contiguous).
    // Reordering the XOR accumulation is exact, so still bit-identical.
    for (std::size_t p = 0; p < k; ++p) {
      kn->mul_rows_acc(acc, stride, in + p * stride,
                       st->encode_mul.data() + p * two_t, two_t, count);
    }
    for (std::size_t w = 0; w < count; ++w) {
      Element* cw = codeword_plane.data() + w * n;
      std::copy(data_plane.data() + w * k, data_plane.data() + (w + 1) * k,
                cw);
      for (std::size_t j = 0; j < two_t; ++j) {
        cw[k + j] = acc[j * stride + w];
      }
    }
    return;
  }
  for (std::size_t w = 0; w < count; ++w) {
    encode(data_plane.subspan(w * k, k), codeword_plane.subspan(w * n, n));
  }
}

void ReedSolomon::decode_batch(
    DecoderWorkspace& ws, std::span<Element> word_plane,
    std::span<DecodeOutcome> outcomes,
    std::span<const std::uint8_t> erasure_flags) const {
  const std::size_t n = params_.n;
  if (word_plane.size() % n != 0) {
    throw std::invalid_argument(
        "ReedSolomon::decode_batch: word plane is not a multiple of n");
  }
  const std::size_t count = word_plane.size() / n;
  if (outcomes.size() != count) {
    throw std::invalid_argument(
        "ReedSolomon::decode_batch: outcomes size mismatch");
  }
  if (!erasure_flags.empty() && erasure_flags.size() != word_plane.size()) {
    throw std::invalid_argument(
        "ReedSolomon::decode_batch: erasure_flags size mismatch");
  }
  const gf::simd::Kernels* kn = simd_kernels_for(params_.m);
  if (kn != nullptr && count >= kMinSoaBatch) {
    // SoA screening path: compute every word's syndromes in one
    // structure-of-arrays sweep (syndrome_j ^= X_p^(fcr+j) * word_p over
    // the whole plane), then run the full per-word pipeline only for
    // words that are dirty or carry erasure flags. Clean, unflagged words
    // exit with kNoError exactly as the per-word syndrome screen would
    // decide — same values, same outcome.
    const SimdTables* st = simd_tables();
    const std::size_t two_t = parity_symbols();
    const std::size_t stride = gf::aligned_stride(count);
    const std::uint32_t size = field_.size();
    ws.soa_in.resize(n * stride);
    ws.soa_acc.assign(two_t * stride, 0);
    ws.soa_dirty.assign(stride, 0);
    std::uint8_t* in = ws.soa_in.data();
    std::uint8_t* acc = ws.soa_acc.data();
    std::uint8_t* dirty = ws.soa_dirty.data();
    for (std::size_t w = 0; w < count; ++w) {
      const Element* word = word_plane.data() + w * n;
      for (std::size_t p = 0; p < n; ++p) {
        if (word[p] >= size) {
          throw std::invalid_argument(
              "ReedSolomon::decode: symbol out of field");
        }
        in[p * stride + w] = static_cast<std::uint8_t>(word[p]);
      }
    }
    // Fused sweep: one kernel call per codeword position updates every
    // syndrome row (synd_mul rows for a position are contiguous).
    // Reordering the XOR accumulation is exact, so still bit-identical.
    for (std::size_t p = 0; p < n; ++p) {
      kn->mul_rows_acc(acc, stride, in + p * stride,
                       st->synd_mul.data() + p * two_t, two_t, count);
    }
    for (std::size_t j = 0; j < two_t; ++j) {
      const std::uint8_t* row = acc + j * stride;
      for (std::size_t i = 0; i < stride; i += 8) {
        store64(dirty + i, load64(dirty + i) | load64(row + i));
      }
    }
    for (std::size_t w = 0; w < count; ++w) {
      ws.erasure_scratch.clear();
      if (!erasure_flags.empty()) {
        const std::uint8_t* flags = erasure_flags.data() + w * n;
        for (std::size_t i = 0; i < n; ++i) {
          if (flags[i]) {
            ws.erasure_scratch.push_back(static_cast<unsigned>(i));
          }
        }
      }
      if (dirty[w] == 0 && ws.erasure_scratch.empty()) {
        // Zero syndromes, no erasures: the per-word pipeline's clean exit.
        outcomes[w] = {DecodeStatus::kNoError, 0, 0};
        continue;
      }
      outcomes[w] =
          decode(ws, word_plane.subspan(w * n, n), ws.erasure_scratch);
    }
    return;
  }
  for (std::size_t w = 0; w < count; ++w) {
    ws.erasure_scratch.clear();
    if (!erasure_flags.empty()) {
      const std::uint8_t* flags = erasure_flags.data() + w * n;
      for (std::size_t i = 0; i < n; ++i) {
        if (flags[i]) ws.erasure_scratch.push_back(static_cast<unsigned>(i));
      }
    }
    outcomes[w] = decode(ws, word_plane.subspan(w * n, n),
                         ws.erasure_scratch);
  }
}

bool ReedSolomon::syndromes(std::span<const Element> word,
                            std::vector<Element>& out) const {
  out.assign(parity_symbols(), 0);
  bool all_zero = true;
  for (unsigned j = 0; j < parity_symbols(); ++j) {
    const Element x = field_.alpha_pow(params_.fcr + j);
    // Horner over c(x) = sum_p word[p] x^(n-1-p).
    Element acc = 0;
    for (unsigned p = 0; p < params_.n; ++p) {
      acc = GaloisField::add(field_.mul(acc, x), word[p]);
    }
    out[j] = acc;
    all_zero = all_zero && (acc == 0);
  }
  return all_zero;
}

bool ReedSolomon::is_codeword(std::span<const Element> word) const {
  if (word.size() != params_.n) return false;
  std::vector<Element> s;
  return syndromes(word, s);
}

std::vector<Element> ReedSolomon::extract_data(
    std::span<const Element> codeword) const {
  if (codeword.size() != params_.n) {
    throw std::invalid_argument("ReedSolomon::extract_data: size != n");
  }
  return std::vector<Element>(codeword.begin(), codeword.begin() + params_.k);
}

DecodeOutcome ReedSolomon::decode(
    std::span<Element> word, std::span<const unsigned> erasure_positions) const {
  // One scratch arena per thread, shared by every code: it grows to the
  // largest code this thread decodes and is reused from then on, and no two
  // threads ever touch the same workspace.
  thread_local DecoderWorkspace ws;
  return decode(ws, word, erasure_positions);
}

DecodeOutcome ReedSolomon::decode(
    DecoderWorkspace& ws, std::span<Element> word,
    std::span<const unsigned> erasure_positions) const {
  const Element* dense =
      params_.m <= 8 ? field_.dense_mul_table() : nullptr;
  if (dense != nullptr) {
    return decode_fast<true>(ws, word, erasure_positions, dense);
  }
  return decode_fast<false>(ws, word, erasure_positions, nullptr);
}

// The allocation-free pipeline. Mirrors the Poly-based reference decoder
// (tests/oracles/reference_codec.cpp) step for step; every field operation
// computes the same element values in the same per-chain order, so
// outcomes AND corrected words are bit-identical — the only reorderings are
// across independent computations (syndrome chains, commutative locator
// products).
template <bool kDense>
DecodeOutcome ReedSolomon::decode_fast(
    DecoderWorkspace& ws, std::span<Element> word,
    std::span<const unsigned> erasure_positions, const Element* dense) const {
  const unsigned n = params_.n;
  const unsigned two_t = parity_symbols();
  const FieldOps<kDense> op{field_, dense, params_.m};

  if (word.size() != n) {
    throw std::invalid_argument("ReedSolomon::decode: word size != n");
  }
  // Erasure validation via a per-position mark buffer (no std::set).
  ws.erasure_mark.assign(n, 0);
  for (const unsigned p : erasure_positions) {
    if (p >= n) {
      throw std::invalid_argument(
          "ReedSolomon::decode: erasure position out of range");
    }
    if (ws.erasure_mark[p] != 0) {
      throw std::invalid_argument(
          "ReedSolomon::decode: duplicate erasure position");
    }
    ws.erasure_mark[p] = 1;
  }
  for (const Element w : word) {
    if (!field_.contains(w)) {
      throw std::invalid_argument("ReedSolomon::decode: symbol out of field");
    }
  }

  const unsigned rho = static_cast<unsigned>(erasure_positions.size());
  if (rho > two_t) {
    return {DecodeStatus::kFailure, 0, 0};
  }

  // Syndromes. The kernel route computes synd[j] = sum_p word[p] *
  // X_p^(fcr+j) from precomputed split-nibble rows (two xor_acc per
  // non-zero symbol); X_p^(fcr+j) == roots[j]^(n-1-p), so it is the same
  // exact value the position-major Horner chains produce — only the XOR
  // association differs, which is lossless in GF(2^m).
  ws.synd.assign(two_t, 0);
  Element* synd = ws.synd.data();
  const Element* roots = syndrome_root_.data();
  const gf::simd::Kernels* kn = simd_kernels_for(params_.m);
  const SimdTables* st = kn != nullptr ? simd_tables() : nullptr;
  if (kn != nullptr && two_t >= kMinKernelTwoT) {
    alignas(gf::kHotPathAlignment) std::uint8_t synd8[kMaxSymbols] = {0};
    const std::size_t stride = st->synd_stride;
    for (unsigned p = 0; p < n; ++p) {
      const Element w = word[p];
      if (w == 0) continue;
      const std::uint8_t* rows =
          st->synd_nib.data() + static_cast<std::size_t>(p) * 32 * stride;
      kn->xor_acc(synd8, rows + (w & 0xF) * stride, two_t);
      if ((w >> 4) != 0) {
        kn->xor_acc(synd8, rows + (16 + (w >> 4)) * stride, two_t);
      }
    }
    for (unsigned j = 0; j < two_t; ++j) synd[j] = synd8[j];
  } else {
    for (unsigned p = 0; p < n; ++p) {
      const Element w = word[p];
      for (unsigned j = 0; j < two_t; ++j) {
        synd[j] = op.mul(synd[j], roots[j]) ^ w;
      }
    }
  }
  bool clean = true;
  for (unsigned j = 0; j < two_t; ++j) clean = clean && synd[j] == 0;
  if (clean) {
    // Already a codeword: with no erasures this matches the reference
    // decoder's early exit; with erasures the reference walks Chien/Forney
    // only to compute all-zero magnitudes and land on the same kNoError.
    return {DecodeStatus::kNoError, 0, 0};
  }

  // Erasure locator Gamma(x) = prod_i (1 + X_i x), built in place.
  ws.gamma.assign(two_t + 1, 0);
  Element* gamma = ws.gamma.data();
  gamma[0] = 1;
  unsigned dgamma = 0;
  for (const unsigned p : erasure_positions) {
    const Element X = pos_locator_[p];
    for (unsigned j = dgamma + 1; j > 0; --j) {
      gamma[j] ^= op.mul(gamma[j - 1], X);
    }
    ++dgamma;
  }

  // Modified syndrome Xi(x) = S(x) * Gamma(x) mod x^(2t).
  ws.xi.assign(two_t, 0);
  Element* xi = ws.xi.data();
  for (unsigned i = 0; i < two_t; ++i) {
    if (synd[i] == 0) continue;
    const unsigned jmax = std::min(dgamma, two_t - 1 - i);
    for (unsigned j = 0; j <= jmax; ++j) {
      xi[i + j] ^= op.mul(synd[i], gamma[j]);
    }
  }
  const int dxi = degree_in(xi, two_t);

  // Error locator Lambda ends up in u1 (monic-normalized by u1[0]); the
  // Xi-cofactor evaluator in r1.
  ws.r0.assign(two_t + 1, 0);
  ws.r1.assign(two_t + 1, 0);
  ws.u0.assign(two_t + 1, 0);
  ws.u1.assign(two_t + 1, 0);
  Element* r0 = ws.r0.data();
  Element* r1 = ws.r1.data();
  Element* u0 = ws.u0.data();
  Element* u1 = ws.u1.data();
  unsigned dlambda = 0;
  if (dxi >= 0) {
    // Sugiyama: extended Euclid on (x^(2t), Xi), tracking the Xi-cofactor.
    // Stop at the first remainder with 2*deg(r) < 2t + rho.
    r0[two_t] = 1;
    std::copy(xi, xi + two_t, r1);
    u1[0] = 1;
    int dr1 = dxi;
    while (dr1 >= 0 && 2 * static_cast<unsigned>(dr1) >= two_t + rho) {
      // One Euclid step, in place: divide r0 by r1 (remainder replaces r0)
      // while accumulating u0 += q * u1, then swap the pairs.
      const Element lead_inv = field_.inv(r1[dr1]);
      const int du1 = degree_in(u1, two_t + 1);
      for (int d = degree_in(r0, two_t + 1); d >= dr1;
           d = degree_in(r0, static_cast<std::size_t>(d) + 1)) {
        const Element c = op.mul(r0[d], lead_inv);
        const unsigned shift = static_cast<unsigned>(d - dr1);
        for (int i = 0; i <= dr1; ++i) r0[i + shift] ^= op.mul(c, r1[i]);
        for (int i = 0; i <= du1; ++i) u0[i + shift] ^= op.mul(c, u1[i]);
      }
      std::swap(r0, r1);
      std::swap(u0, u1);
      dr1 = degree_in(r1, two_t + 1);
    }
    const Element ucoef0 = u1[0];
    if (ucoef0 == 0) {
      return {DecodeStatus::kFailure, 0, 0};
    }
    const Element u0_inv = field_.inv(ucoef0);
    const int du = degree_in(u1, two_t + 1);
    for (int i = 0; i <= du; ++i) u1[i] = op.mul(u1[i], u0_inv);
    const int drem = degree_in(r1, two_t + 1);
    for (int i = 0; i <= drem; ++i) r1[i] = op.mul(r1[i], u0_inv);
    dlambda = static_cast<unsigned>(std::max(0, du));
    // Capability check: nu <= (2t - rho) / 2.
    if (2 * dlambda + rho > two_t) {
      return {DecodeStatus::kFailure, 0, 0};
    }
  } else {
    // Errors are confined to the erasure positions (if any): Lambda = 1.
    u1[0] = 1;
  }

  // Combined locator Psi = Lambda * Gamma and its evaluator
  // Omega = Psi * S mod x^(2t) (correct also for the pure-erasure case).
  ws.psi.assign(two_t + 1, 0);
  Element* psi = ws.psi.data();
  for (unsigned i = 0; i <= dlambda; ++i) {
    if (u1[i] == 0) continue;
    for (unsigned j = 0; j <= dgamma; ++j) {
      psi[i + j] ^= op.mul(u1[i], gamma[j]);
    }
  }
  const unsigned dpsi = dlambda + dgamma;
  const unsigned expected_roots = dpsi;
  if (expected_roots == 0) {
    // Non-zero syndromes but empty locator: detected failure (the clean
    // case already returned above).
    return {DecodeStatus::kFailure, 0, 0};
  }

  ws.omega.assign(two_t, 0);
  Element* omega = ws.omega.data();
  for (unsigned i = 0; i <= dpsi && i < two_t; ++i) {
    if (psi[i] == 0) continue;
    const unsigned jmax = two_t - 1 - i;
    for (unsigned j = 0; j <= jmax; ++j) {
      if (synd[j] != 0) omega[i + j] ^= op.mul(psi[i], synd[j]);
    }
  }
  const int domega = degree_in(omega, two_t);

  ws.psi_deriv.assign(two_t, 0);
  Element* psi_deriv = ws.psi_deriv.data();
  for (unsigned i = 1; i <= dpsi; i += 2) psi_deriv[i - 1] = psi[i];
  const int dderiv = degree_in(psi_deriv, two_t);

  // Chien search restricted to the n valid positions of the shortened code,
  // with Forney magnitudes at every root. The kernel route evaluates
  // Psi(X_p^-1) for all positions at once as sum_i psi[i] * X_p^(-i) from
  // the precomputed power rows — the same exact values as the per-position
  // Horner loops, so the same roots are found.
  ws.corrected.assign(word.begin(), word.end());
  Element* corrected = ws.corrected.data();
  unsigned roots_found = 0;
  unsigned errors_corrected = 0;
  unsigned erasures_corrected = 0;
  alignas(gf::kHotPathAlignment) std::uint8_t eval[kMaxSymbols];
  const bool have_eval = kn != nullptr && n >= kMinKernelN;
  if (have_eval) {
    std::memset(eval, 0, n);
    for (unsigned i = 0; i <= dpsi; ++i) {
      if (psi[i] == 0) continue;
      const std::uint8_t* row =
          st->chien_pow.data() + static_cast<std::size_t>(i) * st->chien_stride;
      if (psi[i] == 1) {
        kn->xor_acc(eval, row, n);
      } else {
        gf::simd::MulTables tbl;
        gf::simd::build_tables(tbl, field_, psi[i]);
        kn->mul_const_acc(eval, row, tbl, n);
      }
    }
  }
  for (unsigned p = 0; p < n; ++p) {
    const Element X_inv = pos_locator_inv_[p];
    if (have_eval) {
      if (eval[p] != 0) continue;
    } else {
      Element acc = 0;
      for (int i = static_cast<int>(dpsi); i >= 0; --i) {
        acc = op.mul(acc, X_inv) ^ psi[i];
      }
      if (acc != 0) continue;
    }
    ++roots_found;
    Element denom = 0;
    for (int i = dderiv; i >= 0; --i) {
      denom = op.mul(denom, X_inv) ^ psi_deriv[i];
    }
    if (denom == 0) {
      return {DecodeStatus::kFailure, 0, 0};
    }
    // Forney with first consecutive root fcr:
    // e = X^(1-fcr) * Omega(X^-1) / Psi'(X^-1).
    Element num = 0;
    for (int i = domega; i >= 0; --i) {
      num = op.mul(num, X_inv) ^ omega[i];
    }
    Element magnitude = field_.div(num, denom);
    magnitude = op.mul(magnitude, forney_scale_[p]);
    if (magnitude != 0) {
      corrected[p] ^= magnitude;
      if (ws.erasure_mark[p] != 0) {
        ++erasures_corrected;
      } else {
        ++errors_corrected;
      }
    }
  }
  if (roots_found != expected_roots) {
    // Locator has roots outside the valid position range (or repeated
    // roots): the error pattern is uncorrectable and detected as such.
    return {DecodeStatus::kFailure, 0, 0};
  }

  // Final verification: the corrected word must be a true codeword. Same
  // kernel/scalar split as the opening syndrome pass, same exact values.
  std::fill(synd, synd + two_t, 0);
  if (kn != nullptr && two_t >= kMinKernelTwoT) {
    alignas(gf::kHotPathAlignment) std::uint8_t synd8[kMaxSymbols] = {0};
    const std::size_t stride = st->synd_stride;
    for (unsigned p = 0; p < n; ++p) {
      const Element w = corrected[p];
      if (w == 0) continue;
      const std::uint8_t* rows =
          st->synd_nib.data() + static_cast<std::size_t>(p) * 32 * stride;
      kn->xor_acc(synd8, rows + (w & 0xF) * stride, two_t);
      if ((w >> 4) != 0) {
        kn->xor_acc(synd8, rows + (16 + (w >> 4)) * stride, two_t);
      }
    }
    for (unsigned j = 0; j < two_t; ++j) synd[j] = synd8[j];
  } else {
    for (unsigned p = 0; p < n; ++p) {
      const Element w = corrected[p];
      for (unsigned j = 0; j < two_t; ++j) {
        synd[j] = op.mul(synd[j], roots[j]) ^ w;
      }
    }
  }
  for (unsigned j = 0; j < two_t; ++j) {
    if (synd[j] != 0) return {DecodeStatus::kFailure, 0, 0};
  }
  std::copy(corrected, corrected + n, word.begin());
  if (errors_corrected == 0 && erasures_corrected == 0) {
    return {DecodeStatus::kNoError, 0, 0};
  }
  return {DecodeStatus::kCorrected, errors_corrected, erasures_corrected};
}

}  // namespace rsmem::rs

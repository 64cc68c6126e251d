#include "probes.h"

#include <algorithm>
#include <span>

#include "gf/simd_mul.h"

namespace perfbench {

namespace {

namespace rs = rsmem::rs;
namespace simd = rsmem::gf::simd;

template <typename Fn>
double calls_per_second(Fn&& fn, double seconds) {
  std::size_t calls = 0;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < stop) {
    for (int i = 0; i < 16; ++i) fn();
    calls += 16;
  }
  return static_cast<double>(calls) / seconds_since(start);
}

}  // namespace

Probes run_probes(const rs::CodeParams& params, std::size_t width,
                  const std::vector<std::pair<unsigned, unsigned>>& weights,
                  rsmem::sim::Rng& rng) {
  const rs::ReedSolomon code(params);
  const unsigned n = code.n();
  const unsigned k = code.k();
  rs::DecoderWorkspace ws;
  ws.reserve(code);
  const auto symbol = [&] {
    return static_cast<rs::Element>(rng.uniform_int(1u << code.m()));
  };

  std::vector<rs::Element> data(width * k);
  for (auto& s : data) s = symbol();
  std::vector<rs::Element> plane(width * n);
  std::vector<rs::DecodeOutcome> outcomes(width);
  Probes p;
  const double plane_mb = static_cast<double>(width * n) / 1e6;
  p.encode_batch_mbps =
      plane_mb * calls_per_second([&] { code.encode_batch(ws, data, plane); },
                                  0.15);
  // Clean words: the plane-wide syndrome screen (decode leaves them as is).
  p.decode_batch_mbps =
      plane_mb *
      calls_per_second([&] { code.decode_batch(ws, plane, outcomes); }, 0.15);

  const unsigned rows = n - k;
  std::vector<simd::MulTables> tables(rows);
  for (auto& t : tables) simd::build_tables(t, code.field(), symbol());
  std::vector<std::uint8_t> src(width);
  for (auto& b : src) b = static_cast<std::uint8_t>(symbol());
  std::vector<std::uint8_t> dst(rows * width);
  const simd::Kernels& kernels = simd::active();
  p.mul_rows_acc_mbps =
      static_cast<double>(rows * width) / 1e6 *
      calls_per_second(
          [&] {
            if (kernels.mul_rows_acc != nullptr) {
              kernels.mul_rows_acc(dst.data(), width, src.data(),
                                   tables.data(), rows, width);
            } else {
              for (unsigned r = 0; r < rows; ++r) {
                kernels.mul_const_acc(dst.data() + r * width, src.data(),
                                      tables[r], width);
              }
            }
          },
          0.15);

  // Per-word workspace decode on words damaged at the given weights.
  std::vector<std::vector<rs::Element>> words;
  std::vector<std::vector<unsigned>> erasures;
  std::vector<rs::Element> codeword(n);
  code.encode(std::span<const rs::Element>(data.data(), k), codeword);
  for (const auto& [corrupted, erased] : weights) {
    std::vector<rs::Element> dataword(k);
    for (auto& s : dataword) s = symbol();
    code.encode(dataword, codeword);
    std::vector<unsigned> positions(n);
    for (unsigned i = 0; i < n; ++i) positions[i] = i;
    for (unsigned i = 0; i < n; ++i) {
      std::swap(positions[i], positions[i + rng.uniform_int(n - i)]);
    }
    const unsigned e = std::min(corrupted, n);
    const unsigned x = std::min(erased, n - e);
    std::vector<rs::Element> word = codeword;
    for (unsigned i = 0; i < e + x; ++i) {
      word[positions[i]] ^= static_cast<rs::Element>(1 + rng.uniform_int(
                                                            (1u << code.m()) - 1));
    }
    words.push_back(std::move(word));
    erasures.emplace_back(positions.begin() + e, positions.begin() + e + x);
  }
  if (words.empty()) {
    words.push_back(codeword);
    erasures.emplace_back();
  }
  std::vector<rs::Element> scratch(n);
  std::size_t next = 0;
  p.decode_word_us =
      1e6 / calls_per_second(
                [&] {
                  std::copy(words[next].begin(), words[next].end(),
                            scratch.begin());
                  (void)code.decode(ws, scratch, erasures[next]);
                  next = (next + 1) % words.size();
                },
                0.15);
  return p;
}

void add_probe_metrics(const Probes& probes, Result& result) {
  result.metric("rs.decode_batch_MBps", probes.decode_batch_mbps, "MB/s");
  result.metric("rs.encode_batch_MBps", probes.encode_batch_mbps, "MB/s");
  result.metric("gf.mul_rows_acc_MBps", probes.mul_rows_acc_mbps, "MB/s");
  result.metric("rs.decode_word_us", probes.decode_word_us, "us");
  result.note("gf_mul_rows_acc_fused",
              rsmem::gf::simd::active().mul_rows_acc != nullptr ? "true"
                                                                : "false");
}

void add_stage_shares(Result& result) {
  double total = 0.0;
  for (const StageRow& row : result.stages) total += row.ms_per_op;
  for (const StageRow& row : result.stages) {
    if (row.stage == "unattributed") continue;
    result.metric(row.stage + "_share", total > 0.0 ? row.ms_per_op / total : 0.0,
                  "share");
  }
}

}  // namespace perfbench

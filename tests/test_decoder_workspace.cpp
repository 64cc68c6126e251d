// Tests for the allocation-free DecoderWorkspace codec: differential
// equivalence with the Poly-based reference decoder (tests/oracles) over
// every fault regime (including beyond-capability mis-corrections),
// workspace reuse hygiene, the batch API, and Monte-Carlo campaign answers
// pinned as known values.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/monte_carlo.h"
#include "oracles/reference_codec.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace rsmem::rs {
namespace {

std::vector<Element> random_data(const ReedSolomon& code, sim::Rng& rng) {
  std::vector<Element> data(code.k());
  for (auto& d : data) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  return data;
}

// Picks `count` distinct positions in [0, n).
std::vector<unsigned> random_positions(unsigned n, unsigned count,
                                       sim::Rng& rng) {
  std::vector<unsigned> all(n);
  for (unsigned i = 0; i < n; ++i) all[i] = i;
  for (unsigned i = 0; i < count; ++i) {
    const unsigned j =
        i + static_cast<unsigned>(rng.uniform_int(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

void corrupt_symbol(std::vector<Element>& word, unsigned pos,
                    const ReedSolomon& code, sim::Rng& rng) {
  const Element old = word[pos];
  Element nv;
  do {
    nv = static_cast<Element>(rng.uniform_int(code.field().size()));
  } while (nv == old);
  word[pos] = nv;
}

// Runs one fault pattern through the codec and the reference oracle and
// asserts the outcome AND the resulting word are identical.
void expect_paths_identical(const ReedSolomon& code, DecoderWorkspace& ws,
                            const std::vector<Element>& damaged,
                            const std::vector<unsigned>& erasures) {
  std::vector<Element> fast_word = damaged;
  std::vector<Element> legacy_word = damaged;
  const DecodeOutcome fast = code.decode(ws, fast_word, erasures);
  const DecodeOutcome legacy =
      oracles::decode_legacy(code, legacy_word, erasures);
  ASSERT_EQ(fast.status, legacy.status);
  ASSERT_EQ(fast.errors_corrected, legacy.errors_corrected);
  ASSERT_EQ(fast.erasures_corrected, legacy.erasures_corrected);
  ASSERT_EQ(fast_word, legacy_word);
}

// Differential sweep: for each code, randomized fault patterns spanning
// every (er, re) regime from clean through at-capability to well beyond
// capability, where the reference decoder's real behaviour (failure
// detection or silent mis-correction) must be reproduced bit for bit.
TEST(DecoderWorkspace, DifferentialAgainstLegacyAllRegimes) {
  const CodeParams shapes[] = {
      {18, 16, 8, 1, 0},   // paper's t=1 code
      {36, 16, 8, 1, 0},   // paper's t=10 code
      {15, 9, 4, 1, 0},    // small field, odd parity count
      {18, 16, 8, 0, 0},   // fcr=0 exercises the Forney scale table
  };
  DecoderWorkspace ws;  // ONE workspace across all codes and patterns
  for (const CodeParams& p : shapes) {
    const ReedSolomon code{p};
    const unsigned budget = code.parity_symbols();
    sim::Rng rng{40000 + p.n * 100 + p.k * 10 + p.fcr};
    for (unsigned er = 0; er <= std::min(budget + 2, code.n()); ++er) {
      for (unsigned re = 0; 2 * re <= budget + 4 && er + re <= code.n();
           ++re) {
        for (int rep = 0; rep < 8; ++rep) {
          const auto data = random_data(code, rng);
          std::vector<Element> word = code.encode(data);
          const auto positions = random_positions(code.n(), er + re, rng);
          const std::vector<unsigned> erasures(positions.begin(),
                                               positions.begin() + er);
          // Erased positions get corrupted with probability ~1/2 (erasure
          // decoding must not rely on the content); error positions always.
          for (unsigned i = 0; i < er; ++i) {
            if (rng.uniform_int(2) == 0) {
              corrupt_symbol(word, positions[i], code, rng);
            }
          }
          for (unsigned i = er; i < er + re; ++i) {
            corrupt_symbol(word, positions[i], code, rng);
          }
          expect_paths_identical(code, ws, word, erasures);
        }
      }
    }
  }
}

TEST(DecoderWorkspace, ValidationErrorsMatchLegacy) {
  const ReedSolomon code{18, 16, 8};
  DecoderWorkspace ws;
  std::vector<Element> word(18, 0);

  std::vector<Element> short_word(17, 0);
  EXPECT_THROW(code.decode(ws, short_word), std::invalid_argument);

  const std::vector<unsigned> out_of_range{18};
  EXPECT_THROW(code.decode(ws, word, out_of_range), std::invalid_argument);

  const std::vector<unsigned> duplicate{3, 3};
  EXPECT_THROW(code.decode(ws, word, duplicate), std::invalid_argument);

  word[5] = 256;  // out of GF(256)
  EXPECT_THROW(code.decode(ws, word), std::invalid_argument);
}

// One workspace serving decodes of DIFFERENT codes back to back: buffers
// must adapt per call with no cross-talk.
TEST(DecoderWorkspace, InterleavedCodesShareOneWorkspace) {
  const ReedSolomon small{18, 16, 8};
  const ReedSolomon large{255, 223, 8};
  const ReedSolomon tiny{15, 9, 4};
  const ReedSolomon* codes[] = {&small, &large, &tiny};
  DecoderWorkspace ws;
  sim::Rng rng{99};
  for (int round = 0; round < 30; ++round) {
    const ReedSolomon& code = *codes[round % 3];
    const auto data = random_data(code, rng);
    std::vector<Element> word = code.encode(data);
    const unsigned t = code.t();
    const unsigned re = t == 0 ? 0 : 1 + static_cast<unsigned>(
                                             rng.uniform_int(t));
    const auto positions = random_positions(code.n(), re, rng);
    for (const unsigned p : positions) corrupt_symbol(word, p, code, rng);
    const DecodeOutcome outcome = code.decode(ws, word);
    ASSERT_EQ(outcome.status, re == 0 ? DecodeStatus::kNoError
                                      : DecodeStatus::kCorrected);
    EXPECT_EQ(code.extract_data(word), data);
  }
}

// A failed decode must leave no state that perturbs the next call through
// the same workspace (and must leave the failed word untouched).
TEST(DecoderWorkspace, DecodeAfterFailureIsClean) {
  const ReedSolomon code{36, 16, 8};
  DecoderWorkspace ws;
  sim::Rng rng{123};
  for (int round = 0; round < 20; ++round) {
    // 1. Overwhelm the decoder: 2t+1 erasures is a guaranteed kFailure.
    const auto junk_data = random_data(code, rng);
    std::vector<Element> failed = code.encode(junk_data);
    std::vector<unsigned> too_many(code.parity_symbols() + 1);
    for (unsigned i = 0; i < too_many.size(); ++i) too_many[i] = i;
    for (const unsigned p : too_many) corrupt_symbol(failed, p, code, rng);
    const std::vector<Element> failed_before = failed;
    ASSERT_EQ(code.decode(ws, failed, too_many).status,
              DecodeStatus::kFailure);
    EXPECT_EQ(failed, failed_before);  // kFailure leaves the word untouched

    // 2. The very next decode through the same workspace must be perfect.
    const auto data = random_data(code, rng);
    std::vector<Element> word = code.encode(data);
    const auto positions = random_positions(code.n(), code.t(), rng);
    for (const unsigned p : positions) corrupt_symbol(word, p, code, rng);
    ASSERT_EQ(code.decode(ws, word).status, DecodeStatus::kCorrected);
    EXPECT_EQ(code.extract_data(word), data);
  }
}

// Clean word with erasure hints still short-circuits to kNoError (matching
// the reference pipeline, which walks Chien/Forney to zero magnitudes).
TEST(DecoderWorkspace, CleanWordWithErasuresIsNoError) {
  const ReedSolomon code{18, 16, 8};
  DecoderWorkspace ws;
  sim::Rng rng{5};
  const auto data = random_data(code, rng);
  const std::vector<Element> cw = code.encode(data);
  for (const std::vector<unsigned>& erasures :
       {std::vector<unsigned>{}, std::vector<unsigned>{0},
        std::vector<unsigned>{2, 17}}) {
    std::vector<Element> word = cw;
    const DecodeOutcome outcome = code.decode(ws, word, erasures);
    EXPECT_EQ(outcome.status, DecodeStatus::kNoError);
    EXPECT_EQ(outcome.errors_corrected, 0u);
    EXPECT_EQ(outcome.erasures_corrected, 0u);
    EXPECT_EQ(word, cw);
    expect_paths_identical(code, ws, cw, erasures);
  }
}

TEST(DecoderWorkspace, EncodeBatchMatchesSingleEncodes) {
  const ReedSolomon code{18, 16, 8};
  DecoderWorkspace ws;
  sim::Rng rng{17};
  const std::size_t count = 25;
  std::vector<Element> data_plane(count * code.k());
  for (auto& d : data_plane) {
    d = static_cast<Element>(rng.uniform_int(code.field().size()));
  }
  std::vector<Element> plane(count * code.n());
  code.encode_batch(ws, data_plane, plane);
  for (std::size_t w = 0; w < count; ++w) {
    const std::vector<Element> data(
        data_plane.begin() + w * code.k(),
        data_plane.begin() + (w + 1) * code.k());
    const std::vector<Element> expect = code.encode(data);
    const std::vector<Element> got(plane.begin() + w * code.n(),
                                   plane.begin() + (w + 1) * code.n());
    ASSERT_EQ(got, expect) << "word " << w;
  }

  std::vector<Element> bad_plane(count * code.n() + 1);
  EXPECT_THROW(code.encode_batch(ws, data_plane, bad_plane),
               std::invalid_argument);
  std::vector<Element> ragged(code.k() + 1, 0);
  EXPECT_THROW(code.encode_batch(ws, ragged, plane), std::invalid_argument);
}

TEST(DecoderWorkspace, DecodeBatchMatchesSingleDecodes) {
  const ReedSolomon code{36, 16, 8};
  DecoderWorkspace ws;
  sim::Rng rng{31};
  const std::size_t count = 40;
  const unsigned n = code.n();
  std::vector<Element> plane(count * n);
  std::vector<std::uint8_t> flags(count * n, 0);
  std::vector<std::vector<Element>> singles(count);
  std::vector<std::vector<unsigned>> single_erasures(count);
  for (std::size_t w = 0; w < count; ++w) {
    const auto data = random_data(code, rng);
    std::vector<Element> word = code.encode(data);
    // Mix of regimes across the batch, some beyond capability.
    const unsigned er = static_cast<unsigned>(rng.uniform_int(8));
    const unsigned re = static_cast<unsigned>(rng.uniform_int(12));
    const auto positions = random_positions(n, er + re, rng);
    for (unsigned i = 0; i < er; ++i) {
      flags[w * n + positions[i]] = 1;
      single_erasures[w].push_back(positions[i]);
      if (rng.uniform_int(2) == 0) {
        corrupt_symbol(word, positions[i], code, rng);
      }
    }
    for (unsigned i = er; i < er + re; ++i) {
      corrupt_symbol(word, positions[i], code, rng);
    }
    std::copy(word.begin(), word.end(), plane.begin() + w * n);
    singles[w] = std::move(word);
  }

  std::vector<DecodeOutcome> outcomes(count);
  code.decode_batch(ws, plane, outcomes, flags);

  DecoderWorkspace single_ws;
  for (std::size_t w = 0; w < count; ++w) {
    // decode_batch gathers flags in ascending position order; the reference
    // list was built the same way, so outputs must match exactly.
    std::sort(single_erasures[w].begin(), single_erasures[w].end());
    const DecodeOutcome expect =
        code.decode(single_ws, singles[w], single_erasures[w]);
    ASSERT_EQ(outcomes[w].status, expect.status) << "word " << w;
    ASSERT_EQ(outcomes[w].errors_corrected, expect.errors_corrected);
    ASSERT_EQ(outcomes[w].erasures_corrected, expect.erasures_corrected);
    const std::vector<Element> got(plane.begin() + w * n,
                                   plane.begin() + (w + 1) * n);
    ASSERT_EQ(got, singles[w]) << "word " << w;
  }

  std::vector<DecodeOutcome> wrong_count(count + 1);
  EXPECT_THROW(code.decode_batch(ws, plane, wrong_count, flags),
               std::invalid_argument);
  std::vector<std::uint8_t> wrong_flags(count * n - 1, 0);
  EXPECT_THROW(code.decode_batch(ws, plane, outcomes, wrong_flags),
               std::invalid_argument);
}

TEST(DecoderWorkspace, ReserveMakesFirstDecodeAllocationStable) {
  // Functional half of the zero-allocation story (the counting-allocator
  // check lives in test_zero_alloc.cpp): reserve() then decode works and
  // the workspace survives arbitrary reuse.
  const ReedSolomon code{255, 223, 8};
  DecoderWorkspace ws;
  ws.reserve(code);
  sim::Rng rng{77};
  const auto data = random_data(code, rng);
  std::vector<Element> word = code.encode(data);
  const auto positions = random_positions(code.n(), code.t(), rng);
  for (const unsigned p : positions) corrupt_symbol(word, p, code, rng);
  ASSERT_EQ(code.decode(ws, word).status, DecodeStatus::kCorrected);
  EXPECT_EQ(code.extract_data(word), data);
}

// Known campaign answers. Every MonteCarloResult counter of these
// campaigns was pinned on the last build that still carried the Poly-based
// per-trial codec route, where that route, the shared-codec per-trial
// route and the batched-plane route all agreed exactly at 1 and 4 threads.
// Each campaign must keep reproducing them at every thread count and batch
// width. Fault-count means are pinned as exact integer sums over the 600
// trials (the accumulator's own representation).
struct PinnedCampaign {
  const char* what;
  std::size_t failures;
  std::uint64_t no_output_failures;
  std::uint64_t wrong_data_failures;
  std::uint64_t scrub_failures;
  std::uint64_t scrub_miscorrections;
  double seu_sum;
  double permanent_sum;
};

void expect_pinned(const analysis::MonteCarloResult& got,
                   const PinnedCampaign& want, const std::string& where) {
  const std::string at = std::string(want.what) + " " + where;
  constexpr std::size_t kTrials = 600;
  EXPECT_EQ(got.failure.trials, kTrials) << at;
  EXPECT_EQ(got.failure.failures, want.failures) << at;
  EXPECT_EQ(got.no_output_failures, want.no_output_failures) << at;
  EXPECT_EQ(got.wrong_data_failures, want.wrong_data_failures) << at;
  EXPECT_EQ(got.scrub_failures, want.scrub_failures) << at;
  EXPECT_EQ(got.scrub_miscorrections, want.scrub_miscorrections) << at;
  EXPECT_EQ(got.mean_seu_per_trial, want.seu_sum / kTrials) << at;
  EXPECT_EQ(got.mean_permanent_per_trial, want.permanent_sum / kTrials) << at;
}

TEST(DecoderWorkspace, MonteCarloCampaignsMatchPinnedAnswers) {
  analysis::MonteCarloConfig mc;
  mc.trials = 600;
  mc.t_end_hours = 200.0;
  mc.seed = 2026;
  mc.chunk_trials = 64;

  memory::SimplexSystemConfig simplex;
  simplex.code = {18, 16, 8, 1};
  simplex.rates.seu_rate_per_bit_hour = 2e-4;
  simplex.rates.perm_rate_per_symbol_hour = 2e-5;

  memory::DuplexSystemConfig duplex;
  duplex.code = {18, 16, 8, 1};
  duplex.rates = simplex.rates;

  // Scrub decode-rewrite passes every 20 h: the scrub counters move.
  memory::DuplexSystemConfig scrubbed = duplex;
  scrubbed.scrub_policy = memory::ScrubPolicy::kPeriodic;
  scrubbed.scrub_period_hours = 20.0;

  // Rung 1 (retry with self-test) over slowly located stuck bits: every
  // trial takes the per-trial read() route whatever batch_trials says.
  memory::SimplexSystemConfig simplex_retry = simplex;
  simplex_retry.rates.perm_rate_per_symbol_hour = 1e-4;
  simplex_retry.rates.detection_latency_hours = 50.0;
  simplex_retry.degradation.retry_with_detection = true;
  memory::DuplexSystemConfig duplex_retry = duplex;
  duplex_retry.rates = simplex_retry.rates;
  duplex_retry.degradation = simplex_retry.degradation;

  // The scrub-replay regime: the mc_duplex_scrub benchmark's rates and
  // exponential scrubbing at Tsc = 0.5 h over 48 h, where most passes find
  // both modules unchanged since the previous pass. Pinned before scrub
  // replay existed, so a replayed pass must count exactly as a decoded one
  // would. Variants: deferred detection (detect_all_faults events land
  // between passes) and 3-bit multi-bit upsets.
  analysis::MonteCarloConfig mc48 = mc;
  mc48.t_end_hours = 48.0;
  memory::DuplexSystemConfig replay = duplex;
  replay.rates.seu_rate_per_bit_hour = 0.02 / 24.0;
  replay.rates.perm_rate_per_symbol_hour = 0.05 / 24.0;
  replay.scrub_policy = memory::ScrubPolicy::kExponential;
  replay.scrub_period_hours = 0.5;
  memory::DuplexSystemConfig replay_latent = replay;
  replay_latent.rates.detection_latency_hours = 2.0;
  memory::DuplexSystemConfig replay_mbu = replay;
  replay_mbu.rates.mbu_probability = 0.25;
  replay_mbu.rates.mbu_span_bits = 3;

  const PinnedCampaign kSimplex{"simplex", 579, 552, 27, 0, 0, 3441, 53};
  const PinnedCampaign kDuplex{"duplex", 571, 505, 66, 0, 0, 6843, 97};
  const PinnedCampaign kScrubbed{"scrubbed duplex", 82, 58, 24, 322, 125,
                                 6843, 97};
  const PinnedCampaign kSimplexRetry{"simplex rung 1", 580, 527, 53, 0, 0,
                                     3413, 233};
  const PinnedCampaign kDuplexRetry{"duplex rung 1", 565, 496, 69, 0, 0,
                                    6844, 448};
  const PinnedCampaign kReplay{"scrub replay", 41, 35, 6, 760, 168, 6853,
                               2137};
  const PinnedCampaign kReplayLatent{"scrub replay, detection latency", 42,
                                     36, 6, 686, 194, 6853, 2137};
  const PinnedCampaign kReplayMbu{"scrub replay, MBU", 54, 48, 6, 1351, 196,
                                  6979, 2136};

  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t batch : {std::size_t{0}, std::size_t{1}}) {
      mc.threads = threads;
      mc.batch_trials = batch;
      const std::string where = "threads=" + std::to_string(threads) +
                                " batch_trials=" + std::to_string(batch);
      expect_pinned(analysis::run_simplex_trials(simplex, mc), kSimplex,
                    where);
      expect_pinned(analysis::run_duplex_trials(duplex, mc), kDuplex, where);
      expect_pinned(analysis::run_duplex_trials(scrubbed, mc), kScrubbed,
                    where);
      expect_pinned(analysis::run_simplex_trials(simplex_retry, mc),
                    kSimplexRetry, where);
      expect_pinned(analysis::run_duplex_trials(duplex_retry, mc),
                    kDuplexRetry, where);
      mc48.threads = threads;
      mc48.batch_trials = batch;
      expect_pinned(analysis::run_duplex_trials(replay, mc48), kReplay, where);
      expect_pinned(analysis::run_duplex_trials(replay_latent, mc48),
                    kReplayLatent, where);
      expect_pinned(analysis::run_duplex_trials(replay_mbu, mc48), kReplayMbu,
                    where);
    }
  }
}

}  // namespace
}  // namespace rsmem::rs

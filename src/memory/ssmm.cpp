#include "memory/ssmm.h"

#include <bit>
#include <stdexcept>

#include "sim/rng.h"

namespace rsmem::memory {

namespace {

std::vector<Element> random_data(sim::Rng& rng, unsigned k, unsigned m) {
  std::vector<Element> data(k);
  rng.uniform_ints(1u << m, data);
  return data;
}

std::uint64_t bit_difference(std::span<const Element> a,
                             std::span<const Element> b) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return bits;
}

// Accounts one word's read at one checkpoint.
void account(SsmmCheckpoint& cp, const ReadResult& read,
             std::span<const Element> truth, unsigned k, unsigned m) {
  ++cp.words_read;
  cp.bits_read += static_cast<std::uint64_t>(k) * m;
  if (!read.success) {
    ++cp.reads_failed;
    cp.bits_in_error += static_cast<std::uint64_t>(k) * m;
  } else if (!read.data_correct) {
    ++cp.reads_wrong_data;
    cp.bits_in_error += bit_difference(read.data, truth);
  }
}

}  // namespace

std::vector<SsmmCheckpoint> run_ssmm_mission(
    const SsmmConfig& config, std::span<const double> read_times_hours) {
  if (config.words == 0) {
    throw std::invalid_argument("run_ssmm_mission: need at least one word");
  }
  for (std::size_t i = 1; i < read_times_hours.size(); ++i) {
    if (read_times_hours[i] < read_times_hours[i - 1]) {
      throw std::invalid_argument("run_ssmm_mission: times must be sorted");
    }
  }

  std::vector<SsmmCheckpoint> checkpoints(read_times_hours.size());
  for (std::size_t c = 0; c < read_times_hours.size(); ++c) {
    checkpoints[c].time_hours = read_times_hours[c];
  }

  const sim::Rng root{config.seed};
  // Words are independent: simulate each through all checkpoints in turn.
  for (std::size_t w = 0; w < config.words; ++w) {
    sim::Rng data_rng = root.split(2 * w);
    const std::uint64_t word_seed = root.split(2 * w + 1).next_u64();
    const std::vector<Element> data =
        random_data(data_rng, config.code.k, config.code.m);

    if (config.duplex) {
      DuplexSystemConfig cfg;
      cfg.code = config.code;
      cfg.rates = config.rates;
      cfg.scrub_policy = config.scrub_policy;
      cfg.scrub_period_hours = config.scrub_period_hours;
      cfg.seed = word_seed;
      DuplexSystem sys{cfg};
      sys.store(data);
      for (std::size_t c = 0; c < read_times_hours.size(); ++c) {
        sys.advance_to(read_times_hours[c]);
        account(checkpoints[c], sys.read().read, data, config.code.k,
                config.code.m);
      }
    } else {
      SimplexSystemConfig cfg;
      cfg.code = config.code;
      cfg.rates = config.rates;
      cfg.scrub_policy = config.scrub_policy;
      cfg.scrub_period_hours = config.scrub_period_hours;
      cfg.seed = word_seed;
      SimplexSystem sys{cfg};
      sys.store(data);
      for (std::size_t c = 0; c < read_times_hours.size(); ++c) {
        sys.advance_to(read_times_hours[c]);
        account(checkpoints[c], sys.read(), data, config.code.k,
                config.code.m);
      }
    }
  }
  return checkpoints;
}

}  // namespace rsmem::memory

// Workloads `mc_duplex_scrub` and `mc_clean_screen`: Monte-Carlo campaigns
// through rsmem::simulate().
//
// Untraced runs repeat campaigns at threads = host cores, each on a fresh
// seed, until the time is up; ops_per_s (an op is a trial) is their median
// rate. The first campaign is then run again at threads = 1 and must agree
// counter for counter, and a reference campaign at a fixed seed is checked
// against pinned counters.
//
// Traced runs do a fixed amount of work, so their counts repeat for a
// seed: campaigns with a per-trial observer (exact memory/rs counts and
// per-thread trial timestamps) alternate with the same campaigns without
// it, and kernel probes at the workload's code and plane width estimate
// the codec's share of a campaign.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/api.h"
#include "known_answers.h"
#include "probes.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace analysis = rsmem::analysis;

// Width of the Monte-Carlo engine's gather/decode planes (trials), the
// library default of MonteCarloConfig::batch_trials.
constexpr std::size_t kPlaneTrials = 64;

struct McWorkload {
  const char* name;
  rsmem::core::MemorySystemSpec spec;
  std::size_t campaign_trials;  // per timed campaign
  std::size_t trace_trials;     // per traced campaign
  const McPin* pin;
};

McWorkload duplex_scrub() {
  McWorkload w{"mc_duplex_scrub", {}, 16384, 8192, &kMcDuplexScrubPin};
  w.spec.arrangement = analysis::Arrangement::kDuplex;
  w.spec.code = {18, 16, 8, 1};
  w.spec.seu_rate_per_bit_day = 0.02;
  w.spec.erasure_rate_per_symbol_day = 0.05;
  w.spec.scrub_period_seconds = 1800.0;
  return w;
}

McWorkload clean_screen() {
  McWorkload w{"mc_clean_screen", {}, 65536, 32768, &kMcCleanScreenPin};
  w.spec.arrangement = analysis::Arrangement::kSimplex;
  w.spec.code = {255, 223, 8, 1};
  w.spec.seu_rate_per_bit_day = 2e-5;
  return w;
}

analysis::MonteCarloConfig campaign(std::size_t trials, std::uint64_t seed,
                                    unsigned threads) {
  analysis::MonteCarloConfig config;
  config.trials = trials;
  config.t_end_hours = 48.0;
  config.seed = seed;
  config.threads = threads;
  return config;
}

// Exact integer view of every MonteCarloResult counter.
McPin counters_of(const analysis::MonteCarloResult& r) {
  const double trials = static_cast<double>(r.failure.trials);
  return {r.failure.trials,
          r.failure.failures,
          static_cast<std::uint64_t>(r.mean_seu_per_trial * trials + 0.5),
          static_cast<std::uint64_t>(r.mean_permanent_per_trial * trials + 0.5),
          r.scrub_failures,
          r.scrub_miscorrections,
          r.no_output_failures,
          r.wrong_data_failures};
}

bool same(const McPin& a, const McPin& b) {
  return std::memcmp(&a, &b, sizeof(McPin)) == 0;
}

std::string describe(const McPin& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(c.trials),
                static_cast<unsigned long long>(c.failures),
                static_cast<unsigned long long>(c.seu_injected),
                static_cast<unsigned long long>(c.permanent_injected),
                static_cast<unsigned long long>(c.scrub_failures),
                static_cast<unsigned long long>(c.scrub_miscorrections),
                static_cast<unsigned long long>(c.no_output),
                static_cast<unsigned long long>(c.wrong_data));
  return buf;
}

// Runs one campaign; returns wall seconds.
double timed_simulate(const McWorkload& w,
                      const analysis::MonteCarloConfig& config,
                      analysis::MonteCarloResult& out) {
  const std::int64_t start = now_ns();
  out = rsmem::simulate(w.spec, config);
  return seconds_since(start);
}

// ---------------------------------------------------------------------------
// Trace-run observer: exact per-trial counts and per-thread timestamps.

struct alignas(64) ThreadSlot {
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
  std::uint64_t trials = 0;
  std::uint64_t words = 0;
  std::uint64_t errors_corrected = 0;
  std::uint64_t erasures_corrected = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t seu = 0;
  std::uint64_t permanent = 0;
};

struct Observation {
  static constexpr std::size_t kSlots = 64;
  std::array<ThreadSlot, kSlots> slots{};
  std::atomic<std::size_t> next_slot{0};
  std::uint64_t generation = 0;
  // (corrupted, erased) weight of read words, from slot 0 only.
  std::vector<std::pair<unsigned, unsigned>> weights;

  ThreadSlot total() const {
    ThreadSlot sum;
    for (const ThreadSlot& s : slots) {
      sum.trials += s.trials;
      sum.words += s.words;
      sum.errors_corrected += s.errors_corrected;
      sum.erasures_corrected += s.erasures_corrected;
      sum.decode_failures += s.decode_failures;
      sum.seu += s.seu;
      sum.permanent += s.permanent;
    }
    return sum;
  }
};

std::function<void(const analysis::TrialRecord&)> observer_for(
    Observation& obs) {
  obs.slots = {};
  obs.next_slot = 0;
  obs.generation += 1;
  return [&obs, generation = obs.generation](const analysis::TrialRecord& r) {
    thread_local std::uint64_t seen_generation = 0;
    thread_local std::size_t slot_index = 0;
    if (seen_generation != generation) {
      seen_generation = generation;
      slot_index = obs.next_slot.fetch_add(1) % Observation::kSlots;
    }
    ThreadSlot& slot = obs.slots[slot_index];
    const std::int64_t t = now_ns();
    if (slot.trials == 0) slot.first_ns = t;
    slot.last_ns = t;
    slot.trials += 1;
    slot.seu += r.seu_injected;
    slot.permanent += r.permanent_injected;
    for (unsigned i = 0; i < r.word_count; ++i) {
      const analysis::WordObservation& word = r.words[i];
      slot.words += 1;
      slot.errors_corrected += word.errors_corrected;
      slot.erasures_corrected += word.erasures_corrected;
      slot.decode_failures += word.decode_ok ? 0 : 1;
      if (slot_index == 0 && obs.weights.size() < 4096) {
        obs.weights.emplace_back(word.corrupted_symbols,
                                 word.erasures_supplied);
      }
    }
  };
}

// Head and tail idle of the campaign's worker threads (first trial done
// late, last trial done early) over threads x wall time.
double idle_share(const Observation& obs, std::int64_t start_ns,
                  std::int64_t end_ns, unsigned threads) {
  const double wall = static_cast<double>(end_ns - start_ns);
  double idle = 0.0;
  unsigned seen = 0;
  for (const ThreadSlot& s : obs.slots) {
    if (s.trials == 0) continue;
    seen += 1;
    idle += static_cast<double>(s.first_ns - start_ns) +
            static_cast<double>(end_ns - s.last_ns);
  }
  idle += static_cast<double>(threads > seen ? threads - seen : 0) * wall;
  return idle / (wall * threads);
}

void run_mc(const McWorkload& w, const Options& options, Tracer& tracer,
            Result& result) {
  const unsigned threads = host_threads();
  rsmem::sim::Rng rng(options.seed);
  analysis::MonteCarloResult out;

  // Set-up: codec and SIMD tables, thread start-up, and one warm-up
  // campaign at each thread count.
  timed_simulate(w, campaign(w.campaign_trials / 4, rng.uniform_int(1ull << 62),
                             threads),
                 out);
  timed_simulate(w, campaign(w.campaign_trials / 16,
                             rng.uniform_int(1ull << 62), 1),
                 out);
  result.setup_s = seconds_since(options.start_ns);
  if (options.setup_only) return;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);

  if (!tracer.enabled()) {
    std::vector<double> rates;
    const std::uint64_t first_seed = rng.uniform_int(1ull << 62);
    McPin first{};
    while (now_ns() < deadline || rates.empty()) {
      const std::uint64_t seed = rates.empty() ? first_seed
                                               : rng.uniform_int(1ull << 62);
      const double t =
          timed_simulate(w, campaign(w.campaign_trials, seed, threads), out);
      rates.push_back(static_cast<double>(w.campaign_trials) / t);
      if (seed == first_seed) first = counters_of(out);
      result.attempted += 1;
    }
    const double t1 =
        timed_simulate(w, campaign(w.campaign_trials, first_seed, 1), out);
    result.attempted += 1;
    if (!same(first, counters_of(out))) {
      result.failed += 2;
      result.mismatch("threads=1 vs threads=" + std::to_string(threads) +
                      " counters differ at seed " + std::to_string(first_seed));
    }
    std::printf("%s: %zu campaigns of %zu trials\n", w.name, rates.size(),
                w.campaign_trials);
    result.metric("ops_per_s", median(rates), "1/s");
    result.note("trials_per_s_1t",
                json_number(static_cast<double>(w.campaign_trials) / t1));
    result.note("rates_per_s", json_list(rates));
  }

  // Known answers: the reference campaign's counters are pinned.
  const McPin pinned_run = counters_of(rsmem::simulate(
      w.spec, campaign(w.pin->trials, kMcPinSeed, threads)));
  result.attempted += 1;
  if (!same(pinned_run, *w.pin)) {
    result.failed += 1;
    result.mismatch(std::string(w.name) + " pinned counters: got " +
                    describe(pinned_run));
  }
  if (!tracer.enabled()) return;

  // Traced run: fixed work. Pairs of one-thread campaigns with the
  // observer off/on give the tracing overhead and the exact counts.
  constexpr int kPairs = 3;
  Observation obs;
  ThreadSlot counts;
  McPin campaign_counts{};
  std::vector<double> off_s;
  std::vector<double> on_s;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kPairs; ++i) seeds.push_back(rng.uniform_int(1ull << 62));
  for (const std::uint64_t seed : seeds) {
    off_s.push_back(timed_simulate(w, campaign(w.trace_trials, seed, 1), out));
    analysis::MonteCarloConfig config = campaign(w.trace_trials, seed, 1);
    config.observer = observer_for(obs);
    {
      Tracer::Scope span(tracer, "analysis.campaign");
      on_s.push_back(timed_simulate(w, config, out));
    }
    const ThreadSlot t = obs.total();
    counts.words += t.words;
    counts.errors_corrected += t.errors_corrected;
    counts.erasures_corrected += t.erasures_corrected;
    counts.decode_failures += t.decode_failures;
    counts.seu += t.seu;
    counts.permanent += t.permanent;
    const McPin c = counters_of(out);
    campaign_counts.trials += c.trials;
    campaign_counts.scrub_failures += c.scrub_failures;
    campaign_counts.scrub_miscorrections += c.scrub_miscorrections;
    campaign_counts.no_output += c.no_output;
    campaign_counts.wrong_data += c.wrong_data;
    result.attempted += 1;
  }
  // The same campaigns on every core, observer on, for scaling and idle.
  std::vector<double> many_s;
  std::vector<double> idle;
  for (const std::uint64_t seed : seeds) {
    analysis::MonteCarloConfig config = campaign(w.trace_trials, seed, threads);
    config.observer = observer_for(obs);
    const std::int64_t start = now_ns();
    many_s.push_back(timed_simulate(w, config, out));
    idle.push_back(idle_share(obs, start, now_ns(), threads));
    result.attempted += 1;
  }
  const Probes probes =
      run_probes(w.spec.code,
                 kPlaneTrials * (w.spec.arrangement == analysis::Arrangement::kDuplex
                                     ? 2
                                     : 1),
                 obs.weights, rng);

  const double trials = static_cast<double>(w.trace_trials);
  const double campaign_ms = 1e3 * median(on_s);
  const double per = 1.0 / kPairs;
  // Codec estimate for one campaign: every read decode plus the expected
  // scrub decodes (both modules per scrub pass) at the probed per-word
  // cost, and one encode per stored word at the probed plane rate.
  const double words_per_trial =
      w.spec.arrangement == analysis::Arrangement::kDuplex ? 2.0 : 1.0;
  const double scrub_passes =
      w.spec.scrub_period_seconds > 0.0
          ? 48.0 * 3600.0 / w.spec.scrub_period_seconds
          : 0.0;
  const double decodes = static_cast<double>(counts.words) * per +
                         trials * words_per_trial * scrub_passes;
  const double codec_ms =
      (decodes * probes.decode_word_us +
       trials * words_per_trial * w.spec.code.n / probes.encode_batch_mbps) /
      1e3;
  result.op_name = "campaign of " + std::to_string(w.trace_trials) +
                   " trials, 1 thread";
  result.stages.push_back({"rs.codec_est", codec_ms});
  result.stages.push_back({"unattributed", campaign_ms - codec_ms});

  result.metric("analysis.scaling_eff",
                median(on_s) / (threads * median(many_s)), "share");
  result.metric("analysis.thread_idle_share", median(idle), "share");
  result.metric("unattributed_ms", campaign_ms - codec_ms, "ms");
  result.metric("total_ms", campaign_ms, "ms");
  add_stage_shares(result);
  add_probe_metrics(probes, result);
  result.metric("rs.words_decoded", counts.words * per, "count");
  result.metric("rs.errors_corrected", counts.errors_corrected * per, "count");
  result.metric("rs.erasures_corrected", counts.erasures_corrected * per,
                "count");
  result.metric("rs.decode_failures", counts.decode_failures * per, "count");
  result.metric("memory.seu_injected", counts.seu * per, "count");
  result.metric("memory.permanent_injected", counts.permanent * per, "count");
  result.metric("memory.scrub_failures", campaign_counts.scrub_failures * per,
                "count");
  result.metric("memory.scrub_miscorrections",
                campaign_counts.scrub_miscorrections * per, "count");
  result.metric("memory.no_output", campaign_counts.no_output * per, "count");
  result.metric("memory.wrong_data", campaign_counts.wrong_data * per, "count");
  result.metric("trace.overhead_pct",
                100.0 * (median(on_s) - median(off_s)) / median(off_s), "%");
  result.note("plane_width_words",
              std::to_string(kPlaneTrials * static_cast<std::size_t>(
                                                words_per_trial)));
}

}  // namespace

void run_mc_duplex_scrub(const Options& options, Tracer& tracer,
                         Result& result) {
  run_mc(duplex_scrub(), options, tracer, result);
}

void run_mc_clean_screen(const Options& options, Tracer& tracer,
                         Result& result) {
  run_mc(clean_screen(), options, tracer, result);
}

}  // namespace perfbench

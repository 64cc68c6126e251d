// Shared plumbing of the perfbench binary: options, the result record
// every workload fills, order statistics, the in-memory span tracer, and
// a tiny JSON writer for the one-line result perfbench/run.py parses.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  // stop after set-up and report setup_s only
  std::string trace_out;    // spans file written at exit (trace runs)
  std::int64_t start_ns = 0;  // steady-clock time main() was entered
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One row of the per-layer attribution table (trace runs): time per
// operation spent in a stage, by self time of its spans.
struct StageRow {
  std::string stage;
  double ms_per_op = 0.0;
};

struct Result {
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // known-answer mismatches
  std::vector<Metric> metrics;
  std::vector<StageRow> stages;  // trace runs only
  std::string op_name;           // what one "op" of the stage table is
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string raw_json) {
    info.emplace_back(std::move(key), std::move(raw_json));
  }
  // Records a failed known-answer check; the run reports correct=false.
  void mismatch(std::string what) { check_failures.push_back(std::move(what)); }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; the
// sample is sorted in place. 0 for an empty sample.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

// Threads the load and the campaigns may use: the host's core count.
unsigned host_threads();

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

std::string json_string(const std::string& text);
std::string json_number(double value);
std::string json_list(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Span tracer. Spans (name, start, end, parent, request id) are appended to
// an in-memory vector and written out once, at exit. A disabled tracer
// records nothing, so the same code runs traced and untraced. Not
// thread-safe: traced code runs on one thread.
struct Span {
  std::string name;  // "<module>.<stage>", e.g. "markov.solve"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span vector, -1 = root
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // RAII span: opens on construction, closes on destruction, and is the
  // parent of every span opened while it is live.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  // Appends an already-timed span (used where the timestamps come from
  // elsewhere, e.g. the load generator's per-request records).
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name (duration minus the union of its children's
  // intervals), summed over all spans, in ms, sorted by name.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;
  // Sum of the root spans' durations, in ms.
  double root_ms() const;

  // Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::int64_t current_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H

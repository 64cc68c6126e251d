#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "sim/thread_pool.h"

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

unsigned host_threads() { return rsmem::sim::ThreadPool::resolve(0); }

double peak_rss_mb() {
  // VmHWM, not getrusage(): Linux carries ru_maxrss across execve, so a
  // child of a large parent would report the parent's peak.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_number(values[i]);
  }
  return out + "]";
}

Tracer::Scope::Scope(Tracer& tracer, const char* name,
                     std::uint64_t request_id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  saved_parent_ = tracer_.current_;
  index_ = tracer_.add(name, now_ns(), 0, saved_parent_, request_id);
  tracer_.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.current_ = saved_parent_;
}

std::int64_t Tracer::add(std::string name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t parent,
                         std::uint64_t request_id) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_name() const {
  // Children per parent, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += static_cast<double>(duration - covered) * 1e-6;
  }
  return {self.begin(), self.end()};
}

double Tracer::root_ms() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(span.name)
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent
        << ",\"request_id\":" << span.request_id << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "cli/args.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

namespace rsmem::cli {

namespace {

// The whole of `text` as a finite double; nullopt for anything else,
// including nan and inf, which no flag accepts.
std::optional<double> parse_finite(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  if (argc < 2) {
    throw ArgError("missing command; try 'rsmem_cli help'");
  }
  args.command_ = argv[1];
  if (!args.command_.empty() && args.command_[0] == '-') {
    throw ArgError("expected a command before flags, got '" +
                   args.command_ + "'");
  }
  int i = 2;
  while (i < argc) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw ArgError("expected a --flag, got '" + token + "'");
    }
    const std::string key = token.substr(2);
    const bool has_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    if (has_value) {
      if (args.values_.count(key) != 0 || args.switches_.count(key) != 0) {
        throw ArgError("duplicate flag --" + key);
      }
      args.values_.emplace(key, argv[i + 1]);
      i += 2;
    } else {
      if (args.values_.count(key) != 0 || args.switches_.count(key) != 0) {
        throw ArgError("duplicate flag --" + key);
      }
      args.switches_.insert(key);
      i += 1;
    }
  }
  return args;
}

bool Args::has(const std::string& key) const {
  return values_.count(key) != 0 || switches_.count(key) != 0;
}

std::string Args::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw ArgError("missing required flag --" + key);
  }
  return it->second;
}

std::string Args::get_string_or(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key) const {
  const std::string raw = get_string(key);
  const std::optional<double> value = parse_finite(raw);
  if (!value) {
    throw ArgError("flag --" + key + " expects a finite number, got '" + raw +
                   "'");
  }
  return *value;
}

double Args::get_double_or(const std::string& key, double fallback) const {
  return values_.count(key) != 0 ? get_double(key) : fallback;
}

long Args::get_long(const std::string& key) const {
  const std::string raw = get_string(key);
  char* end = nullptr;
  const long value = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    throw ArgError("flag --" + key + " expects an integer, got '" + raw +
                   "'");
  }
  return value;
}

long Args::get_long_or(const std::string& key, long fallback) const {
  return values_.count(key) != 0 ? get_long(key) : fallback;
}

bool Args::get_switch(const std::string& key) const {
  if (values_.count(key) != 0) {
    throw ArgError("flag --" + key + " does not take a value");
  }
  return switches_.count(key) != 0;
}

std::vector<double> Args::get_double_list(const std::string& key) const {
  const std::string raw = get_string(key);
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t comma = raw.find(',', start);
    const std::string item =
        raw.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    const std::optional<double> value = parse_finite(item);
    if (!value) {
      throw ArgError("flag --" + key + " expects finite numbers, got '" +
                     item + "'");
    }
    out.push_back(*value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    throw ArgError("flag --" + key + " expects a non-empty list");
  }
  return out;
}

void Args::require_known(const std::set<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    (void)value;
    if (known.count(key) == 0) {
      throw ArgError("unknown flag --" + key);
    }
  }
  for (const auto& key : switches_) {
    if (known.count(key) == 0) {
      throw ArgError("unknown flag --" + key);
    }
  }
}

}  // namespace rsmem::cli

// Minimal command-line argument parser for the rsmem_cli tool.
//
// Grammar:  rsmem_cli <command> [--flag value]... [--switch]...
// Typed getters validate and convert; unknown flags and missing required
// values raise ArgError with a user-facing message. Kept dependency-free
// and fully unit-tested (tests/test_cli.cpp).
#ifndef RSMEM_CLI_ARGS_H
#define RSMEM_CLI_ARGS_H

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace rsmem::cli {

class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  // Parses argv[1..): the first token is the command, the rest are
  // --key value pairs or bare --switches (a --key followed by another
  // --token or end of input is a switch).
  static Args parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  bool has(const std::string& key) const;

  // Typed getters; the *_or forms supply defaults, the plain forms throw
  // ArgError when the flag is absent. Doubles must be finite: nan and inf
  // raise ArgError.
  std::string get_string(const std::string& key) const;
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  double get_double(const std::string& key) const;
  double get_double_or(const std::string& key, double fallback) const;
  long get_long(const std::string& key) const;
  long get_long_or(const std::string& key, long fallback) const;
  bool get_switch(const std::string& key) const;  // present and value-less

  // Comma-separated list of doubles, e.g. --rates 1e-5,3e-6.
  std::vector<double> get_double_list(const std::string& key) const;

  // Throws ArgError naming any flag not in `known` (catches typos).
  void require_known(const std::set<std::string>& known) const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;   // --key value
  std::set<std::string> switches_;              // bare --key
};

}  // namespace rsmem::cli

#endif  // RSMEM_CLI_ARGS_H

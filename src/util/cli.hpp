// Tiny CLI flag parser for bench/example binaries.
//
// Accepted forms: --key=value, --key value, and bare --flag (boolean true).
// Unknown positional arguments are collected in positionals(). Parsed flags
// are held in an engine ParamMap, which also supplies the typed getters —
// one parser implementation serves both surfaces, so `--lazy yes` on the
// command line and ParamMap{{"lazy", "yes"}} in code cannot disagree.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/params.hpp"

namespace ewalk {

/// Parses a comma-separated list of unsigned integers ("3,4,8" -> {3, 4, 8}).
/// Every token must be wholly numeric: a typo'd "1e5" or "10k" is an
/// std::invalid_argument, never a silently truncated leading value.
inline std::vector<std::uint64_t> parse_u64_list(const std::string& spec) {
  std::vector<std::uint64_t> values;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos)
      throw std::invalid_argument("bad unsigned value in list: '" + token +
                                  "' (want e.g. 3,4,8)");
    try {
      values.push_back(std::stoull(token));
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("value out of range in list: '" + token + "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

/// One row of the canonical run-option table: a historical alias spelling
/// and the canonical key it folds into.
struct OptionAlias {
  std::string alias;      ///< accepted synonym, e.g. "walk"
  std::string canonical;  ///< canonical key, e.g. "process"
};

/// The canonical run-option table shared by `ewalk`, `ewalkd`, and the
/// benches: every accepted synonym of a run-level option, mapped to its one
/// canonical spelling. CLI flag parsing (Cli) and the server's JSON request
/// fields (src/serve/protocol.cpp) both fold aliases through this table, so
/// a flag and its request-field twin cannot diverge.
const std::vector<OptionAlias>& run_option_aliases();

/// Rewrites every aliased key in `params` to its canonical spelling
/// (run_option_aliases), in place. A request naming an alias and its
/// canonical key with *different* values is ambiguous and throws
/// std::invalid_argument; naming both with equal values is folded silently.
void canonicalize_run_params(ParamMap& params);

class Cli {
 public:
  /// Parses argv. Aliased flags (--walk, --generator) are canonicalized at
  /// parse time via canonicalize_run_params, so downstream code only ever
  /// sees the canonical keys (--process, --graph).
  Cli(int argc, char** argv);

  bool has(const std::string& key) const { return params_.has(key); }

  std::string get(const std::string& key, const std::string& fallback) const {
    return params_.get(key, fallback);
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return params_.get_int(key, fallback);
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    return params_.get_u64(key, fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    return params_.get_double(key, fallback);
  }
  bool get_bool(const std::string& key, bool fallback) const {
    return params_.get_bool(key, fallback);
  }

  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::string& program() const { return program_; }

  /// All parsed --key values, for forwarding into engine registries.
  const ParamMap& params() const { return params_; }
  const std::map<std::string, std::string>& values() const {
    return params_.values();
  }

 private:
  std::string program_;
  ParamMap params_;
  std::vector<std::string> positionals_;
};

/// Resolves the --threads / --pin flags every binary shares: --threads
/// (`default_threads` when absent; must be >= 0) goes through
/// resolve_thread_count, so 0 means all hardware threads and
/// above-hardware requests clamp with a warning on stderr; --pin turns on
/// worker pinning, throws std::invalid_argument where thread affinity is
/// unsupported, and only warns when best-effort pinning fails.
std::uint32_t resolve_cli_threads(const Cli& cli, std::int64_t default_threads);

}  // namespace ewalk

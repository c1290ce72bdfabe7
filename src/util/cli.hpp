// Tiny CLI flag parser for bench/example binaries.
//
// Accepted forms: --key=value, --key value, and bare --flag (boolean true).
// Unknown positional arguments are collected in positionals(). Parsed flags
// are held in an engine ParamMap, which also supplies the typed getters —
// one parser implementation serves both surfaces, so `--lazy yes` on the
// command line and ParamMap{{"lazy", "yes"}} in code cannot disagree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/params.hpp"

namespace ewalk {

/// The parsed --key values of argv, with ParamMap's typed getters.
class Cli : public ParamMap {
 public:
  /// Parses argv. Keys are kept as spelled; a run's alias spellings
  /// (--walk, --generator) fold in run_request_from_params.
  Cli(int argc, char** argv);

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::vector<std::string> positionals_;
};

/// Prints one help line per parameter of `schema`: "--name default", its
/// doc, and its alias.
void print_params(const ParamSchema& schema, const char* indent);

/// Resolves the --threads / --pin flags every binary shares: --threads
/// (`default_threads` when absent; unsigned) goes through
/// resolve_thread_count, so 0 means all hardware threads and
/// above-hardware requests clamp with a warning on stderr; --pin turns on
/// worker pinning, throws std::invalid_argument where thread affinity is
/// unsupported, and only warns when best-effort pinning fails.
std::uint32_t resolve_cli_threads(const Cli& cli, std::uint32_t default_threads);

}  // namespace ewalk

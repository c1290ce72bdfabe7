// String-keyed registries: construct walk processes and graph families by
// name from parsed options.
//
// The CLI, the experiment harness, and future sweep drivers all dispatch
// through these instead of hand-written if-chains; --help output is
// generated from the registered entries, so adding a process or generator
// in one place makes it available (and documented) everywhere.
//
// Each entry declares the parameters its factory reads (a ParamSchema);
// create() validates a bag against it and fills in the defaults. Built-in
// entries are registered on first access; extensions add their own via
// add(). Lookup errors list the known names and suggest the nearest.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/params.hpp"
#include "engine/process.hpp"
#include "engine/token_process.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

/// Builds a choice rule by name: uniform | first | last | roundrobin |
/// adversary | greedy | priority. Throws std::invalid_argument on unknown
/// names. (The priority rule draws its permutation from `rng`.)
std::unique_ptr<UnvisitedEdgeRule> make_rule(const std::string& name,
                                             const Graph& g, Rng& rng);

/// Names accepted by make_rule, for help output.
const std::vector<std::string>& rule_names();

namespace detail {

/// Shared registry machinery: named entries, lookup that throws listing the
/// known names (plus nearest-match suggestions), registration-order
/// enumeration. The two concrete registries differ only in entry type and
/// error label.
template <typename EntryT>
class NamedRegistry {
 public:
  /// Registers `entry`; throws std::invalid_argument on a duplicate name.
  void add(EntryT entry) {
    if (contains(entry.name))
      throw std::invalid_argument(std::string(kind_) +
                                  " already registered: " + entry.name);
    entries_.push_back(std::move(entry));
  }

  bool contains(const std::string& name) const {
    for (const EntryT& e : entries_)
      if (e.name == name) return true;
    return false;
  }

  /// The entry registered under `name`; throws std::invalid_argument with
  /// nearest-match suggestions when absent. Lets callers validate a name
  /// (and get the self-diagnosing error) without constructing anything.
  const EntryT& at(const std::string& name) const {
    for (const EntryT& e : entries_)
      if (e.name == name) return e;
    std::string message = unknown_name_message(kind_, name, names()) + " (known:";
    for (const EntryT& e : entries_) message += ' ' + e.name;
    throw std::invalid_argument(message + ')');
  }

  /// Registered names in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const EntryT& e : entries_) out.push_back(e.name);
    return out;
  }

  const std::vector<EntryT>& entries() const { return entries_; }

 protected:
  explicit NamedRegistry(const char* kind) : kind_(kind) {}

 private:
  const char* kind_;
  std::vector<EntryT> entries_;
};

}  // namespace detail

/// Constructs a process on `g`. `params` carries process-specific options
/// (start, rule, d, walkers, ...) with every schema default filled in;
/// `rng` is available for construction-time randomness (e.g. the priority
/// rule's permutation) and is the same stream the walk will subsequently be
/// driven with. (Distinct from the experiment harness's ProcessFactory,
/// which has already bound its parameters.)
using RegistryProcessFactory = std::function<std::unique_ptr<WalkProcess>(
    const Graph& g, const ParamMap& params, Rng& rng)>;

/// One registered walk process: its name, help line, declared parameters,
/// kind, and factory.
struct ProcessEntry {
  std::string name;                ///< registry key ("eprocess")
  std::string summary;             ///< one-line description
  ParamSchema params;              ///< every parameter the factory reads
  RegistryProcessFactory factory;  ///< builds the process
  ProcessKind kind = ProcessKind::kWalk;  ///< one walk or interacting tokens
};

/// Walk processes by name ("eprocess", "srw", ...): the CLI's --process /
/// --walk dispatch and the construction path every bench and experiment
/// uses.
class ProcessRegistry : public detail::NamedRegistry<ProcessEntry> {
 public:
  /// The global registry, populated with the built-in processes.
  static ProcessRegistry& instance();

  /// Constructs process `name` on `g` from `params` (validated against the
  /// entry's schema, defaults filled in; keys it does not declare are
  /// ignored). Throws std::invalid_argument for an unknown `name` (listing
  /// known names) or a malformed declared value.
  std::unique_ptr<WalkProcess> create(const std::string& name, const Graph& g,
                                      const ParamMap& params, Rng& rng) const {
    const ProcessEntry& e = at(name);
    return e.factory(g, params.with_defaults(e.params), rng);
  }

 private:
  ProcessRegistry() : NamedRegistry("--process") {}
};

/// Builds a graph family from parsed options (schema defaults filled in);
/// `rng` drives randomised constructions (random regular, G(n,p),
/// geometric, ...).
using GraphGeneratorFactory =
    std::function<Graph(const ParamMap& params, Rng& rng)>;

/// One registered graph family: its name, help line, declared parameters,
/// and factory.
struct GeneratorEntry {
  std::string name;     ///< registry key ("regular")
  std::string summary;  ///< one-line description
  ParamSchema params;   ///< every parameter the factory reads
  GraphGeneratorFactory factory;  ///< builds the graph
};

/// Graph families by name ("regular", "cycle", "lps", ...): the CLI's
/// --graph dispatch.
class GeneratorRegistry : public detail::NamedRegistry<GeneratorEntry> {
 public:
  /// The global registry, populated with the built-in graph families.
  static GeneratorRegistry& instance();

  /// Constructs graph family `name` from `params`, as
  /// ProcessRegistry::create does for processes.
  Graph create(const std::string& name, const ParamMap& params, Rng& rng) const {
    const GeneratorEntry& e = at(name);
    return e.factory(params.with_defaults(e.params), rng);
  }

  /// Every parameter family `name` reads from `params`: its own schema plus,
  /// for each kFamily parameter (pcf's --base), the named family's schema.
  /// Throws std::invalid_argument for unknown names.
  ParamSchema schema(const std::string& name, const ParamMap& params) const;

 private:
  GeneratorRegistry() : NamedRegistry("--graph") {}
};

}  // namespace ewalk

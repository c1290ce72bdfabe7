// String key-value options and the schemas that declare them.
//
// Registries and runs read their parameters from a ParamMap, whichever
// surface built it (CLI flags, daemon request fields, code). Each parameter
// is declared once, as a ParamSpec of {name, type, default, range, doc};
// help text, the graph cache key and validation derive from it, and the
// typed getters and validation share one parser (parse_u64, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ewalk {

/// How a parameter's text is read.
enum class ParamType : std::uint8_t {
  kU32,     ///< unsigned integer below 2^32
  kU64,     ///< unsigned integer below 2^64
  kDouble,  ///< finite real
  kBool,    ///< true/false/1/0/yes/no
  kString,  ///< free text
  kFamily   ///< a graph family name whose own parameters also apply (pcf --base)
};

/// A static lower bound on a numeric parameter. Bounds that depend on the
/// graph (a start vertex below n) stay in the factories.
struct ParamRange {
  double min = -std::numeric_limits<double>::infinity();  ///< lowest accepted value
  bool exclusive = false;  ///< reject `min` itself (alpha > 0)
};

/// One declared parameter.
struct ParamSpec {
  std::string name;      ///< key, spelled as the CLI flag without "--"
  ParamType type = ParamType::kString;  ///< how the value parses
  std::string fallback;  ///< default text; "" when the factory derives it
  ParamRange range;      ///< static lower bound (numeric types)
  std::string doc;       ///< one-line description for help output
  std::string alias = {};  ///< accepted synonym ("walk" for "process"), or ""
};

/// The parameters one registry entry (or the run itself) reads.
using ParamSchema = std::vector<ParamSpec>;

/// `text` as an unsigned integer. Exponent and decimal forms are accepted
/// only when exact ("1e9", "1.5e3"); a sign, a fraction ("2.5") or trailing
/// text throws std::invalid_argument naming `key` and `text`.
std::uint64_t parse_u64(const std::string& key, const std::string& text);
/// `text` as a signed integer, with parse_u64's rules after an optional '-'.
std::int64_t parse_int(const std::string& key, const std::string& text);
/// `text` as a finite real; trailing text throws std::invalid_argument.
double parse_double(const std::string& key, const std::string& text);
/// true/1/yes or false/0/no; anything else throws std::invalid_argument.
bool parse_bool(const std::string& key, const std::string& text);

/// A comma-separated list of unsigned integers ("3,4,8" -> {3, 4, 8}),
/// each token read by parse_u64; an empty token throws.
std::vector<std::uint64_t> parse_u64_list(const std::string& key,
                                          const std::string& text);

/// Shortest text that parses back to exactly `value` (std::to_chars).
std::string format_real(double value);

/// `text` parsed as `spec` declares, range-checked, and rewritten in
/// canonical form: decimal integers, shortest round-trip reals, true/false.
/// Throws std::invalid_argument naming the key and value.
std::string canonical_param(const ParamSpec& spec, const std::string& text);

/// The spec of `schema` declaring `key` by name or alias, or nullptr.
const ParamSpec* find_param(const ParamSchema& schema, const std::string& key);

/// "unknown `kind`: `name`", plus " (did you mean: a b?)" naming up to
/// three of `known` within a few edits of `name` — the message every lookup
/// error (registries, make_rule, parameter checks) starts with.
std::string unknown_name_message(const std::string& kind, const std::string& name,
                                 const std::vector<std::string>& known);

/// String key-value parameter bag for registry factories. Typed getters
/// parse with parse_u64 / parse_int / parse_double / parse_bool.
class ParamMap {
 public:
  /// Empty map: every getter returns its fallback.
  ParamMap() = default;
  /// Literal construction: ParamMap{{"rule", "uniform"}, {"start", "0"}}.
  ParamMap(std::initializer_list<std::pair<const std::string, std::string>> kv)
      : values_(kv) {}

  /// True iff `key` is present.
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  /// Sets (or overwrites) `key` to `value`.
  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  /// Removes `key` if present (alias folding rewrites keys in place).
  void erase(const std::string& key) { values_.erase(key); }

  /// The raw string at `key`; throws std::invalid_argument when absent.
  /// Factories read their keys this way (and through the getters below):
  /// the registry has already filled in every default (with_defaults).
  const std::string& get(const std::string& key) const;
  /// The required `key` parsed as an unsigned integer.
  std::uint64_t get_u64(const std::string& key) const { return parse_u64(key, get(key)); }
  /// The required `key` parsed as a double.
  double get_double(const std::string& key) const { return parse_double(key, get(key)); }
  /// The required `key` parsed as a bool.
  bool get_bool(const std::string& key) const { return parse_bool(key, get(key)); }

  /// The raw string at `key`, or `fallback` when absent.
  std::string get(const std::string& key, const std::string& fallback) const {
    return has(key) ? get(key) : fallback;
  }
  /// `key` parsed as a signed integer, or `fallback` when absent.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return has(key) ? parse_int(key, get(key)) : fallback;
  }
  /// `key` parsed as an unsigned integer, or `fallback` when absent.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    return has(key) ? get_u64(key) : fallback;
  }
  /// `key` parsed as a double, or `fallback` when absent.
  double get_double(const std::string& key, double fallback) const {
    return has(key) ? get_double(key) : fallback;
  }
  /// `key` parsed as a bool, or `fallback` when absent.
  bool get_bool(const std::string& key, bool fallback) const {
    return has(key) ? get_bool(key) : fallback;
  }

  /// This bag with every key `schema` declares validated (canonical_param)
  /// and every absent one set to its non-empty default. Undeclared keys
  /// pass through untouched: a bag may carry other entries' parameters.
  ParamMap with_defaults(const ParamSchema& schema) const;

  /// Throws std::invalid_argument unless every key of this bag is declared
  /// by one of `schemas` with a value that parses and lies in range. Every
  /// undeclared key is named in the one message, each with its nearest
  /// declared names.
  void check(std::initializer_list<const ParamSchema*> schemas) const;

  /// The underlying key-value map (for iteration / conversion).
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ewalk

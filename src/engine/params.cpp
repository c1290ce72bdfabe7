#include "engine/params.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>

namespace ewalk {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& text,
                            const char* want) {
  throw std::invalid_argument("bad value for --" + key + ": '" + text +
                              "' (want " + want + ")");
}

// The exact value of an unsigned decimal token — digits with an optional
// fraction and exponent — or false when it is not a whole number below 2^64.
bool exact_u64(std::string_view s, std::uint64_t& out) {
  const std::size_t e = std::min(s.find_first_of("eE"), s.size());
  long exponent = 0;
  if (e < s.size()) {
    std::string_view exp = s.substr(e + 1);
    if (exp.starts_with('+') && !exp.starts_with("+-")) exp.remove_prefix(1);
    const auto [end, ec] = std::from_chars(exp.data(), exp.data() + exp.size(), exponent);
    if (ec != std::errc() || end != exp.data() + exp.size()) return false;
    exponent = std::clamp(exponent, -100000L, 100000L);
  }
  std::string digits(s.substr(0, e));
  if (const std::size_t dot = digits.find('.'); dot != std::string::npos) {
    exponent -= static_cast<long>(digits.size() - dot - 1);
    digits.erase(dot, 1);
  }
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  // value = digits * 10^exponent: cut the (necessarily zero) digits a
  // negative exponent drops, or append a positive one's zeros.
  digits.erase(0, digits.find_first_not_of('0'));
  const long size = static_cast<long>(digits.size());
  if (exponent < 0) {
    const std::size_t keep = static_cast<std::size_t>(std::max(size + exponent, 0L));
    if (digits.find_first_not_of('0', keep) != std::string::npos) return false;
    digits.resize(keep);
  } else if (size > 0) {
    if (exponent > 20 - size) return false;
    digits.append(static_cast<std::size_t>(exponent), '0');
  }
  out = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), out);
  return digits.empty() || ec == std::errc();
}

// Levenshtein edit distance: the metric behind the "did you mean" hints.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Single-row dynamic program; the strings here are short option names.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

}  // namespace

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t value = 0;
  if (!exact_u64(text, value)) bad_value(key, text, "an unsigned integer");
  return value;
}

std::vector<std::uint64_t> parse_u64_list(const std::string& key,
                                          const std::string& text) {
  std::vector<std::uint64_t> values;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = text.find(',', pos);
    values.push_back(parse_u64(key, text.substr(pos, comma - pos)));
    if (comma == std::string::npos) return values;
    pos = comma + 1;
  }
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  const bool negative = text.starts_with('-');
  std::uint64_t magnitude = 0;
  if (!exact_u64(std::string_view(text).substr(negative ? 1 : 0), magnitude) ||
      magnitude > (std::uint64_t{1} << 63) - (negative ? 0 : 1))
    bad_value(key, text, "an integer");
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

double parse_double(const std::string& key, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end || !std::isfinite(value))
    bad_value(key, text, "a number");
  return value;
}

bool parse_bool(const std::string& key, const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  bad_value(key, text, "true/false/1/0/yes/no");
}

std::string format_real(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end);
}

std::string canonical_param(const ParamSpec& spec, const std::string& text) {
  double value = 0.0;
  std::string canonical;
  switch (spec.type) {
    case ParamType::kU32:
    case ParamType::kU64: {
      const std::uint64_t n = parse_u64(spec.name, text);
      if (spec.type == ParamType::kU32 && n > std::numeric_limits<std::uint32_t>::max())
        bad_value(spec.name, text, "an unsigned integer below 2^32");
      value = static_cast<double>(n);
      canonical = std::to_string(n);
      break;
    }
    case ParamType::kDouble:
      value = parse_double(spec.name, text);
      canonical = format_real(value);
      break;
    case ParamType::kBool:
      return parse_bool(spec.name, text) ? "true" : "false";
    case ParamType::kString:
    case ParamType::kFamily:
      return text;
  }
  const ParamRange& r = spec.range;
  if (value < r.min || (r.exclusive && value == r.min))
    throw std::invalid_argument("--" + spec.name + " must be " +
                                (r.exclusive ? "> " : ">= ") + format_real(r.min) +
                                " (got " + text + ")");
  return canonical;
}

const ParamSpec* find_param(const ParamSchema& schema, const std::string& key) {
  for (const ParamSpec& spec : schema)
    if (spec.name == key || (!spec.alias.empty() && spec.alias == key))
      return &spec;
  return nullptr;
}

std::string unknown_name_message(const std::string& kind, const std::string& name,
                                 const std::vector<std::string>& known) {
  // A suggestion further than ~a third of the query (min 2 edits) is noise:
  // "eproces" should suggest eprocess, "zzzzz" should suggest nothing.
  const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
  std::vector<std::pair<std::size_t, std::string>> near;
  for (const std::string& candidate : known)
    if (const std::size_t d = edit_distance(name, candidate); d <= budget)
      near.emplace_back(d, candidate);
  std::stable_sort(near.begin(), near.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::string message = "unknown " + kind + ": " + name;
  for (std::size_t i = 0; i < near.size() && i < 3; ++i)
    message += (i == 0 ? " (did you mean: " : " ") + near[i].second;
  return near.empty() ? message : message + "?)";
}

const std::string& ParamMap::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

ParamMap ParamMap::with_defaults(const ParamSchema& schema) const {
  ParamMap out = *this;
  for (const ParamSpec& spec : schema) {
    if (const auto it = values_.find(spec.name); it != values_.end())
      canonical_param(spec, it->second);
    else if (!spec.fallback.empty())
      out.set(spec.name, spec.fallback);
  }
  return out;
}

void ParamMap::check(std::initializer_list<const ParamSchema*> schemas) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    bool declared = false;
    for (const ParamSchema* schema : schemas)
      if (const ParamSpec* spec = find_param(*schema, key)) {
        canonical_param(*spec, value);
        declared = true;
      }
    if (!declared) unknown.push_back(key);
  }
  if (unknown.empty()) return;
  std::vector<std::string> names;  // suggestion candidates
  for (const ParamSchema* schema : schemas)
    for (const ParamSpec& spec : *schema)
      for (const std::string& name : {spec.name, spec.alias})
        if (!name.empty()) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string message;
  for (const std::string& key : unknown)
    message += (message.empty() ? "" : "; ") +
               unknown_name_message("parameter", key, names);
  throw std::invalid_argument(message);
}

}  // namespace ewalk

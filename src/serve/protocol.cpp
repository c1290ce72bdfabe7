#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>


namespace ewalk {

namespace {

// ---- JSON parsing ----------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("bad JSON at byte " + std::to_string(pos_) +
                                ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("bad \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const std::uint32_t lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("bad surrogate pair");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("bad number");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number fraction");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number exponent");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.raw = text_.substr(start, pos_ - start);
    return value;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': {
        value.type = JsonValue::Type::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') { ++pos_; return value; }
        for (;;) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          value.object.emplace_back(std::move(key), parse_value());
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect('}');
          return value;
        }
      }
      case '[': {
        value.type = JsonValue::Type::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') { ++pos_; return value; }
        for (;;) {
          value.array.push_back(parse_value());
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect(']');
          return value;
        }
      }
      case '"':
        value.type = JsonValue::Type::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        value.type = JsonValue::Type::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- Serialization helpers -------------------------------------------------

void append_samples(std::ostringstream& out, const char* key,
                    const std::vector<double>& samples) {
  out << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) out << ',';
    out << format_json_double(samples[i]);
  }
  out << ']';
}

void append_stats(std::ostringstream& out, const char* key,
                  const SummaryStats& stats) {
  out << ",\"" << key << "\":{\"mean\":" << format_json_double(stats.mean)
      << ",\"stddev\":" << format_json_double(stats.stddev)
      << ",\"std_error\":" << format_json_double(stats.std_error)
      << ",\"min\":" << format_json_double(stats.min)
      << ",\"max\":" << format_json_double(stats.max)
      << ",\"median\":" << format_json_double(stats.median) << '}';
}

}  // namespace

std::string JsonValue::as_param_string() const {
  switch (type) {
    case Type::kString: return string;
    case Type::kNumber: return raw;
    case Type::kBool: return boolean ? "true" : "false";
    case Type::kNull:
    case Type::kObject:
    case Type::kArray:
      break;
  }
  throw std::invalid_argument("field value must be a string, number, or bool");
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

ServerRequest parse_request(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (root.type != JsonValue::Type::kObject)
    throw std::invalid_argument("request must be a JSON object");

  ServerRequest request;
  ParamMap fields;
  for (const auto& [key, value] : root.object) {
    if (key == "op") {
      request.op = value.as_param_string();
      continue;
    }
    if (key == "params") {
      if (value.type != JsonValue::Type::kObject)
        throw std::invalid_argument("\"params\" must be a JSON object");
      for (const auto& [pkey, pvalue] : value.object)
        fields.set(pkey, pvalue.as_param_string());
      continue;
    }
    // Top-level fields are run fields; graph and process parameters ride
    // in "params".
    const ParamMap field{{key, value.as_param_string()}};
    field.check({&run_schema()});
    fields.set(key, field.get(key));
  }

  const std::vector<std::string> ops = {"run", "ping", "stats", "drain", "shutdown"};
  if (std::find(ops.begin(), ops.end(), request.op) == ops.end())
    throw std::invalid_argument(unknown_name_message("op", request.op, ops));

  request.id = fields.get("id", "");
  if (request.op == "run") request.run = run_request_from_params(fields);
  return request;
}

std::string serialize_request(const ServerRequest& request) {
  std::ostringstream out;
  out << "{\"op\":" << json_quote(request.op);
  if (!request.id.empty()) out << ",\"id\":" << json_quote(request.id);
  if (request.op != "run") {
    out << '}';
    return out.str();
  }
  const RunRequest& run = request.run;
  out << ",\"graph\":" << json_quote(run.graph)
      << ",\"process\":" << json_quote(run.process)
      << ",\"trials\":" << run.trials << ",\"threads\":" << run.threads
      << ",\"seed\":" << run.seed << ",\"max-steps\":" << run.max_steps
      << ",\"target\":" << json_quote(run_target_name(run.target))
      << ",\"target-tokens\":" << run.target_tokens
      << ",\"bundle\":" << run.bundle_width
      << ",\"analysis\":" << (run.analysis ? "true" : "false");
  // run.params holds only generator/process parameters.
  std::ostringstream params;
  bool first = true;
  for (const auto& [key, value] : run.params.values()) {
    params << (first ? "" : ",") << json_quote(key) << ':' << json_quote(value);
    first = false;
  }
  if (!first) out << ",\"params\":{" << params.str() << '}';
  out << '}';
  return out.str();
}

std::string format_json_double(double d) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", d);
  return buffer;
}

std::string json_quote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string serialize_queued(const std::string& id, std::uint64_t ticket) {
  std::ostringstream out;
  out << "{\"id\":" << json_quote(id) << ",\"status\":\"queued\",\"ticket\":"
      << ticket << '}';
  return out.str();
}

std::string serialize_run_result(const RunResult& result) {
  if (!result.ok) return serialize_error(result.id, result.error);
  std::ostringstream out;
  out << "{\"id\":" << json_quote(result.id) << ",\"status\":\"ok\""
      << ",\"target\":" << json_quote(run_target_name(result.target));
  if (result.graph) {
    out << ",\"graph\":{\"vertices\":" << result.graph->graph().num_vertices()
        << ",\"edges\":" << result.graph->graph().num_edges()
        << ",\"connected\":" << (result.graph->connected() ? "true" : "false")
        << ",\"cache_hit\":" << (result.graph_cache_hit ? "true" : "false")
        << '}';
  }
  out << ",\"trials\":" << result.samples.size()
      << ",\"budget\":" << result.budget
      << ",\"unfinished\":" << result.unfinished
      << ",\"total_steps\":" << format_json_double(result.total_steps);
  append_samples(out, "samples", result.samples);
  append_stats(out, "stats", result.stats);
  if (result.target == RunTarget::kCoalescence) {
    append_samples(out, "meeting_samples", result.meeting_samples);
    append_stats(out, "meeting_stats", result.meeting_stats);
  }
  if (result.analysis) {
    const GraphAnalysis& a = *result.analysis;
    out << ",\"analysis\":{\"lambda2\":" << format_json_double(a.lambda2)
        << ",\"lambda_n\":" << format_json_double(a.lambda_n)
        << ",\"gap\":" << format_json_double(a.gap)
        << ",\"conductance_lower\":" << format_json_double(a.conductance_lower)
        << ",\"conductance_upper\":" << format_json_double(a.conductance_upper)
        << ",\"girth\":" << a.girth
        << ",\"cache_hit\":" << (result.analysis_cache_hit ? "true" : "false")
        << '}';
  }
  out << ",\"wall_seconds\":" << format_json_double(result.wall_seconds) << '}';
  return out.str();
}

std::string serialize_error(const std::string& id, const std::string& message) {
  std::ostringstream out;
  out << "{\"id\":" << json_quote(id) << ",\"status\":\"error\",\"error\":"
      << json_quote(message) << '}';
  return out.str();
}

std::string serialize_stats(const std::string& id, const GraphStoreStats& stats,
                            std::uint64_t inflight, std::uint64_t completed) {
  std::ostringstream out;
  out << "{\"id\":" << json_quote(id) << ",\"status\":\"stats\""
      << ",\"cache\":{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"evictions\":" << stats.evictions
      << ",\"coalesced\":" << stats.coalesced
      << ",\"analysis_hits\":" << stats.analysis_hits
      << ",\"analysis_misses\":" << stats.analysis_misses
      << ",\"entries\":" << stats.entries << ",\"bytes\":" << stats.bytes
      << '}' << ",\"inflight\":" << inflight << ",\"completed\":" << completed
      << '}';
  return out.str();
}

std::string serialize_status(const std::string& id, const std::string& status) {
  std::ostringstream out;
  out << "{\"id\":" << json_quote(id) << ",\"status\":" << json_quote(status)
      << '}';
  return out.str();
}

}  // namespace ewalk

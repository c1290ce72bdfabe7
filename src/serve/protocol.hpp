// The ewalkd wire protocol: line-delimited JSON requests and responses.
//
// One request per line, one JSON object per request; responses are likewise
// single-line JSON objects tagged with the request's `id`. The codec is
// hand-rolled (the toolchain ships no JSON library and the repo takes no
// dependencies): a small recursive-descent parser for the request side and
// deterministic serializers for the response side.
//
// Request shape (all fields optional except a run's registry names resolve):
//
//   {"op":"run","id":"r1","graph":"regular","process":"eprocess",
//    "trials":5,"seed":42,"params":{"n":"256","r":"3"}}
//
// `op` defaults to "run". Scalar run fields are run_schema()'s, the same
// declarations as the `ewalk` CLI flags; generator/process parameters ride
// in the nested "params" object. Undeclared fields and parameters are
// rejected with nearest-match suggestions — a typo'd "trails" must not
// silently run 5 trials. Numbers keep their literal spelling end-to-end (a
// 64-bit seed never transits a double).
//
// Determinism: serializers emit fields in a fixed order and format doubles
// with %.17g (shortest round-trip not needed; 17 significant digits is
// bit-faithful; util/json.hpp), so byte-identical results serialize to
// byte-identical lines. The bytes are pinned by serve_test's
// Protocol.ResponseLinesArePinnedByteForByte; the CI golden diff compares
// re-serialized lines, so it pins fields and values only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/graph_store.hpp"
#include "serve/request.hpp"
#include "util/json.hpp"

namespace ewalk {

/// A parsed JSON value. Numbers keep their source spelling (`raw`) so
/// integer fidelity survives (seeds are 64-bit; a double round-trip would
/// corrupt them); object member order is preserved for faithful round-trips.
struct JsonValue {
  /// The JSON value kinds.
  enum class Type : std::uint8_t {
    kNull,    ///< the literal null
    kBool,    ///< true / false
    kNumber,  ///< any number; the literal text is kept in `raw`
    kString,  ///< a decoded string
    kObject,  ///< member list in source order
    kArray    ///< element list
  };
  Type type = Type::kNull;           ///< which kind this value is
  bool boolean = false;                  ///< valid for kBool
  std::string raw;                       ///< literal token for kNumber
  std::string string;                    ///< decoded text for kString
  std::vector<std::pair<std::string, JsonValue>> object;  ///< kObject members
  std::vector<JsonValue> array;          ///< kArray elements

  /// The value as the string a ParamMap would hold: the decoded string, the
  /// number literal, or "true"/"false". Throws for null/object/array.
  std::string as_param_string() const;
};

/// Parses one complete JSON value from `text` (trailing whitespace allowed,
/// trailing garbage rejected). Throws std::invalid_argument with a byte
/// offset on malformed input.
JsonValue parse_json(const std::string& text);

/// One decoded protocol request.
struct ServerRequest {
  /// "run" (default), "ping", "stats", "drain", or "shutdown".
  std::string op = "run";
  /// Echo tag for matching responses to requests ("" if absent).
  std::string id;
  /// The run configuration; meaningful only when op == "run".
  RunRequest run;
};

/// Parses one request line: JSON object -> ServerRequest. Scalar run fields
/// and the nested "params" object are folded into one ParamMap, then
/// validated by run_request_from_params. Unknown ops, unknown top-level
/// fields and undeclared parameters throw std::invalid_argument with
/// nearest-match suggestions.
ServerRequest parse_request(const std::string& line);

/// The immediate acknowledgement for an accepted run:
/// {"id":..,"status":"queued","ticket":N}.
std::string serialize_queued(const std::string& id, std::uint64_t ticket);

/// A completed run as one response line: status "ok" with the samples,
/// summary stats, graph block (size, connectivity, cache hit), and the
/// optional coalescence/analysis blocks — or status "error" with the
/// message when the run failed.
std::string serialize_run_result(const RunResult& result);

/// A request-level failure (parse error, admission rejection):
/// {"id":..,"status":"error","error":msg}.
std::string serialize_error(const std::string& id, const std::string& message);

/// A stats snapshot: cache counters plus the server's queue gauges.
std::string serialize_stats(const std::string& id, const GraphStoreStats& stats,
                            std::uint64_t inflight, std::uint64_t completed);

/// A bare {"id":..,"status":status} line (pong, drained, bye).
std::string serialize_status(const std::string& id, const std::string& status);

}  // namespace ewalk

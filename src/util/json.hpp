// JSON output spelling shared by every writer: the ewalkd response lines,
// the sweep report and the throughput bench. One string escaper and one
// double format keep their bytes identical across surfaces.
#pragma once

#include <string>

namespace ewalk {

/// `d` formatted with %.17g — enough digits that parsing the text recovers
/// the exact bits, so serialized samples are a faithful determinism witness.
std::string format_json_double(double d);

/// `text` as a quoted JSON string (control characters escaped).
std::string json_quote(const std::string& text);

}  // namespace ewalk

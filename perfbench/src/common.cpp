#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "trace.hpp"
#include "util/mem.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

// Sample digests recorded at the commit that introduced the benchmark.
// Every later commit must reproduce them: samples are a pure function of
// the seed (the repository's determinism contract).
struct Pin {
  const char* workload;
  std::uint64_t seed;
  const char* digest;
};

constexpr Pin kPins[] = {
#include "pinned_digests.inc"
    {nullptr, 0, nullptr}};

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// "307200K" / "8192K" / "1M" -> bytes.
std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': return value * 1024;
    case 'M': return value * 1024 * 1024;
    case 'G': return value * 1024 * 1024 * 1024;
    default: return value;
  }
}

struct CacheLevel {
  std::string level;
  std::string type;
  std::uint64_t bytes;
};

std::vector<CacheLevel> cache_levels() {
  std::vector<CacheLevel> out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    out.push_back({level, read_line(dir + "type"),
                   parse_size(read_line(dir + "size"))});
  }
  return out;
}

}  // namespace

void Outcome::operation(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  notes.emplace_back(key, buf);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(index, xs.size() - 1)];
}

std::string digest(const std::vector<double>& samples) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double s : samples) {
    std::uint64_t bits;
    std::memcpy(&bits, &s, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<double> repeat_within(double budget_s,
                                  const std::function<double()>& body) {
  std::vector<double> reps;
  double spent = 0.0;
  do {
    reps.push_back(body());
    spent += reps.back();
  } while (spent + reps.back() <= budget_s);
  return reps;
}

void report_batch(Outcome& out, const std::vector<double>& reps,
                  const std::vector<double>& setup_s, std::size_t trials) {
  double total = 0.0;
  for (const double r : reps) total += r;
  out.metric("wall_s", median(reps), "s");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("req_per_s", static_cast<double>(trials) / total, "1/s");
  // A batch call returns every trial's result when it returns, so within
  // one repetition every trial's latency is the call's wall time and the
  // p50 and p99 coincide; both are the median over repetitions.
  out.metric("latency_p50_ms", median(reps) * 1e3, "ms");
  out.metric("latency_p99_ms", median(reps) * 1e3, "ms");
  out.note("repetition_s", json_array(reps));
  out.note("setup_samples_s", json_array(setup_s));
  out.note("latency_samples", static_cast<double>(reps.size()));
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mib() {
  return static_cast<double>(ewalk::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::uint64_t llc_bytes() {
  const std::vector<CacheLevel> levels = cache_levels();
  std::uint64_t best = 0;
  std::string best_level;
  for (const CacheLevel& c : levels)
    if (c.type != "Instruction" && c.level >= best_level) {
      best_level = c.level;
      best = c.bytes;
    }
  return best;
}

std::vector<std::pair<std::string, std::string>> machine_context() {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  std::ostringstream caches;
  caches << '[';
  const std::vector<CacheLevel> levels = cache_levels();
  for (std::size_t i = 0; i < levels.size(); ++i)
    caches << (i ? "," : "") << "{\"level\":" << levels[i].level
           << ",\"type\":" << json_string(levels[i].type)
           << ",\"bytes\":" << levels[i].bytes << '}';
  caches << ']';
  out.emplace_back("caches", caches.str());
  out.emplace_back("llc_bytes", std::to_string(llc_bytes()));
#if defined(__clang__)
  out.emplace_back("compiler", json_string(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  out.emplace_back("compiler", json_string(std::string("g++ ") + __VERSION__));
#else
  out.emplace_back("compiler", json_string("unknown"));
#endif
  out.emplace_back("cxx_flags", json_string(PERFBENCH_CXX_FLAGS));
  out.emplace_back("build_type", json_string(PERFBENCH_BUILD_TYPE));
  return out;
}

void note_working_set(Outcome& out, const std::string& what,
                      std::uint64_t bytes) {
  const std::uint64_t llc = llc_bytes();
  std::ostringstream v;
  v << "{\"graph\":" << json_string(what) << ",\"bytes\":" << bytes
    << ",\"llc_bytes\":" << llc << ",\"larger_than_llc\":"
    << (llc != 0 && bytes > llc ? "true" : "false") << '}';
  out.note("working_set", v.str());
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

bool check_pinned(Outcome& out, const std::string& workload,
                  std::uint64_t seed, const std::string& got) {
  std::string want;
  for (const Pin& p : kPins)
    if (p.workload != nullptr && workload == p.workload && seed == p.seed)
      want = p.digest;
  out.note("sample_digest", json_string(got));
  out.note("sample_digest_pinned", json_string(want.empty() ? "unpinned" : want));
  return want.empty() || want == got;
}

}  // namespace perfbench

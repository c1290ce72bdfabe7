// perfbench — the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload fig1-sweep|large-cover|serve-replay --seed N
//             --seconds S --trace 0|1 [--smoke] [--out DIR]
//
// Prints a human-readable summary, writes a JSON report (and, for a traced
// run, a Chrome trace) under --out, and ends its standard output with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any output check failed, 2 on a usage or run error (no result line).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// The metric names and units of BENCHMARK.json. Every workload reports all
// of them, so a missing or extra name is a bug in this program.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"wall_s", "s"},           {"setup_s", "s"},         {"req_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"}, {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"graph.gen_s", "s"},
    {"graph.gen_edges_per_s", "1/s"},
    {"graph.connectivity_s", "s"},
    {"graph.csr_bytes", "bytes"},
    {"kernel.srw.w1.steps_per_s", "1/s"},
    {"kernel.srw.w4.steps_per_s", "1/s"},
    {"kernel.srw.w8.steps_per_s", "1/s"},
    {"kernel.srw.w16.steps_per_s", "1/s"},
    {"kernel.eprocess.w1.steps_per_s", "1/s"},
    {"kernel.eprocess.w4.steps_per_s", "1/s"},
    {"kernel.srw.cached.steps_per_s", "1/s"},
    {"kernel.eprocess.cached.steps_per_s", "1/s"},
    {"kernel.process_create_s", "s"},
    {"executor.spawn_wait_us", "us"},
    {"executor.busy_frac", "ratio"},
    {"harness.execute_run_ratio", "ratio"},
    {"harness.measure_cover_ratio", "ratio"},
    {"harness.run_sweep_ratio", "ratio"},
    {"harness.pretrial_s", "s"},
    {"sweep.gen_share", "ratio"},
    {"sweep.unit_max_over_wall", "ratio"},
    {"protocol.parse_us", "us"},
    {"protocol.serialize_us", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.evictions", "count"},
    {"store.acquire_hit_us", "us"},
    {"store.acquire_miss_ms", "ms"},
    {"server.ack_ms.p50", "ms"},
    {"server.ack_ms.p99", "ms"},
    {"server.overhead_ms.p50", "ms"},
    {"server.overhead_ms.p99", "ms"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig1-sweep|large-cover|serve-replay --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--out") opt.out_dir = value();
      else if (arg == "--smoke") opt.smoke = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

// Throws when the metrics are not exactly `expected` (names and units).
void check_schema(const Outcome& out,
                  const std::vector<std::pair<std::string, std::string>>& expected) {
  std::map<std::string, std::string> got;
  for (const Metric& m : out.metrics) {
    if (!got.emplace(m.name, m.unit).second)
      throw std::logic_error("metric reported twice: " + m.name);
    if (!std::isfinite(m.value))
      throw std::logic_error("metric is not finite: " + m.name);
  }
  for (const auto& [name, unit] : expected) {
    const auto it = got.find(name);
    if (it == got.end()) throw std::logic_error("metric missing: " + name);
    if (it->second != unit)
      throw std::logic_error("metric " + name + " has unit " + it->second);
    got.erase(it);
  }
  if (!got.empty())
    throw std::logic_error("unexpected metric: " + got.begin()->first);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Outcome& out) {
  std::ostringstream s;
  s << '{';
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    s << (i ? "," : "") << json_string(out.metrics[i].name)
      << ":{\"value\":" << number(out.metrics[i].value)
      << ",\"unit\":" << json_string(out.metrics[i].unit) << '}';
  return s.str() + '}';
}

void write_report(const Options& opt, const Outcome& out, const std::string& path,
                  const std::map<std::string, double>& self_s) {
  std::ofstream f(path);
  f << "{\"workload\":" << json_string(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << number(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"smoke\":" << (opt.smoke ? "true" : "false")
    << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
    << ",\"failed_frac\":" << number(static_cast<double>(out.failed) / out.attempted)
    << ",\"context\":{";
  const auto context = machine_context();
  for (std::size_t i = 0; i < context.size(); ++i)
    f << (i ? "," : "") << json_string(context[i].first) << ':' << context[i].second;
  f << "},\"notes\":{";
  for (std::size_t i = 0; i < out.notes.size(); ++i)
    f << (i ? "," : "") << json_string(out.notes[i].first) << ':' << out.notes[i].second;
  f << "},\"self_seconds_by_layer\":{";
  std::size_t i = 0;
  for (const auto& [layer, s] : self_s)
    f << (i++ ? "," : "") << json_string(layer) << ':' << number(s);
  f << "},\"failures\":[";
  for (std::size_t j = 0; j < out.failures.size(); ++j)
    f << (j ? "," : "") << json_string(out.failures[j]);
  f << "],\"metrics\":" << metrics_json(out) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome out;
  try {
    if (opt.workload == "fig1-sweep") out = run_fig1_sweep(opt);
    else if (opt.workload == "large-cover") out = run_large_cover(opt);
    else if (opt.workload == "serve-replay") out = run_serve_replay(opt);
    else usage("unknown workload " + opt.workload);
    if (!opt.trace) out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    check_schema(out, opt.trace ? kPerLayer : kEndToEnd);
    if (out.attempted == 0) throw std::logic_error("no operation was checked");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), ex.what());
    return 2;
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + (opt.trace ? "-trace" : "");
  std::map<std::string, double> self_s;
  if (opt.trace) {
    self_s = Tracer::instance().self_seconds_by_layer();
    if (!Tracer::instance().write_chrome_json(stem + ".chrome.json"))
      std::fprintf(stderr, "perfbench: cannot write %s.chrome.json\n", stem.c_str());
  }
  write_report(opt, out, stem + ".json", self_s);

  std::printf("workload %s  seed %llu  %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const auto& [key, value] : machine_context())
    std::printf("  context %-12s %s\n", key.c_str(), value.c_str());
  for (const auto& [key, value] : out.notes)
    std::printf("  note    %-20s %.200s\n", key.c_str(), value.c_str());
  for (const Metric& m : out.metrics)
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& [layer, s] : self_s)
    std::printf("  self time %-12s %10.4f s\n", layer.c_str(), s);
  std::printf("  failed_frac %.6g (%llu of %llu operations)\n",
              static_cast<double>(out.failed) / out.attempted,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : out.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("  report %s.json\n", stem.c_str());

  const bool correct = out.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(out).c_str());
  return correct ? 0 : 1;
}

// Shared pieces of the benchmark: run options, the per-run outcome (metrics
// plus output checks), small statistics helpers, and the machine context
// recorded with every result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;                  ///< fig1-sweep | large-cover | serve-replay
  std::uint64_t seed = 1;                ///< workload seed: same seed, same inputs
  double seconds = 10.0;                 ///< budget for the timed repetitions
  bool trace = false;                    ///< traced run: per-layer metrics
  bool smoke = false;                    ///< tiny sizes (schema checks only)
  std::string out_dir = "perfbench/out"; ///< reports and Chrome traces
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics, checked operations, and report
/// notes (key -> JSON value text) that are not metrics.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; `ok == false` counts it as failed.
  void operation(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& json_value) {
    notes.emplace_back(key, json_value);
  }
  void note(const std::string& key, double value);
};

double median(std::vector<double> xs);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> xs, double q);
/// FNV-1a over the bit patterns of `samples`, as 16 hex digits.
std::string digest(const std::vector<double>& samples);

/// Runs `body` (one timed repetition, returning its seconds) at least once,
/// then again while the time spent so far plus the last repetition still
/// fits in `budget_s`. Returns every repetition's seconds.
std::vector<double> repeat_within(double budget_s,
                                  const std::function<double()>& body);

/// The end-to-end metrics of a batch workload (one call returns all its
/// trials) from its repetition times, set-up samples and trial count.
void report_batch(Outcome& out, const std::vector<double>& reps,
                  const std::vector<double>& setup_s, std::size_t trials);

double seconds_since(std::int64_t start_ns);
double peak_rss_mib();

/// Size in bytes of the last-level cache (0 when unknown).
std::uint64_t llc_bytes();
/// Machine context as report notes: nproc, each cache level, compiler,
/// flags, build type.
std::vector<std::pair<std::string, std::string>> machine_context();
/// Adds the working set of a workload next to the LLC size.
void note_working_set(Outcome& out, const std::string& what,
                      std::uint64_t bytes);

std::string json_string(const std::string& text);
std::string json_array(const std::vector<double>& values);

/// Checks a run's sample digest against the pinned one when the seed is
/// pinned; records the outcome in the report. Returns false on mismatch.
bool check_pinned(Outcome& out, const std::string& workload,
                  std::uint64_t seed, const std::string& got);

}  // namespace perfbench

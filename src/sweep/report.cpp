#include "sweep/report.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace ewalk {

std::string write_sweep_json(const SweepResult& result,
                             const std::string& directory) {
  std::filesystem::create_directories(directory);
  const std::string path = directory + "/SWEEP_" + result.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("write_sweep_json: cannot open " + path);

  std::fprintf(f,
               "{\n  \"sweep\": %s,\n  \"version\": 3,\n"
               "  \"seed\": %llu,\n  \"trials\": %u,\n  \"max_trials\": %u,\n"
               "  \"ci_rel_target\": %s,\n  \"threads\": %u,\n  \"pin\": %s,\n"
               "  \"gen_seconds\": %s,\n  \"walk_seconds\": %s,\n"
               "  \"wall_seconds\": %s,\n  \"unit_count\": %u,\n"
               "  \"unit_seconds_min\": %s,\n  \"unit_seconds_max\": %s,\n"
               "  \"timeline_bucket_seconds\": %s,\n  \"thread_timeline\": [",
               json_quote(result.name).c_str(),
               static_cast<unsigned long long>(result.master_seed),
               result.trials, result.max_trials,
               format_json_double(result.ci_rel_target).c_str(), result.threads,
               result.pinned ? "true" : "false",
               format_json_double(result.gen_seconds).c_str(),
               format_json_double(result.walk_seconds).c_str(),
               format_json_double(result.wall_seconds).c_str(),
               result.unit_count,
               format_json_double(result.unit_seconds_min).c_str(),
               format_json_double(result.unit_seconds_max).c_str(),
               format_json_double(result.timeline_bucket_seconds).c_str());
  for (std::size_t i = 0; i < result.thread_timeline.size(); ++i) {
    const SweepThreadTimeline& timeline = result.thread_timeline[i];
    std::fprintf(f, "%s\n    {\"thread\": %u, \"busy_seconds\": [",
                 i > 0 ? "," : "", timeline.thread);
    for (std::size_t b = 0; b < timeline.busy_seconds.size(); ++b)
      std::fprintf(f, "%s%s", b > 0 ? ", " : "",
                   format_json_double(timeline.busy_seconds[b]).c_str());
    std::fprintf(f, "],\n     \"units\": [");
    for (std::size_t b = 0; b < timeline.units.size(); ++b)
      std::fprintf(f, "%s%llu", b > 0 ? ", " : "",
                   static_cast<unsigned long long>(timeline.units[b]));
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "%s],\n  \"points\": [\n",
               result.thread_timeline.empty() ? "" : "\n  ");

  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const SweepPointResult& point = result.points[p];
    std::fprintf(f, "    {\"label\": %s, \"params\": {",
                 json_quote(point.label).c_str());
    for (std::size_t i = 0; i < point.params.size(); ++i)
      std::fprintf(f, "%s%s: %s", i > 0 ? ", " : "",
                   json_quote(point.params[i].name).c_str(),
                   format_json_double(point.params[i].value).c_str());
    std::fprintf(f, "}, \"gen_seconds\": %s,\n     \"series\": [\n",
                 format_json_double(point.gen_seconds).c_str());
    for (std::size_t s = 0; s < point.series.size(); ++s) {
      const SweepSeriesResult& sr = point.series[s];
      std::fprintf(f,
                   "       {\"name\": %s, \"mean\": %s, \"ci95\": %s,"
                   " \"median\": %s, \"min\": %s, \"max\": %s,\n"
                   "        \"uncovered_trials\": %u, \"trials_used\": %u,"
                   " \"ci_rel_width\": %s, \"walk_seconds\": %s,"
                   " \"samples\": [",
                   json_quote(sr.name).c_str(),
                   format_json_double(sr.stats.mean).c_str(),
                   format_json_double(sr.stats.ci95_halfwidth()).c_str(),
                   format_json_double(sr.stats.median).c_str(),
                   format_json_double(sr.stats.min).c_str(),
                   format_json_double(sr.stats.max).c_str(),
                   sr.uncovered_trials, sr.trials_used,
                   format_json_double(sr.ci_rel_width).c_str(),
                   format_json_double(sr.walk_seconds).c_str());
      for (std::size_t t = 0; t < sr.samples.size(); ++t)
        std::fprintf(f, "%s%s", t > 0 ? ", " : "",
                     format_json_double(sr.samples[t]).c_str());
      std::fprintf(f, "]}%s\n", s + 1 < point.series.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", p + 1 < result.points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

std::string write_sweep_csv(const SweepResult& result,
                            const std::string& directory) {
  std::filesystem::create_directories(directory);
  const std::string path = directory + "/SWEEP_" + result.name + ".csv";
  std::vector<std::string> header{"label"};
  if (!result.points.empty())
    for (const SweepParam& param : result.points.front().params)
      header.push_back(param.name);
  for (const char* col :
       {"series", "mean", "ci95", "median", "min", "max", "uncovered_trials",
        "trials_used", "ci_rel_width", "walk_seconds", "gen_seconds"})
    header.push_back(col);

  CsvWriter csv(path, std::move(header));
  for (const SweepPointResult& point : result.points) {
    for (const SweepSeriesResult& sr : point.series) {
      std::vector<std::string> row{point.label};
      for (const SweepParam& param : point.params)
        row.push_back(std::to_string(param.value));
      row.push_back(sr.name);
      for (const double v : {sr.stats.mean, sr.stats.ci95_halfwidth(),
                             sr.stats.median, sr.stats.min, sr.stats.max,
                             static_cast<double>(sr.uncovered_trials),
                             static_cast<double>(sr.trials_used),
                             sr.ci_rel_width, sr.walk_seconds,
                             point.gen_seconds})
        row.push_back(std::to_string(v));
      csv.row(row);
    }
  }
  return path;
}

void print_sweep_timing_split(const SweepResult& result) {
  const double accounted = result.gen_seconds + result.walk_seconds;
  std::printf(
      "timing split: generation %.2fs (%.0f%%) vs walking %.2fs (%.0f%%) "
      "task-seconds; %.2fs wall\n",
      result.gen_seconds,
      accounted > 0 ? 100.0 * result.gen_seconds / accounted : 0.0,
      result.walk_seconds,
      accounted > 0 ? 100.0 * result.walk_seconds / accounted : 0.0,
      result.wall_seconds);
  // Straggler diagnostic: a slowest unit well below the wall clock means
  // trial-level parallelism kept the sweep from being bounded by its
  // biggest (point, trial) unit.
  std::printf(
      "unit spread: %u units, fastest %.3fs, slowest %.3fs (%.0f%% of wall)"
      "; %zu thread%s active%s\n",
      result.unit_count, result.unit_seconds_min, result.unit_seconds_max,
      result.wall_seconds > 0
          ? 100.0 * result.unit_seconds_max / result.wall_seconds
          : 0.0,
      result.thread_timeline.size(),
      result.thread_timeline.size() == 1 ? "" : "s",
      result.pinned ? " (pinned)" : "");
}

void print_sweep_table(const SweepResult& result) {
  std::printf("%-18s %-16s %14s %12s %12s %6s %6s\n", "point", "series",
              "mean", "+/-95%", "mean/n", "trials", "unfin");
  for (const SweepPointResult& point : result.points) {
    double n = 0.0;
    for (const SweepParam& param : point.params)
      if (param.name == "n") n = param.value;
    for (const SweepSeriesResult& sr : point.series) {
      if (n > 0)
        std::printf("%-18s %-16s %14.0f %12.0f %12.3f %6u %6u\n",
                    point.label.c_str(), sr.name.c_str(), sr.stats.mean,
                    sr.stats.ci95_halfwidth(), sr.stats.mean / n,
                    sr.trials_used, sr.uncovered_trials);
      else
        std::printf("%-18s %-16s %14.0f %12.0f %12s %6u %6u\n",
                    point.label.c_str(), sr.name.c_str(), sr.stats.mean,
                    sr.stats.ci95_halfwidth(), "-", sr.trials_used,
                    sr.uncovered_trials);
    }
  }
  print_sweep_timing_split(result);
}

}  // namespace ewalk

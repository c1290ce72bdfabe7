#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

thread_local std::vector<std::uint64_t> tl_open_spans;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(SpanRecord span) {
  if (span.thread == 0) span.thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - union_ns) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  for (const SpanRecord& s : all)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name.c_str(), layer.c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request, std::uint64_t parent)
    : active_(Tracer::instance().enabled()) {
  if (!active_) return;
  record_.name = name;
  record_.id = Tracer::instance().next_id();
  record_.parent =
      parent != 0 ? parent : (tl_open_spans.empty() ? 0 : tl_open_spans.back());
  record_.request = request;
  record_.thread = thread_number();
  tl_open_spans.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  tl_open_spans.pop_back();
  Tracer::instance().record(std::move(record_));
}

}  // namespace perfbench

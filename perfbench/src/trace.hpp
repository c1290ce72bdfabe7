// Span recorder for the traced run (--trace 1).
//
// The benchmark wraps every call it makes into a library layer in a Span:
// name ("<layer>.<operation>"), start, end, the span that caused it, and
// the id of the request it belongs to. Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Nothing here runs inside the library; when tracing is off a Span costs
// one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the time base of every span).
std::int64_t now_ns();

/// One finished span.
struct SpanRecord {
  std::string name;           ///< "<layer>.<operation>"
  std::uint64_t id = 0;       ///< unique, > 0
  std::uint64_t parent = 0;   ///< enclosing span, 0 for a root
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::int64_t start_ns = 0;  ///< steady-clock start
  std::int64_t end_ns = 0;    ///< steady-clock end
  std::uint32_t thread = 0;   ///< small per-thread number
};

/// Process-wide span store. Thread-safe; spans are appended when they end.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reserves a span or request id (ids are handed out even while
  /// disabled, so callers never branch on it).
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a finished span with explicit times (e.g. client-side request
  /// timings taken on the hot path and recorded afterwards).
  void record(SpanRecord span);

  /// All spans recorded so far, in completion order.
  std::vector<SpanRecord> spans() const;

  /// Self time per layer (the name up to the first '.'): each span's
  /// duration minus the union of its children's intervals, summed.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Writes the Chrome trace-event JSON; returns false when the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, records on destruction. The parent is
/// the innermost open Span of this thread, or `parent` when given (spans
/// opened on worker threads name their parent explicitly).
class Span {
 public:
  Span(const char* name, std::uint64_t request, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  bool active_;
  SpanRecord record_;
};

}  // namespace perfbench

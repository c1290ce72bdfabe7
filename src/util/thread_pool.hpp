// Work-stealing task scheduler with nested fork-join parallelism.
//
// The original pool exposed one primitive — parallel_for over a shared
// atomic counter — which could drain a flat index range but could not
// express nested parallelism: a sweep unit had no way to fan its own
// trials out, so one straggler unit (the biggest-n point of a Figure-1
// grid) serialised the tail of every sweep. The pool is now a real
// scheduler:
//
//   * per-worker deques with work stealing: the owning thread pushes and
//     pops newest-first (LIFO, cache-warm), thieves steal oldest-first
//     (FIFO, grabbing the oldest — and typically largest — pending work);
//   * TaskScope, a fork-join scope: any running task may spawn()
//     subtasks and wait() for them, and the waiting thread joins the
//     steal loop instead of blocking — restricted to tasks of the
//     awaited subtree, so helping recursion is bounded by the depth of
//     the scope tree, not the number of pending tasks;
//   * a per-root-scope admission cap, so `--threads T` still limits how
//     many threads work on one sweep even when the executor owns more
//     workers (threads already inside the scope tree are exempt, which
//     makes the cap deadlock-free under nesting);
//   * optional thread-affinity pinning (set_pinning, the CLI's --pin)
//     and a per-thread timing slot (timing_slot) that the sweep layer
//     records its throughput-over-time series against (SWEEP schema v3).
//
// Determinism contract: the scheduler never hands a task any randomness
// and never exposes which thread runs what; callers derive per-task rng
// streams purely from task indices (sweep_stream, derive_streams), so
// stealing can move wall-clock around but never moves a sample.
//
// The worker count defaults to hardware_concurrency - 1 (the caller
// participates via wait()); the EWALK_WORKERS environment variable
// overrides it, which is how the stress tests exercise real stealing on
// single-core CI runners.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace ewalk {

class TaskScope;

/// Process-wide work-stealing task scheduler. Tasks are submitted through
/// a TaskScope (spawn/wait); the Executor itself only owns the worker
/// threads, their deques, and the steal loop. Workers are started lazily
/// on first use and live for the rest of the process.
class Executor {
 public:
  /// The process-wide scheduler instance (workers start on first call).
  static Executor& instance();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of helper worker threads (excludes calling threads, which
  /// participate while inside TaskScope::wait). At least 1.
  std::uint32_t worker_count() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Maximum useful parallelism: helper workers plus the calling thread.
  std::uint32_t concurrency() const noexcept { return worker_count() + 1; }

  /// Hardware thread count as reported by the OS, never 0 (falls back to
  /// 1 when std::thread::hardware_concurrency cannot tell).
  static std::uint32_t hardware_threads() noexcept;

  /// Whether this platform supports thread-affinity pinning (Linux only).
  static bool pin_supported() noexcept;

  /// Pin each worker thread to a fixed CPU (worker w to CPU (w+1) mod
  /// hardware_threads, leaving CPU 0 to the caller), or restore the full
  /// affinity mask when `enabled` is false. Best-effort: returns true
  /// only if the mask was applied to every worker; on platforms without
  /// affinity support it is a no-op returning false.
  bool set_pinning(bool enabled);

  /// Whether worker pinning is currently in effect (last successful
  /// set_pinning(true) not yet undone). Reported in SWEEP output.
  static bool pinning_enabled() noexcept;

  /// Stable per-thread slot for timing aggregation: worker threads get
  /// their worker index (0..worker_count-1), every other thread maps to
  /// slot worker_count(). Pure bookkeeping — never use it to derive
  /// randomness (see the determinism contract above).
  static std::uint32_t timing_slot() noexcept;

  /// Stops and joins the workers; runs at process exit (static instance).
  ~Executor();

 private:
  friend class TaskScope;

  struct Task {
    std::function<void()> fn;
    TaskScope* scope;
  };
  struct WorkerQueue;
  struct Taken {
    Task task;
    bool entered_root;
  };

  Executor();
  void worker_loop(std::uint32_t index);
  void submit(Task task);
  std::optional<Taken> take_from(WorkerQueue& queue, bool newest_first,
                                 const TaskScope* within);
  std::optional<Taken> find_task(const TaskScope* within);
  void run_taken(Taken taken);
  void drain_scope(TaskScope& scope);
  void bump_epoch();
  std::uint64_t epoch_now();
  static bool scope_descends_from(const TaskScope* scope,
                                  const TaskScope* ancestor) noexcept;
  static bool this_thread_in_root(const TaskScope* root) noexcept;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  std::unique_ptr<WorkerQueue> injection_;  // spawns from non-worker threads
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;                  // guards epoch_ and stopping_
  std::condition_variable sleep_cv_;
  std::uint64_t epoch_ = 0;  // bumped whenever work or completions appear
  bool stopping_ = false;
};

/// Fork-join scope: spawn() submits subtasks, wait() blocks until all of
/// them (including transitively spawned ones via nested scopes) finished,
/// with the waiting thread executing tasks of the awaited subtree instead
/// of idling. Scopes nest: a task may construct its own TaskScope, whose
/// tasks count against the *root* scope's admission cap (`--threads`),
/// never against a separate budget — `max_parallelism` is ignored on
/// nested scopes. If a task throws, the first exception is rethrown from
/// wait() and unstarted tasks of the scope are skipped (they still count
/// as completed). The destructor drains remaining tasks without
/// rethrowing. Not copyable; a scope must outlive its spawned tasks
/// (guaranteed by calling wait() or letting the destructor run).
class TaskScope {
 public:
  /// Open a scope on `executor`. `max_parallelism` caps how many threads
  /// may run this scope tree at once (0 = executor concurrency); it only
  /// takes effect on root scopes (see class comment).
  explicit TaskScope(std::uint32_t max_parallelism = 0,
                     Executor& executor = Executor::instance());
  /// Drains remaining tasks (exceptions already reported via wait() are
  /// dropped; pending ones are swallowed).
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// Submit one task. May be called from any thread, including from
  /// tasks of this or other scopes. Thread-safe.
  void spawn(std::function<void()> fn);

  /// Block until every spawned task completed, helping to run tasks of
  /// this scope's subtree meanwhile. Rethrows the first task exception.
  /// The scope is reusable after a wait() that returns normally.
  void wait();

 private:
  friend class Executor;

  void record_error(std::exception_ptr error);
  bool try_enter() noexcept;  // root-only admission token
  void exit_token();

  Executor& executor_;
  TaskScope* const parent_;  // enclosing scope of the constructing task
  TaskScope* const root_;    // top of the scope tree (this, if parent_ null)
  const std::uint32_t cap_;  // admission cap; meaningful on roots only
  std::atomic<std::uint32_t> active_{0};  // root-only: threads holding tokens
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

/// One part of a pass that for_each_part split: part `index` of `count`.
struct Part {
  std::uint32_t index = 0;  ///< this part, 0 <= index < count
  std::uint32_t count = 1;  ///< parts in the pass

  /// First item of this part when `items` items split into `count`
  /// contiguous, near-equal ranges in part order.
  std::size_t begin(std::size_t items) const noexcept {
    return items * index / count;
  }
  /// One past the last item of this part (begin of the next part).
  std::size_t end(std::size_t items) const noexcept {
    return items * (index + 1) / count;
  }
};

/// Work units (edges, say) per part of a for_each_part pass: a pass of less
/// than two grains runs as one part, inline on the calling thread.
inline constexpr std::size_t kPartGrain = std::size_t{1} << 20;

/// Parts a pass of `work` units splits into: work / kPartGrain, at least 1
/// and at most the executor's concurrency.
std::uint32_t part_count(std::size_t work) noexcept;

/// Runs fn(part) for every part of a pass of `work` units (part_count(work)
/// parts) and returns the results in part order. One part runs inline with
/// no spawn; several run as tasks of a TaskScope opened here, so inside a
/// task they nest under its root scope and its `--threads` cap. The split
/// depends only on `work` and the executor's concurrency, never on timing,
/// so a caller that combines the results in part order is deterministic.
/// The first exception thrown by fn propagates.
template <class Fn>
auto for_each_part(std::size_t work, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, Part>;
  static_assert(!std::is_same_v<Result, bool>,
                "parts write their results concurrently: no vector<bool>");
  const std::uint32_t count = part_count(work);
  std::vector<Result> results(count);
  if (count == 1) {
    results[0] = fn(Part{0, 1});
    return results;
  }
  TaskScope scope;
  for (std::uint32_t p = 0; p < count; ++p)
    scope.spawn([&fn, &results, p, count] { results[p] = fn(Part{p, count}); });
  scope.wait();
  return results;
}

/// Map a user-facing `--threads` request onto this machine: 0 means all
/// hardware threads; values above hardware_threads() clamp down (set
/// *clamped so callers can warn — oversubscription only adds scheduling
/// noise); anything else passes through.
std::uint32_t resolve_thread_count(std::uint64_t requested,
                                   bool* clamped = nullptr);

}  // namespace ewalk

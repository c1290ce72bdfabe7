#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace ewalk {

namespace {

// Worker index of the current thread (-1 on non-worker threads) and the
// stack of scopes whose tasks this thread is currently executing. The
// stack is what makes the admission cap deadlock-free: a thread already
// inside root scope R runs further R tasks without acquiring a token, so
// a nested wait() can always make progress on its own subtree.
thread_local std::int32_t tl_worker_index = -1;
thread_local std::vector<TaskScope*> tl_scope_stack;

std::atomic<bool> g_pinning_enabled{false};

}  // namespace

struct Executor::WorkerQueue {
  std::mutex mutex;
  std::deque<Task> tasks;
};

Executor& Executor::instance() {
  static Executor executor;
  return executor;
}

std::uint32_t Executor::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
}

Executor::Executor() {
  // The caller participates in every wait(), so hw-1 helpers saturate the
  // machine; keep at least one so stealing exists even on one core.
  // EWALK_WORKERS overrides — stress tests use it to exercise real
  // stealing on single-core CI runners.
  std::uint32_t helpers = std::max(1u, hardware_threads() - 1);
  if (const char* env = std::getenv("EWALK_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024)
      helpers = static_cast<std::uint32_t>(v);
  }
  injection_ = std::make_unique<WorkerQueue>();
  queues_.reserve(helpers);
  for (std::uint32_t w = 0; w < helpers; ++w)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(helpers);
  for (std::uint32_t w = 0; w < helpers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_ = true;
    ++epoch_;
  }
  sleep_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool Executor::pin_supported() noexcept {
#ifdef __linux__
  return true;
#else
  return false;
#endif
}

bool Executor::set_pinning(bool enabled) {
#ifndef __linux__
  (void)enabled;
  return false;
#else
  const std::uint32_t hw = hardware_threads();
  bool all_applied = true;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (enabled) {
      CPU_SET((w + 1) % hw, &cpus);
    } else {
      for (std::uint32_t c = 0; c < hw && c < CPU_SETSIZE; ++c)
        CPU_SET(c, &cpus);
    }
    if (pthread_setaffinity_np(workers_[w].native_handle(), sizeof(cpus),
                               &cpus) != 0)
      all_applied = false;
  }
  g_pinning_enabled.store(enabled && all_applied, std::memory_order_relaxed);
  return all_applied;
#endif
}

bool Executor::pinning_enabled() noexcept {
  return g_pinning_enabled.load(std::memory_order_relaxed);
}

std::uint32_t Executor::timing_slot() noexcept {
  return tl_worker_index >= 0 ? static_cast<std::uint32_t>(tl_worker_index)
                              : instance().worker_count();
}

void Executor::bump_epoch() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++epoch_;
  }
  sleep_cv_.notify_all();
}

std::uint64_t Executor::epoch_now() {
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  return epoch_;
}

bool Executor::scope_descends_from(const TaskScope* scope,
                                   const TaskScope* ancestor) noexcept {
  for (const TaskScope* s = scope; s != nullptr; s = s->parent_)
    if (s == ancestor) return true;
  return false;
}

bool Executor::this_thread_in_root(const TaskScope* root) noexcept {
  for (const TaskScope* s : tl_scope_stack)
    if (s->root_ == root) return true;
  return false;
}

void Executor::submit(Task task) {
  const std::int32_t self = tl_worker_index;
  WorkerQueue& queue =
      self >= 0 ? *queues_[static_cast<std::size_t>(self)] : *injection_;
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  bump_epoch();
}

std::optional<Executor::Taken> Executor::take_from(WorkerQueue& queue,
                                                   bool newest_first,
                                                   const TaskScope* within) {
  std::lock_guard<std::mutex> lock(queue.mutex);
  // Scan the whole queue, not just one end: a waiter's subtree task can
  // sit behind an ineligible task at the front, and an admission-blocked
  // task must never block an eligible one of another root behind it. A
  // root that refused admission is skipped for the rest of the scan, so a
  // slot that opens mid-scan cannot admit its later task ahead of the
  // refused one: each root's tasks enter in queue order.
  std::vector<const TaskScope*> refused;
  const std::size_t size = queue.tasks.size();
  for (std::size_t k = 0; k < size; ++k) {
    const std::size_t i = newest_first ? size - 1 - k : k;
    Task& candidate = queue.tasks[i];
    if (within != nullptr && !scope_descends_from(candidate.scope, within))
      continue;
    TaskScope* root = candidate.scope->root_;
    bool entered = false;
    if (!this_thread_in_root(root)) {
      if (std::find(refused.begin(), refused.end(), root) != refused.end())
        continue;
      if (!root->try_enter()) {
        refused.push_back(root);
        continue;
      }
      entered = true;
    }
    Taken taken{std::move(candidate), entered};
    queue.tasks.erase(queue.tasks.begin() + static_cast<std::ptrdiff_t>(i));
    return taken;
  }
  return std::nullopt;
}

std::optional<Executor::Taken> Executor::find_task(const TaskScope* within) {
  const std::int32_t self = tl_worker_index;
  // Own deque newest-first (cache-warm LIFO), then the injection queue,
  // then steal oldest-first from the other workers.
  if (self >= 0)
    if (auto taken =
            take_from(*queues_[static_cast<std::size_t>(self)], true, within))
      return taken;
  if (auto taken = take_from(*injection_, false, within)) return taken;
  const std::uint32_t count = static_cast<std::uint32_t>(queues_.size());
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t victim =
        self >= 0 ? (static_cast<std::uint32_t>(self) + 1 + k) % count : k;
    if (static_cast<std::int32_t>(victim) == self) continue;
    if (auto taken = take_from(*queues_[victim], false, within)) return taken;
  }
  return std::nullopt;
}

void Executor::run_taken(Taken taken) {
  TaskScope* scope = taken.task.scope;
  TaskScope* root = scope->root_;
  tl_scope_stack.push_back(scope);
  if (!scope->failed_.load(std::memory_order_acquire)) {
    try {
      taken.task.fn();
    } catch (...) {
      scope->record_error(std::current_exception());
    }
  }
  tl_scope_stack.pop_back();
  taken.task.fn = nullptr;  // release captures before signalling completion
  if (taken.entered_root) root->exit_token();
  // The completion signal must be the very last touch of the scope: once
  // pending_ hits 0 the waiter may return and destroy it.
  if (scope->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    bump_epoch();
}

void Executor::worker_loop(std::uint32_t index) {
  tl_worker_index = static_cast<std::int32_t>(index);
  for (;;) {
    const std::uint64_t seen = epoch_now();
    if (auto taken = find_task(nullptr)) {
      run_taken(std::move(*taken));
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stopping_) return;
    if (epoch_ != seen) continue;  // work appeared between scan and lock
    sleep_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
    if (stopping_) return;
  }
}

void Executor::drain_scope(TaskScope& scope) {
  for (;;) {
    if (scope.pending_.load(std::memory_order_acquire) == 0) return;
    const std::uint64_t seen = epoch_now();
    if (scope.pending_.load(std::memory_order_acquire) == 0) return;
    if (auto taken = find_task(&scope)) {
      run_taken(std::move(*taken));
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (epoch_ != seen) continue;
    sleep_cv_.wait(lock, [&] { return epoch_ != seen; });
  }
}

TaskScope::TaskScope(std::uint32_t max_parallelism, Executor& executor)
    : executor_(executor),
      parent_(tl_scope_stack.empty() ? nullptr : tl_scope_stack.back()),
      root_(parent_ != nullptr ? parent_->root_ : this),
      cap_(parent_ != nullptr
               ? 0
               : std::max(1u, max_parallelism == 0 ? executor.concurrency()
                                                   : max_parallelism)) {}

TaskScope::~TaskScope() { executor_.drain_scope(*this); }

void TaskScope::spawn(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  executor_.submit(Executor::Task{std::move(fn), this});
}

void TaskScope::wait() {
  executor_.drain_scope(*this);
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }
}

void TaskScope::record_error(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = error;
  }
  failed_.store(true, std::memory_order_release);
}

bool TaskScope::try_enter() noexcept {
  std::uint32_t active = active_.load(std::memory_order_relaxed);
  while (active < cap_)
    if (active_.compare_exchange_weak(active, active + 1,
                                      std::memory_order_acq_rel))
      return true;
  return false;
}

void TaskScope::exit_token() {
  active_.fetch_sub(1, std::memory_order_acq_rel);
  executor_.bump_epoch();  // an admission slot opened: wake sleepers
}

std::uint32_t part_count(std::size_t work) noexcept {
  const std::size_t parts = work / kPartGrain;
  if (parts <= 1) return 1;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(parts, Executor::instance().concurrency()));
}

std::uint32_t resolve_thread_count(std::uint64_t requested, bool* clamped) {
  if (clamped != nullptr) *clamped = false;
  const std::uint32_t hw = Executor::hardware_threads();
  if (requested == 0) return hw;
  if (requested > hw) {
    if (clamped != nullptr) *clamped = true;
    return hw;
  }
  return static_cast<std::uint32_t>(requested);
}

}  // namespace ewalk

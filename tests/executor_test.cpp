// Tests for the work-stealing scheduler (util/thread_pool.hpp): TaskScope
// fork-join semantics, nested spawn under stealing (the ASan/TSan stress
// target of CI), the root-scope admission cap, exception propagation,
// timing slots, pinning, and the --threads resolution helper.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ewalk {
namespace {

// Give the executor four workers even on single-core CI runners, so these
// tests exercise real stealing, nested waits, and token contention. Runs
// before main(), i.e. before the first Executor::instance() call in this
// binary; an explicit EWALK_WORKERS in the environment wins.
const bool kWorkersEnvSet = [] {
  setenv("EWALK_WORKERS", "4", /*overwrite=*/0);
  return true;
}();

TEST(TaskScope, RunsEverySpawnedTask) {
  std::atomic<int> count{0};
  std::atomic<long> sum{0};
  TaskScope scope;
  for (int i = 0; i < 100; ++i)
    scope.spawn([&, i] {
      count.fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  scope.wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(TaskScope, IsReusableAfterWait) {
  std::atomic<int> count{0};
  TaskScope scope;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i)
      scope.spawn([&] { count.fetch_add(1, std::memory_order_relaxed); });
    scope.wait();
    EXPECT_EQ(count.load(), (round + 1) * 8);
  }
}

TEST(TaskScope, NestedSpawnStress) {
  // Three levels of fan-out (8 -> 64 -> 512 tasks): every task of the two
  // upper levels opens its own nested scope and waits on it, so waiting
  // threads must help-run subtree tasks to make progress. This is the
  // ASan/TSan stress target: any lifetime or synchronisation bug in the
  // steal loop shows up here.
  std::atomic<int> level1{0}, level2{0}, level3{0};
  TaskScope scope;
  for (int i = 0; i < 8; ++i)
    scope.spawn([&] {
      level1.fetch_add(1, std::memory_order_relaxed);
      TaskScope inner;
      for (int j = 0; j < 8; ++j)
        inner.spawn([&] {
          level2.fetch_add(1, std::memory_order_relaxed);
          TaskScope leaf;
          for (int k = 0; k < 8; ++k)
            leaf.spawn([&] {
              level3.fetch_add(1, std::memory_order_relaxed);
            });
          leaf.wait();
        });
      inner.wait();
    });
  scope.wait();
  EXPECT_EQ(level1.load(), 8);
  EXPECT_EQ(level2.load(), 64);
  EXPECT_EQ(level3.load(), 512);
}

TEST(TaskScope, AdmissionCapBoundsConcurrency) {
  // cap = 2: however many workers the executor owns, at most two threads
  // may be inside this scope tree at once.
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  TaskScope scope(/*max_parallelism=*/2);
  for (int i = 0; i < 24; ++i)
    scope.spawn([&] {
      const int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
      int seen = peak.load(std::memory_order_relaxed);
      while (now > seen &&
             !peak.compare_exchange_weak(seen, now, std::memory_order_acq_rel)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  scope.wait();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(TaskScope, FirstExceptionPropagatesAndSkipsUnstartedTasks) {
  // cap = 1 serialises execution in spawn (FIFO) order: tasks 0..3 run,
  // task 3 throws, tasks 4+ are skipped but still counted complete.
  std::atomic<int> executed{0};
  TaskScope scope(/*max_parallelism=*/1);
  for (int i = 0; i < 16; ++i)
    scope.spawn([&, i] {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("boom");
    });
  EXPECT_THROW(scope.wait(), std::runtime_error);
  EXPECT_EQ(executed.load(), 4);

  // The scope and executor survive: a later batch runs normally.
  std::atomic<int> after{0};
  TaskScope again;
  for (int i = 0; i < 8; ++i)
    again.spawn([&] { after.fetch_add(1, std::memory_order_relaxed); });
  again.wait();
  EXPECT_EQ(after.load(), 8);
}

TEST(TaskScope, CapOneRunsInSpawnOrder) {
  // cap = 1 admits a root's tasks one at a time, oldest first, even while
  // several workers scan the same queue: a worker refused on task k must
  // not take task k+1 when the slot opens in the middle of its scan. Task 0
  // holds the slot until every task is queued, and the tasks after it run
  // for 0-30 us, about as long as a woken worker takes to start its scan.
  constexpr int kTasks = 64;
  std::vector<int> expected(kTasks);
  std::iota(expected.begin(), expected.end(), 0);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<int> order;
    order.reserve(kTasks);
    std::atomic<bool> queued{false};
    TaskScope scope(/*max_parallelism=*/1);
    for (int i = 0; i < kTasks; ++i)
      scope.spawn([&order, &queued, i] {
        if (i == 0)
          while (!queued.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(2 * (i % 16));
        while (std::chrono::steady_clock::now() < until) {
        }
        order.push_back(i);
      });
    queued.store(true, std::memory_order_release);
    scope.wait();
    ASSERT_EQ(order, expected) << "repetition " << rep;
  }
}

TEST(TaskScope, ExceptionInNestedScopePropagatesThroughParent) {
  std::atomic<int> outer_done{0};
  TaskScope scope;
  scope.spawn([&] {
    TaskScope inner;
    inner.spawn([] { throw std::runtime_error("nested boom"); });
    inner.wait();  // rethrows -> this task fails -> scope.wait rethrows
    outer_done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_THROW(scope.wait(), std::runtime_error);
  EXPECT_EQ(outer_done.load(), 0);
}

// (The deprecated parallel_for wrapper and its legacy-contract test were
// removed on schedule; TaskScope spawn/wait is the only submission path.)

TEST(Executor, TimingSlotsAreStableAndBounded) {
  Executor& executor = Executor::instance();
  // The calling (non-worker) thread maps to the shared external slot.
  EXPECT_EQ(Executor::timing_slot(), executor.worker_count());
  // Tasks run either on a worker (slot < worker_count) or on the caller.
  std::atomic<bool> in_range{true};
  TaskScope scope;
  for (int i = 0; i < 32; ++i)
    scope.spawn([&] {
      if (Executor::timing_slot() > executor.worker_count())
        in_range.store(false, std::memory_order_relaxed);
    });
  scope.wait();
  EXPECT_TRUE(in_range.load());
}

TEST(Executor, ResolveThreadCountHandlesZeroAndClamping) {
  const std::uint32_t hw = Executor::hardware_threads();
  ASSERT_GE(hw, 1u);
  bool clamped = true;
  EXPECT_EQ(resolve_thread_count(0, &clamped), hw);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(resolve_thread_count(1, &clamped), 1u);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(resolve_thread_count(hw, &clamped), hw);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(resolve_thread_count(static_cast<std::uint64_t>(hw) + 7, &clamped),
            hw);
  EXPECT_TRUE(clamped);
  EXPECT_EQ(resolve_thread_count(hw + 1), hw);  // null clamped is fine
}

TEST(Executor, PinningIsBestEffortAndReported) {
  Executor& executor = Executor::instance();
  if (!Executor::pin_supported()) {
    EXPECT_FALSE(executor.set_pinning(true));
    EXPECT_FALSE(Executor::pinning_enabled());
    return;
  }
  const bool applied = executor.set_pinning(true);
  EXPECT_EQ(Executor::pinning_enabled(), applied);
  // Pinned or not, work still completes.
  std::atomic<int> count{0};
  TaskScope scope;
  for (int i = 0; i < 16; ++i)
    scope.spawn([&] { count.fetch_add(1, std::memory_order_relaxed); });
  scope.wait();
  EXPECT_EQ(count.load(), 16);
  executor.set_pinning(false);
  EXPECT_FALSE(Executor::pinning_enabled());
}

}  // namespace
}  // namespace ewalk

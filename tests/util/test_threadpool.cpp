#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sqz::util {
namespace {

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleTaskRuns) {
  ThreadPool pool(4);
  int value = 0;
  pool.parallel_for_index(1, [&](std::size_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(ThreadPool, FewerTasksThanJobsCoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for_index(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyMoreTasksThanJobsCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_index(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SlotWritesByIndexAreOrdered) {
  // The determinism contract the sweep layer relies on: writing results
  // into position-indexed slots yields the serial output at any job count.
  ThreadPool pool(8);
  std::vector<int> out(512, -1);
  pool.parallel_for_index(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) * 3;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_index(100,
                              [&](std::size_t i) {
                                if (i == 57) throw std::runtime_error("boom 57");
                              }),
      std::runtime_error);
}

TEST(ThreadPool, ExceptionMessagePreserved) {
  ThreadPool pool(2);
  try {
    pool.parallel_for_index(8, [&](std::size_t) {
      throw std::runtime_error("sweep failed");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sweep failed");
  }
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_index(
                   16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for_index(16, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A nested call into the same pool runs inline on whichever runner owns
  // the outer index — a worker or the participating caller — so every inner
  // index lands on its outer index's thread.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(32);
  std::vector<std::thread::id> outer_ids(8);
  std::vector<std::thread::id> inner_ids(32);
  pool.parallel_for_index(8, [&](std::size_t outer) {
    outer_ids[outer] = std::this_thread::get_id();
    pool.parallel_for_index(4, [&](std::size_t inner) {
      hits[outer * 4 + inner].fetch_add(1);
      inner_ids[outer * 4 + inner] = std::this_thread::get_id();
      // Slow down the caller's inner indices so that, were they enqueued
      // rather than run inline, an idle worker would claim some of them.
      if (outer_ids[outer] == caller)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (std::size_t i = 0; i < inner_ids.size(); ++i)
    EXPECT_EQ(inner_ids[i], outer_ids[i / 4]) << i;
}

// Two-party meeting point with a bounded wait, so a test that needs two
// indices to run concurrently fails instead of hanging when they do not.
class Rendezvous {
 public:
  /// True once both parties have arrived; false if the other party has not
  /// shown up within `limit`.
  bool arrive(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, limit, [&] { return arrived_ >= 2; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

TEST(ThreadPool, CallFromAnotherPoolsWorkerFansOut) {
  // The serving path: a dispatch-pool task calls into the simulation pool.
  // Only the target pool's own runners count as nested; this call must
  // enqueue on `sim`, so its worker runs one index while the dispatch
  // worker runs the other. Run inline, fn(0) would wait out the rendezvous
  // alone.
  ThreadPool dispatch(2);
  ThreadPool sim(2);
  Rendezvous meet;
  std::vector<char> met(2, 0);
  std::vector<std::thread::id> ids(2);
  std::thread::id task_thread;
  std::promise<void> done;
  dispatch.submit([&] {
    task_thread = std::this_thread::get_id();
    sim.parallel_for_index(2, [&](std::size_t i) {
      ids[i] = std::this_thread::get_id();
      met[i] = meet.arrive(std::chrono::seconds(5));
    });
    done.set_value();
  });
  done.get_future().get();
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_TRUE(ids[0] == task_thread || ids[1] == task_thread);
}

TEST(ThreadPool, CallFromSamePoolsWorkerRunsInline) {
  ThreadPool pool(4);
  std::vector<std::thread::id> ids(16);
  std::thread::id task_thread;
  std::promise<void> done;
  pool.submit([&] {
    task_thread = std::this_thread::get_id();
    pool.parallel_for_index(ids.size(), [&](std::size_t i) {
      ids[i] = std::this_thread::get_id();
    });
    done.set_value();
  });
  done.get_future().get();
  EXPECT_NE(task_thread, std::this_thread::get_id());
  for (const auto& id : ids) EXPECT_EQ(id, task_thread);
}

TEST(ThreadPool, JobsOneExecutesInlineOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(32);
  pool.parallel_for_index(ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, JobsClampedToAtLeastOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.jobs(), 1);
  int runs = 0;
  pool.parallel_for_index(5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, DefaultJobsHonoursSqzJobsEnv) {
  ASSERT_EQ(setenv("SQZ_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(), 3);
  // Garbage is rejected loudly, not silently ignored: a typo'd SQZ_JOBS
  // would otherwise change parallelism without the user noticing.
  ASSERT_EQ(setenv("SQZ_JOBS", "not-a-number", 1), 0);
  EXPECT_THROW(ThreadPool::default_jobs(), std::invalid_argument);
  ASSERT_EQ(setenv("SQZ_JOBS", "0", 1), 0);
  EXPECT_THROW(ThreadPool::default_jobs(), std::invalid_argument);
  ASSERT_EQ(setenv("SQZ_JOBS", "-2", 1), 0);
  EXPECT_THROW(ThreadPool::default_jobs(), std::invalid_argument);
  ASSERT_EQ(unsetenv("SQZ_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_jobs(), 1);
}

TEST(ThreadPool, ParseJobsAcceptsPositiveDecimals) {
  EXPECT_EQ(ThreadPool::parse_jobs("1", "--jobs"), 1);
  EXPECT_EQ(ThreadPool::parse_jobs("64", "--jobs"), 64);
  EXPECT_EQ(ThreadPool::parse_jobs("+8", "--jobs"), 8);
}

TEST(ThreadPool, ParseJobsRejectsGarbageNamingTheSource) {
  const char* bad[] = {"", "0", "-1", "banana", "4x", "1.5", "+", " 2",
                       "99999999999"};
  for (const char* text : bad) {
    try {
      ThreadPool::parse_jobs(text, "SQZ_JOBS");
      FAIL() << "expected rejection of '" << text << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SQZ_JOBS"), std::string::npos) << what;
      EXPECT_NE(what.find("positive integer"), std::string::npos) << what;
    }
  }
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    for (int i = 1; i <= 100; ++i)
      pool.submit([&sum, i] { sum.fetch_add(i); });
  }  // destructor drains the queue
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SubmitOnOneJobPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, SubmittedTaskCanRunNestedParallelFor) {
  // A submitted task that calls parallel_for_index on its own pool: the
  // nested call must execute inline on the worker rather than deadlock on
  // the queue. (Connection handlers run on the server's separate dispatch
  // pool; their calls into the simulation pool fan out instead, see
  // CallFromAnotherPoolsWorkerFansOut.)
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::atomic<bool> done{false};
  pool.submit([&] {
    pool.parallel_for_index(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 2016);
}

TEST(ThreadPoolCapture, CapturesExceptionsWithoutAbortingTheBatch) {
  // The sweep-engine contract: one poisoned index must not cost the other
  // n-1 evaluations (core/dse.h evaluate_designs_checked).
  ThreadPool pool(4);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = pool.parallel_for_index_capture(
      kN,
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i % 7 == 3) throw std::runtime_error("poisoned");
      },
      errors);
  EXPECT_EQ(failed, 29u);  // |{i < 200 : i % 7 == 3}|
  ASSERT_EQ(errors.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;  // every index ran exactly once
    EXPECT_EQ(static_cast<bool>(errors[i]), i % 7 == 3) << i;
  }
}

TEST(ThreadPoolCapture, CapturedExceptionKeepsItsMessage) {
  ThreadPool pool(2);
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = pool.parallel_for_index_capture(
      8,
      [&](std::size_t i) {
        if (i == 5) throw std::runtime_error("bad point 5");
      },
      errors);
  EXPECT_EQ(failed, 1u);
  ASSERT_TRUE(errors[5]);
  try {
    std::rethrow_exception(errors[5]);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad point 5");
  }
}

TEST(ThreadPoolCapture, CleanBatchReturnsZeroAndNullEntries) {
  ThreadPool pool(4);
  std::vector<std::exception_ptr> errors{std::make_exception_ptr(
      std::runtime_error("stale"))};  // must be overwritten
  const std::size_t failed = pool.parallel_for_index_capture(
      16, [](std::size_t) {}, errors);
  EXPECT_EQ(failed, 0u);
  ASSERT_EQ(errors.size(), 16u);
  for (const auto& e : errors) EXPECT_FALSE(e);
}

TEST(ThreadPoolCapture, InlinePathCapturesToo) {
  // jobs=1 runs every index inline on the caller; isolation must hold there
  // just the same.
  ThreadPool pool(1);
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = pool.parallel_for_index_capture(
      5,
      [](std::size_t i) {
        if (i == 0 || i == 4) throw std::invalid_argument("edge");
      },
      errors);
  EXPECT_EQ(failed, 2u);
  EXPECT_TRUE(errors[0]);
  EXPECT_FALSE(errors[2]);
  EXPECT_TRUE(errors[4]);
}

TEST(ThreadPoolCapture, AllIndicesFailingStillCompletes) {
  ThreadPool pool(4);
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = pool.parallel_for_index_capture(
      64, [](std::size_t) { throw std::runtime_error("all down"); }, errors);
  EXPECT_EQ(failed, 64u);
  for (const auto& e : errors) EXPECT_TRUE(e);
}

TEST(ThreadPoolCapture, PoolStaysUsableAfterCapturedFailures) {
  ThreadPool pool(4);
  std::vector<std::exception_ptr> errors;
  pool.parallel_for_index_capture(
      16, [](std::size_t) { throw std::runtime_error("x"); }, errors);
  std::atomic<int> sum{0};
  pool.parallel_for_index(16, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPool, GlobalPoolResizesOnSetGlobalJobs) {
  ThreadPool::set_global_jobs(2);
  EXPECT_EQ(ThreadPool::global_jobs(), 2);
  EXPECT_EQ(ThreadPool::global().jobs(), 2);
  ThreadPool::set_global_jobs(5);
  EXPECT_EQ(ThreadPool::global().jobs(), 5);
  ThreadPool::set_global_jobs(0);  // back to the default policy
  EXPECT_EQ(ThreadPool::global_jobs(), ThreadPool::default_jobs());
}

}  // namespace
}  // namespace sqz::util

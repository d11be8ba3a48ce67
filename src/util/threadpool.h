// Fixed-size task pool for embarrassingly-parallel sweep evaluation.
//
// The design-space layers (core/dse, core/codesign, core/multicore, the
// bench sweep drivers) evaluate many independent design points; this pool
// lets them fan those evaluations out across threads while keeping results
// bit-exact: callers write each result into a pre-sized slot indexed by
// input position, so output ordering never depends on thread scheduling.
//
// Deliberately minimal — no work stealing, no futures. One blocking
// primitive, `parallel_for_index(n, fn)`, runs fn(0..n-1) with the caller
// thread participating, propagates the first worker exception to the
// caller, and executes inline when the pool has one job or on a nested call
// into the same pool (from one of its workers, or from a caller while it
// runs its own batch), which keeps nesting deadlock-free. A call from a
// worker of another pool (the server's dispatch pool) enqueues on this pool
// like any outside caller, so calls between pools must not form a cycle.
//
// Job-count policy, strongest first: ThreadPool::set_global_jobs (the
// `--jobs` CLI flag), the SQZ_JOBS environment variable, then
// std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sqz::util {

class ThreadPool {
 public:
  /// Spawns `jobs - 1` worker threads (the caller is the remaining job).
  /// jobs < 1 is clamped to 1; jobs == 1 means every call runs inline.
  explicit ThreadPool(int jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const noexcept { return jobs_; }

  /// Run fn(i) for every i in [0, n), blocking until all complete. The
  /// caller thread participates, so jobs=1 (and n<=1) degenerates to a plain
  /// loop on the caller. Iterations must be independent; for deterministic
  /// output, fn must write only to state owned by its own index. If any
  /// iteration throws, the first exception (in completion order) is
  /// rethrown on the caller after the batch drains; remaining indices are
  /// abandoned. A nested call into this same pool (from one of its workers,
  /// or from the caller while it runs its own indices) runs inline; a call
  /// from a worker of another pool enqueues here like any other caller.
  void parallel_for_index(std::size_t n,
                          const std::function<void(std::size_t)>& fn);

  /// Fault-isolating variant: a throwing iteration never aborts the batch.
  /// Every index in [0, n) runs to completion; an exception thrown by fn(i)
  /// is captured into errors[i] (errors is resized to n, entries for clean
  /// indices are null). Returns the number of indices that threw. This is
  /// the sweep-engine primitive: one poisoned design point must not tear
  /// down the other n-1 evaluations (core/dse.h).
  std::size_t parallel_for_index_capture(
      std::size_t n, const std::function<void(std::size_t)>& fn,
      std::vector<std::exception_ptr>& errors);

  /// Enqueue one fire-and-forget task onto the pool's workers — the request
  /// dispatch primitive of the serving layer (serve/server.h). With a
  /// one-job pool there are no workers, so the task runs inline on the
  /// caller before submit() returns. Tasks must not block waiting on other
  /// submitted tasks (they may share the lone worker). A task may call
  /// parallel_for_index: on this same pool it runs inline, on another pool
  /// (the global simulation pool, from a dispatch-pool task) it fans out
  /// there.
  void submit(std::function<void()> task);

  /// Process-wide pool used by the sweep layers. Created on first use with
  /// set_global_jobs()'s value if one was set, else default_jobs().
  static ThreadPool& global();

  /// Resize the global pool (the `--jobs` override). jobs <= 0 restores the
  /// default policy (SQZ_JOBS, then hardware concurrency). Not safe to call
  /// concurrently with a running parallel_for_index on the global pool.
  static void set_global_jobs(int jobs);

  /// Job count the global pool has (or would be created with).
  static int global_jobs();

  /// SQZ_JOBS environment override if set, else
  /// std::thread::hardware_concurrency() (at least 1). A set-but-invalid
  /// SQZ_JOBS (zero, negative, or non-numeric) throws std::invalid_argument
  /// instead of silently falling back, so a typo'd environment never runs
  /// at an unintended width.
  static int default_jobs();

  /// Strict job-count parser shared by `--jobs` and SQZ_JOBS: the entire
  /// string must be a positive decimal integer. Throws std::invalid_argument
  /// (mentioning `what`) on empty input, garbage, trailing characters, zero,
  /// negatives, or overflow.
  static int parse_jobs(const std::string& text, const std::string& what);

 private:
  struct Batch;

  void worker_main();
  void run_batch(const std::shared_ptr<Batch>& batch);

  const int jobs_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace sqz::util

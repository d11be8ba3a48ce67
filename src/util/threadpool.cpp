#include "util/threadpool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace sqz::util {

namespace {

// The pool the current thread is running indices for: set for the lifetime
// of a worker thread, and for a caller while it joins its own batch. A
// nested parallel_for_index into that same pool runs inline instead of
// enqueueing (a runner blocking on its own pool's queue could deadlock); a
// call into any other pool enqueues like any outside caller.
thread_local const ThreadPool* tl_pool_worker = nullptr;

// Marks the caller as a runner of `pool` while it joins a batch, restoring
// the previous mark afterwards: the caller may itself be a worker of
// another pool (the server's dispatch pool).
class RunnerScope {
 public:
  explicit RunnerScope(const ThreadPool* pool) : prev_(tl_pool_worker) {
    tl_pool_worker = pool;
  }
  ~RunnerScope() { tl_pool_worker = prev_; }
  RunnerScope(const RunnerScope&) = delete;
  RunnerScope& operator=(const RunnerScope&) = delete;

 private:
  const ThreadPool* prev_;
};

}  // namespace

// Shared state of one parallel_for_index call. Runners (workers and the
// caller) pull indices from `next` until exhausted or a failure is recorded.
struct ThreadPool::Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  /// Per-index capture mode (parallel_for_index_capture): exceptions land in
  /// their own slot and the batch keeps running instead of aborting. Each
  /// slot is written by exactly one runner (the one that claimed the index),
  /// so no lock is needed beyond the batch join.
  std::vector<std::exception_ptr>* captured = nullptr;

  std::mutex mu;
  std::condition_variable done_cv;
  int pending = 0;  ///< Enqueued runner tasks not yet finished.
  std::exception_ptr error;

  void run_indices() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        (*fn)(i);
      } catch (...) {
        if (captured) {
          (*captured)[i] = std::current_exception();
          continue;  // isolate: the rest of the batch still runs
        }
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  }
};

ThreadPool::ThreadPool(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 0; i < jobs_ - 1; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_main() {
  tl_pool_worker = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// Fan a prepared batch out to the workers, participate from the caller
// thread, and block until every runner has finished.
void ThreadPool::run_batch(const std::shared_ptr<Batch>& batch) {
  // One runner per worker that could usefully participate; the caller is
  // runner number `runners + 1`.
  const std::size_t runners =
      std::min(workers_.size(), batch->n > 1 ? batch->n - 1 : std::size_t{0});
  batch->pending = static_cast<int>(runners);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t r = 0; r < runners; ++r) {
      queue_.emplace_back([batch] {
        batch->run_indices();
        {
          std::lock_guard<std::mutex> batch_lock(batch->mu);
          --batch->pending;
        }
        batch->done_cv.notify_one();
      });
    }
  }
  work_cv_.notify_all();

  {
    const RunnerScope scope(this);
    batch->run_indices();
  }

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] { return batch->pending == 0; });
}

void ThreadPool::parallel_for_index(std::size_t n,
                                    const std::function<void(std::size_t)>& fn) {
  // Inline paths: trivial batches, a one-job pool, or a nested call from a
  // runner of this same pool. Exceptions propagate naturally.
  if (n == 0) return;
  if (jobs_ == 1 || n == 1 || tl_pool_worker == this) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  run_batch(batch);
  // Take the error out of the batch so the caller drops the last reference
  // to it: a worker may release the batch itself after the caller returns,
  // and TSan cannot see libstdc++'s exception refcount, so a final release
  // on that worker reads as a race with the caller's handler.
  const std::exception_ptr error = std::exchange(batch->error, nullptr);
  if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::parallel_for_index_capture(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    std::vector<std::exception_ptr>& errors) {
  errors.assign(n, nullptr);
  if (n == 0) return 0;
  if (jobs_ == 1 || n == 1 || tl_pool_worker == this) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    batch->captured = &errors;
    run_batch(batch);
  }
  std::size_t failures = 0;
  for (const std::exception_ptr& e : errors)
    if (e) ++failures;
  return failures;
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {  // one-job pool: degenerate to a direct call
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;  // guarded by g_global_mu
int g_global_override = 0;                  // guarded by g_global_mu; 0 = auto

}  // namespace

int ThreadPool::parse_jobs(const std::string& text, const std::string& what) {
  const auto bad = [&](const std::string& why) {
    throw std::invalid_argument(what + " must be a positive integer, got '" +
                                text + "' (" + why + ")");
  };
  if (text.empty()) bad("empty");
  std::size_t i = 0;
  if (text[0] == '+' || text[0] == '-') i = 1;
  if (i == text.size()) bad("no digits");
  long long v = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') bad("not a number");
    v = v * 10 + (c - '0');
    if (v > 1 << 20) bad("out of range");
  }
  if (text[0] == '-') bad("negative");
  if (v == 0) bad("zero");
  return static_cast<int>(v);
}

int ThreadPool::default_jobs() {
  if (const char* env = std::getenv("SQZ_JOBS"))
    return parse_jobs(env, "SQZ_JOBS");
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) {
    const int jobs = g_global_override > 0 ? g_global_override : default_jobs();
    g_global_pool = std::make_unique<ThreadPool>(jobs);
  }
  return *g_global_pool;
}

void ThreadPool::set_global_jobs(int jobs) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_override = jobs > 0 ? jobs : 0;
  const int want = g_global_override > 0 ? g_global_override : default_jobs();
  if (g_global_pool && g_global_pool->jobs() == want) return;
  g_global_pool.reset();  // next global() call rebuilds at the new size
}

int ThreadPool::global_jobs() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool) return g_global_pool->jobs();
  return g_global_override > 0 ? g_global_override : default_jobs();
}

}  // namespace sqz::util

// Fixed-size thread pool with a parallel_for helper.
//
// The simulator uses it to train the round's active clients concurrently
// (they are independent until publication), which mirrors the paper's
// "concurrently active clients" notion in the scalability experiment.
//
// Each pool carries a short name ("prepare", "encode") used to label its
// obs metrics (pool.<name>.busy_nanos / idle_nanos / tasks, task_wait_us)
// and its worker threads in trace output.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

namespace specdag {

namespace obs {
class Context;
class Counter;
class Histogram;
}  // namespace obs

class ThreadPool {
 public:
  // num_threads == 0 means one worker per hardware thread. `name` labels the
  // pool's metrics and trace tracks; it must outlive the pool (use a
  // literal).
  explicit ThreadPool(std::size_t num_threads = 0, const char* name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; the returned future rethrows any exception it raised.
  // The future becomes ready only after the worker has recorded the task's
  // pool metrics, so a snapshot taken right after get() includes them.
  std::future<void> submit(std::function<void()> task);

  // Fire-and-forget enqueue (no future, no promise allocation). The task
  // must not throw — an escaped exception terminates the worker. Tasks run
  // in FIFO order relative to every other submit/post (the store's encode
  // pipeline relies on this to settle base payloads before their deltas).
  void post(std::function<void()> task);

  // Runs fn(i) for i in [0, n), blocking until all complete. Exceptions from
  // tasks are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Blocks until the queue is empty and no worker is running a task, with
  // every finished task's pool metrics recorded.
  void wait_idle();

 private:
  struct Task {
    std::function<void()> fn;
    std::optional<std::promise<void>> done;  // submit() only
    std::uint64_t enqueue_ns = 0;
    // The poster's active obs context, captured at post()/submit() time and
    // re-installed around fn() in the worker — so pool work (client
    // prepares, async encodes) records metrics and trace events into the
    // scenario run that spawned it, not whatever ran on the worker last.
    obs::Context* ctx = nullptr;
  };

  void enqueue(std::function<void()> fn, std::optional<std::promise<void>> done);
  void worker_loop(std::size_t worker_index);

  const char* name_;
  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t running_ = 0;  // tasks dequeued and not yet accounted for
  bool stop_ = false;

  // Cached registry references — resolved once in the ctor so workers never
  // touch the registry mutex.
  obs::Counter* busy_nanos_ = nullptr;
  obs::Counter* idle_nanos_ = nullptr;
  obs::Counter* tasks_run_ = nullptr;
  obs::Histogram* task_wait_us_ = nullptr;
};

}  // namespace specdag

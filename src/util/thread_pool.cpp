#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace specdag {

ThreadPool::ThreadPool(std::size_t num_threads, const char* name) : name_(name) {
  // 0 = one worker per hardware thread (which itself may report 0 on
  // exotic platforms, hence the final clamp to at least one worker).
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  num_threads = std::max<std::size_t>(1, num_threads);
  const std::string prefix = std::string("pool.") + name_ + ".";
  busy_nanos_ = &obs::Registry::counter(prefix + "busy_nanos");
  idle_nanos_ = &obs::Registry::counter(prefix + "idle_nanos");
  tasks_run_ = &obs::Registry::counter(prefix + "tasks");
  task_wait_us_ = &obs::Registry::histogram(prefix + "task_wait_us");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  enqueue(std::move(task), std::move(done));
  return fut;
}

void ThreadPool::post(std::function<void()> task) { enqueue(std::move(task), std::nullopt); }

void ThreadPool::enqueue(std::function<void()> fn, std::optional<std::promise<void>> done) {
  const std::uint64_t enqueue_ns =
      obs::metrics_enabled() || obs::tracing_enabled() ? obs::now_ns() : 0;
  // Capture the poster's active context so the worker records this task's
  // metrics/trace events into the run that posted it.
  obs::Context* ctx = &obs::Context::current();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw std::runtime_error("ThreadPool: submit after shutdown");
    tasks_.push(Task{std::move(fn), std::move(done), enqueue_ns, ctx});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) f.get();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  obs::set_thread_name(std::string(name_) + "-" + std::to_string(worker_index));
  bool ran = false;
  for (;;) {
    Task task;
    // The idle interval belongs to whichever task ends it, so the clock
    // must start before that task's context is known, whatever any
    // context's runtime flag says.
    const std::uint64_t wait_start = obs::now_ns();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (ran && --running_ == 0 && tasks_.empty()) idle_cv_.notify_all();
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++running_;
      ran = true;
    }
    // Run the task under the context it was posted from: its counters,
    // spans, and the pool's own accounting attribute to the posting run.
    obs::ContextScope ctx_scope(task.ctx);
    // Metrics and tracing are independent switches: --trace with --obs off
    // must still emit the dequeue instants (and vice versa).
    const bool metrics = obs::metrics_enabled();
    const bool tracing = obs::tracing_enabled();
    // A submitted task's exception goes to its future; a posted task must
    // not throw.
    std::exception_ptr error;
    const auto run = [&] {
      if (!task.done) return task.fn();
      try {
        task.fn();
      } catch (...) {
        error = std::current_exception();
      }
    };
    if (metrics || tracing) {
      const std::uint64_t run_start = obs::now_ns();
      const std::uint64_t wait_us = task.enqueue_ns != 0 && run_start > task.enqueue_ns
                                        ? (run_start - task.enqueue_ns) / 1000
                                        : 0;
      if (metrics) {
        if (wait_start != 0) idle_nanos_->add(run_start - wait_start);
        if (task.enqueue_ns != 0) task_wait_us_->record(wait_us);
      }
      if (tracing) {
        obs::trace_detail::instant("pool.dequeue", {{"wait_us", wait_us}});
      }
      run();
      if (metrics) {
        busy_nanos_->add(obs::now_ns() - run_start);
        tasks_run_->add();
      }
    } else {
      run();
    }
    // Completion becomes visible only now, after the accounting above: the
    // future here, wait_idle() once the worker takes the lock again.
    if (task.done) error ? task.done->set_exception(error) : task.done->set_value();
  }
}

}  // namespace specdag

#include "obs/context.hpp"

#include "util/logging.hpp"

namespace specdag::obs {

namespace context_detail {

std::uint64_t next_context_epoch() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace context_detail

// Context's ctor/dtor live in trace.cpp, where the TraceBuffer pimpl is a
// complete type (both instantiate the unique_ptr<TraceBuffer> destructor).

Context& Context::process_default() {
  static Context* instance = new Context(true);
  return *instance;
}

void Context::close() {
  set_metrics_on(false);
  closed_.store(true, std::memory_order_release);
}

CounterCell& Context::materialize_counter(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(cells_mutex_);
  CounterCell* cell = counter_cells_[id].load(std::memory_order_relaxed);
  if (cell == nullptr) {
    cell = new CounterCell();
    counter_cells_[id].store(cell, std::memory_order_release);
  }
  return *cell;
}

HistogramCell& Context::materialize_histogram(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(cells_mutex_);
  HistogramCell* cell = histogram_cells_[id].load(std::memory_order_relaxed);
  if (cell == nullptr) {
    cell = new HistogramCell();
    histogram_cells_[id].store(cell, std::memory_order_release);
  }
  return *cell;
}

void Context::note_late_record() {
  // A task posted during the run outlived the run's ObsSession: its records
  // land after close() and would silently be missing from the already-taken
  // snapshots. Count them all, warn once per context.
  if (late_records_.fetch_add(1, std::memory_order_relaxed) == 0) {
    SPECDAG_LOG(Warn) << "obs: record into defunct context (epoch " << epoch_
                      << ") after its run finished; its metrics were dropped"
                      << " from that run's summary.obs (warning once;"
                      << " subsequent late records are only counted)";
  }
}

}  // namespace specdag::obs

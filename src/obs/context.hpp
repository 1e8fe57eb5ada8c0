// Per-run observability contexts.
//
// PR 6's metrics registry and trace session were process-global, which made
// per-run attribution impossible the moment two scenario runs execute
// concurrently (a parallel sweep had to drop summary.obs entirely). An
// obs::Context makes the binding explicit: each scenario run owns a context
// holding its own counter/histogram cells and (optional) trace buffer, and
// every instrumented call site resolves the *active* context through a
// thread-local that util::ThreadPool propagates into posted tasks — captured
// at post()/submit() time, so pool workers encoding deltas or preparing
// clients record into the run that spawned the work.
//
// Identity vs storage: metric *names* stay process-global (the Registry in
// metrics.hpp assigns each name a stable small id once), while metric
// *storage* is per-context, indexed by that id. Call sites keep caching the
// returned handle in a local static exactly as before; the handle is now one
// integer, and a mutation is: one thread-local load, one relaxed enabled
// check, one indexed cell lookup, one sharded relaxed fetch_add. Disabled
// runs pay the thread-local load and the flag check (~1 ns).
//
// Contexts are also the unit of lifecycle policing: close() marks a context
// defunct at run end, and any task that still records into it afterwards is
// counted (and warned about once) instead of silently skewing a finished
// run's numbers.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace specdag::obs {

// Nanoseconds on the steady clock since the first call of the process —
// the shared timebase of the pool accounting and the trace-span layer.
std::uint64_t now_ns();

// Upper bound on distinct metric names per kind (counter / histogram). The
// Registry throws std::length_error past it; every context sizes its cell
// index to this, so a registered id is always in range.
inline constexpr std::size_t kMaxMetricsPerKind = 256;

namespace detail {

inline constexpr std::size_t kShards = 16;

// Per-thread shard slot: threads are assigned round-robin on first use, so
// up to kShards concurrent writers never share a cache line.
std::size_t shard_index();

struct alignas(64) Shard {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

// Sharded lock-free counter storage — one cell per (metric, context).
class CounterCell {
 public:
  void add(std::uint64_t n) {
    shards_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) sum += shard.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<detail::Shard, detail::kShards> shards_;
};

// Sharded exponential-bucket histogram storage: bucket i counts values of
// bit width i (0, 1, 2-3, 4-7, ...) — one layout serves walk lengths, queue
// depths, and nanosecond latencies alike, and makes bucket-wise merges of
// snapshots from different contexts exact.
class HistogramCell {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(uint64) in [0, 64]

  static std::size_t bucket_index(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  // Inclusive upper bound of bucket i (the value reported for quantiles).
  static std::uint64_t bucket_upper_bound(std::size_t index) {
    return index == 0 ? 0
           : index >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << index) - 1;
  }

  void record(std::uint64_t value) {
    ShardData& shard = shards_[detail::shard_index()];
    shard.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;

 private:
  friend struct HistogramSnapshot;

  struct alignas(64) ShardData {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<ShardData, detail::kShards> shards_;
};

struct MetricsSnapshot;

// One observability domain: the metric cells and trace buffer of a single
// scenario run (or the process default, for everything outside a run).
class Context {
 public:
  explicit Context(bool metrics_on = true);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // The active context of the calling thread: the innermost ContextScope,
  // or the process-default context outside any scope. Never null.
  static Context& current() {
    Context* ctx = detail_current();
    return ctx != nullptr ? *ctx : process_default();
  }

  // The fallback context for code running outside any run. Lives for the
  // whole process (intentionally leaked, like the registry tables).
  static Context& process_default();

  bool metrics_on() const { return metrics_on_.load(std::memory_order_relaxed); }
  void set_metrics_on(bool on) { metrics_on_.store(on, std::memory_order_relaxed); }

  // Marks the context defunct (run finished, its snapshots are taken):
  // metrics turn off, and late records are counted + warned about instead
  // of silently skewing numbers that were already reported.
  void close();
  bool closed() const { return closed_.load(std::memory_order_relaxed); }
  std::uint64_t late_records() const {
    return late_records_.load(std::memory_order_relaxed);
  }
  // Monotonic per-process context generation — names the context in the
  // defunct-record warning so racing runs are distinguishable in logs.
  std::uint64_t epoch() const { return epoch_; }

  // --- metric storage --------------------------------------------------
  // Cell accessors materialize storage on first touch (mutex slow path);
  // the fast path is one relaxed load + index. `id` must come from the
  // Registry (always < kMaxMetricsPerKind).
  CounterCell& counter_cell(std::uint32_t id) {
    CounterCell* cell = counter_cells_[id].load(std::memory_order_acquire);
    return cell != nullptr ? *cell : materialize_counter(id);
  }
  HistogramCell& histogram_cell(std::uint32_t id) {
    HistogramCell* cell = histogram_cells_[id].load(std::memory_order_acquire);
    return cell != nullptr ? *cell : materialize_histogram(id);
  }
  const CounterCell* find_counter_cell(std::uint32_t id) const {
    return counter_cells_[id].load(std::memory_order_acquire);
  }
  const HistogramCell* find_histogram_cell(std::uint32_t id) const {
    return histogram_cells_[id].load(std::memory_order_acquire);
  }

  // Point-in-time copy of every *named* registered metric as recorded in
  // THIS context (unmaterialized cells read as zero, so the catalog is
  // identical across contexts). Defined in metrics.cpp with the registry.
  MetricsSnapshot snapshot() const;

  // Disabled-path bookkeeping: called instead of recording when metrics are
  // off. Only does work when the context was closed — the defunct-epoch
  // detector of satellite lore, not a hot-path cost.
  void note_disabled_record() {
    if (closed_.load(std::memory_order_relaxed)) note_late_record();
  }

  // --- tracing (implemented in trace.cpp) ------------------------------
  bool tracing() const { return tracing_.load(std::memory_order_acquire); }
  // Starts buffering events in this context; stop_trace() writes them to
  // the path given here and clears the buffer. One session per context at a
  // time (start while active restarts the buffer).
  void start_trace(const std::string& path);
  // Ends the session and writes the file. Returns false (with a warning
  // log) when no session is active or the file could not be written.
  bool stop_trace();

  struct TraceBuffer;  // defined in trace.cpp

  // Internal hook for the trace emitters (trace.cpp): non-null from the
  // first start_trace() on; never reset afterwards, so a tracing() == true
  // acquire-load guarantees the buffer is safe to use.
  TraceBuffer* trace_buffer() const { return trace_.get(); }

 private:
  friend class ContextScope;

  static Context* detail_current();

  CounterCell& materialize_counter(std::uint32_t id);
  HistogramCell& materialize_histogram(std::uint32_t id);
  void note_late_record();

  std::atomic<bool> metrics_on_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> late_records_{0};
  std::uint64_t epoch_ = 0;

  mutable std::mutex cells_mutex_;  // guards materialization only
  std::array<std::atomic<CounterCell*>, kMaxMetricsPerKind> counter_cells_{};
  std::array<std::atomic<HistogramCell*>, kMaxMetricsPerKind> histogram_cells_{};

  std::atomic<bool> tracing_{false};
  std::unique_ptr<TraceBuffer> trace_;  // created on first start_trace()
};

namespace detail {
// The active context of this thread (null = process default). Mutated only
// by ContextScope and read by every instrumented call site. A function-local
// thread_local: an `extern thread_local` variable is reached through a TLS
// wrapper that UBSan reports as a null-pointer access.
inline Context*& tl_context() {
  static thread_local Context* ctx = nullptr;
  return ctx;
}
}  // namespace detail

inline Context* Context::detail_current() { return detail::tl_context(); }

// RAII installer: makes `ctx` the calling thread's active context for the
// scope's lifetime (null restores the process default). ThreadPool wraps
// every task in one of these with the context captured at post() time.
class ContextScope {
 public:
  explicit ContextScope(Context* ctx) : previous_(detail::tl_context()) {
    detail::tl_context() = ctx;
  }
  ~ContextScope() { detail::tl_context() = previous_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context* previous_;
};

}  // namespace specdag::obs

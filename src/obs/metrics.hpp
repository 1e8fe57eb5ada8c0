// Lock-free metrics: named counters and fixed-bucket histograms for the hot
// seams of the system (walk lengths, cache hits, store interns, pool
// busy/idle time). The instrumentation layer the scenario runner snapshots
// per round into summary.obs.
//
// Design constraints, in order:
//   * zero interference with results — metrics never touch an RNG stream,
//     never take a lock on a hot path, and never change scheduling, so a
//     run is bit-identical with obs on or off at any thread count;
//   * cheap enough to leave on (the default): an increment is one relaxed
//     fetch_add on a per-thread shard (no cache-line ping-pong between
//     workers), guarded by one relaxed flag load;
//   * attributable: storage lives in the active obs::Context (see
//     context.hpp), so concurrent scenario runs in a parallel sweep each
//     see only their own increments.
//
// Counter/Histogram are *handles*: a small id assigned once per name by the
// process-global Registry, resolving to per-context cells at record time.
// Registered handles never move, so call sites cache the reference in a
// local static exactly as before:
//
//   static obs::Counter& walks = obs::Registry::counter("tipsel.walks");
//   walks.add();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace specdag::obs {

// Runtime switch of the calling thread's ACTIVE context (default on). Off
// turns every counter and histogram mutation into a thread-local load plus
// a relaxed load-and-branch.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

// Handle to a named (or anonymous) counter. Mutations resolve the calling
// thread's active Context and hit its sharded cell for this handle's id.
class Counter {
 public:
  // Anonymous counter: gets a private id, excluded from snapshots. Exists
  // for standalone/bench use; named call sites go through the Registry.
  Counter();

  void add(std::uint64_t n = 1) {
    Context& ctx = Context::current();
    if (!ctx.metrics_on()) {
      ctx.note_disabled_record();
      return;
    }
    ctx.counter_cell(id_).add(n);
  }

  // Total recorded into the calling thread's active context.
  std::uint64_t value() const {
    const CounterCell* cell = Context::current().find_counter_cell(id_);
    return cell == nullptr ? 0 : cell->value();
  }

  std::uint32_t id() const { return id_; }

 private:
  friend class Registry;
  struct RegisteredTag {};
  Counter(RegisteredTag, std::uint32_t id) : id_(id) {}

  std::uint32_t id_;
};

// Handle to a named (or anonymous) exponential-bucket histogram (layout in
// HistogramCell): bucket i counts values of bit width i.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramCell::kBuckets;

  static std::size_t bucket_index(std::uint64_t value) {
    return HistogramCell::bucket_index(value);
  }
  static std::uint64_t bucket_upper_bound(std::size_t index) {
    return HistogramCell::bucket_upper_bound(index);
  }

  // Anonymous histogram: private id, excluded from snapshots.
  Histogram();

  void record(std::uint64_t value) {
    Context& ctx = Context::current();
    if (!ctx.metrics_on()) {
      ctx.note_disabled_record();
      return;
    }
    ctx.histogram_cell(id_).record(value);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;

  std::uint32_t id() const { return id_; }

 private:
  friend class Registry;
  struct RegisteredTag {};
  Histogram(RegisteredTag, std::uint32_t id) : id_(id) {}

  std::uint32_t id_;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, HistogramCell::kBuckets> buckets{};

  // Reads the handle's cell in the calling thread's active context.
  static HistogramSnapshot of(const Histogram& histogram);
  static HistogramSnapshot of_cell(const HistogramCell& cell);

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  std::uint64_t quantile_upper_bound(double q) const;
  // Upper bound of the highest non-empty bucket.
  std::uint64_t max_upper_bound() const;

  // This snapshot minus an earlier one of the same histogram.
  HistogramSnapshot delta_from(const HistogramSnapshot& earlier) const;

  // Adds `other` bucket-wise (exact: both use the same fixed layout, so the
  // merge is associative, commutative, and loses nothing a single combined
  // snapshot would have had). The sweep aggregator merges per-run snapshots
  // with this.
  void merge(const HistogramSnapshot& other);
};

// Point-in-time copy of every registered metric, keyed by name (ordered,
// so serialization is deterministic).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  // This snapshot minus an earlier one: per-interval attribution on a
  // cumulative context. Metrics absent earlier count from 0.
  MetricsSnapshot delta_from(const MetricsSnapshot& earlier) const;

  // Adds `other` into this snapshot: counters sum, histograms merge
  // bucket-wise. Union of catalogs.
  void merge(const MetricsSnapshot& other);

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  HistogramSnapshot histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
  }
};

// Process-global name -> handle table. Lookup takes a mutex; cache the
// returned reference (it is stable for the process lifetime). Snapshots act
// on the calling thread's ACTIVE context — for a specific run's context use
// Context::snapshot() directly.
class Registry {
 public:
  static Counter& counter(std::string_view name);
  static Histogram& histogram(std::string_view name);
  static MetricsSnapshot snapshot();
};

}  // namespace specdag::obs

#include "obs/metrics.hpp"

#include <chrono>
#include <deque>
#include <mutex>
#include <stdexcept>

namespace specdag::obs {

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

bool metrics_enabled() { return Context::current().metrics_on(); }

void set_metrics_enabled(bool enabled) {
  Context::current().set_metrics_on(enabled);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

std::uint64_t HistogramCell::count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    for (const auto& bucket : shard.buckets)
      total += bucket.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t HistogramCell::sum() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::count() const {
  const HistogramCell* cell = Context::current().find_histogram_cell(id_);
  return cell == nullptr ? 0 : cell->count();
}

std::uint64_t Histogram::sum() const {
  const HistogramCell* cell = Context::current().find_histogram_cell(id_);
  return cell == nullptr ? 0 : cell->sum();
}

HistogramSnapshot HistogramSnapshot::of_cell(const HistogramCell& cell) {
  HistogramSnapshot snap;
  for (const auto& shard : cell.shards_) {
    for (std::size_t i = 0; i < HistogramCell::kBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t bucket : snap.buckets) snap.count += bucket;
  return snap;
}

HistogramSnapshot HistogramSnapshot::of(const Histogram& histogram) {
  const HistogramCell* cell = Context::current().find_histogram_cell(histogram.id());
  return cell == nullptr ? HistogramSnapshot{} : of_cell(*cell);
}

std::uint64_t HistogramSnapshot::quantile_upper_bound(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) return HistogramCell::bucket_upper_bound(i);
  }
  return HistogramCell::bucket_upper_bound(buckets.size() - 1);
}

std::uint64_t HistogramSnapshot::max_upper_bound() const {
  for (std::size_t i = buckets.size(); i-- > 0;) {
    if (buckets[i] != 0) return HistogramCell::bucket_upper_bound(i);
  }
  return 0;
}

HistogramSnapshot HistogramSnapshot::delta_from(const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.count = count - earlier.count;
  delta.sum = sum - earlier.sum;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    delta.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  return delta;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

MetricsSnapshot MetricsSnapshot::delta_from(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    delta.counters[name] = value - earlier.counter(name);
  }
  for (const auto& [name, snap] : histograms) {
    delta.histograms[name] = snap.delta_from(earlier.histogram(name));
  }
  return delta;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, snap] : other.histograms) histograms[name].merge(snap);
}

namespace {

// The process-global identity table: names and their ids, plus the handle
// objects themselves (deques: references stay valid as the table grows).
// Intentionally leaked — call sites hold references across the whole process
// lifetime, including static-destruction order at exit. Anonymous handles
// draw ids from the same space but never enter the name maps, so snapshots
// skip them.
struct RegistryState {
  std::mutex mutex;
  std::deque<Counter> counters;
  std::deque<Histogram> histograms;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids;
  std::map<std::string, std::uint32_t, std::less<>> histogram_ids;
};

RegistryState& registry_state() {
  static RegistryState* state = new RegistryState();
  return *state;
}

std::uint32_t allocate_id(std::size_t used, const char* kind) {
  if (used >= kMaxMetricsPerKind) {
    throw std::length_error(std::string("obs: too many registered ") + kind +
                            " metrics (max " + std::to_string(kMaxMetricsPerKind) + ")");
  }
  return static_cast<std::uint32_t>(used);
}

}  // namespace

Counter::Counter() {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  id_ = allocate_id(state.counters.size(), "counter");
  state.counters.emplace_back(Counter(RegisteredTag{}, id_));
}

Histogram::Histogram() {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  id_ = allocate_id(state.histograms.size(), "histogram");
  state.histograms.emplace_back(Histogram(RegisteredTag{}, id_));
}

Counter& Registry::counter(std::string_view name) {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.counter_ids.find(name);
  if (it == state.counter_ids.end()) {
    const std::uint32_t id = allocate_id(state.counters.size(), "counter");
    state.counters.emplace_back(Counter(Counter::RegisteredTag{}, id));
    it = state.counter_ids.emplace(std::string(name), id).first;
  }
  return state.counters[it->second];
}

Histogram& Registry::histogram(std::string_view name) {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.histogram_ids.find(name);
  if (it == state.histogram_ids.end()) {
    const std::uint32_t id = allocate_id(state.histograms.size(), "histogram");
    state.histograms.emplace_back(Histogram(Histogram::RegisteredTag{}, id));
    it = state.histogram_ids.emplace(std::string(name), id).first;
  }
  return state.histograms[it->second];
}

MetricsSnapshot Registry::snapshot() { return Context::current().snapshot(); }

// Defined here (not context.cpp) because it iterates the registry's name
// maps: the snapshot catalog is every *named* metric, with unmaterialized
// cells reading as zero so all contexts report an identical key set.
MetricsSnapshot Context::snapshot() const {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricsSnapshot snap;
  for (const auto& [name, id] : state.counter_ids) {
    const CounterCell* cell = find_counter_cell(id);
    snap.counters[name] = cell == nullptr ? 0 : cell->value();
  }
  for (const auto& [name, id] : state.histogram_ids) {
    const HistogramCell* cell = find_histogram_cell(id);
    snap.histograms[name] =
        cell == nullptr ? HistogramSnapshot{} : HistogramSnapshot::of_cell(*cell);
  }
  return snap;
}

}  // namespace specdag::obs

// The obs layer: lock-free counters/histograms against a mutexed oracle
// under racing threads, trace-file well-formedness (balanced B/E pairs,
// monotonic timestamps per thread), and the determinism pin — runs are
// bit-identical with obs on, off, or traced, at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "scenario/config.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "store/model_store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace specdag {
namespace {

// Every test here must leave the process-global obs switches the way it
// found them — the rest of the suite runs in the same process.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = obs::metrics_enabled(); }
  void TearDown() override {
    obs::stop_trace();
    obs::set_metrics_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, CounterMatchesMutexedOracleUnderRacingThreads) {
  obs::set_metrics_enabled(true);
  obs::Counter counter;

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20000;
  std::mutex oracle_mutex;
  std::uint64_t oracle = 0;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9E3779B97F4A7C15ULL + t;
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < kIters; ++i) {
        state = splitmix64(state);
        const std::uint64_t n = state % 7;  // includes add(0)
        counter.add(n);
        local += n;
      }
      std::lock_guard<std::mutex> lock(oracle_mutex);
      oracle += local;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter.value(), oracle);
}

TEST_F(ObsTest, HistogramMatchesMutexedOracleUnderRacingThreads) {
  obs::set_metrics_enabled(true);
  obs::Histogram histogram;

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20000;
  std::mutex oracle_mutex;
  std::uint64_t oracle_count = 0;
  std::uint64_t oracle_sum = 0;
  std::array<std::uint64_t, obs::Histogram::kBuckets> oracle_buckets{};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 123 + t;
      std::uint64_t local_count = 0;
      std::uint64_t local_sum = 0;
      std::array<std::uint64_t, obs::Histogram::kBuckets> local_buckets{};
      for (std::size_t i = 0; i < kIters; ++i) {
        // Spread values across the exponential buckets, including 0.
        state = splitmix64(state);
        const std::uint64_t value = state >> (splitmix64(state) % 64);
        histogram.record(value);
        ++local_count;
        local_sum += value;
        ++local_buckets[obs::Histogram::bucket_index(value)];
      }
      std::lock_guard<std::mutex> lock(oracle_mutex);
      oracle_count += local_count;
      oracle_sum += local_sum;
      for (std::size_t b = 0; b < local_buckets.size(); ++b) {
        oracle_buckets[b] += local_buckets[b];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const obs::HistogramSnapshot snapshot = obs::HistogramSnapshot::of(histogram);
  EXPECT_EQ(snapshot.count, oracle_count);
  EXPECT_EQ(snapshot.sum, oracle_sum);
  for (std::size_t b = 0; b < oracle_buckets.size(); ++b) {
    EXPECT_EQ(snapshot.buckets[b], oracle_buckets[b]) << "bucket " << b;
  }
}

TEST_F(ObsTest, HistogramBucketLayoutAndQuantiles) {
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), 64u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(3), 7u);

  obs::set_metrics_enabled(true);
  obs::Histogram histogram;
  // 90 values in bucket 1 (value 1), 10 in bucket 4 (value 8).
  for (int i = 0; i < 90; ++i) histogram.record(1);
  for (int i = 0; i < 10; ++i) histogram.record(8);
  const obs::HistogramSnapshot snapshot = obs::HistogramSnapshot::of(histogram);
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_EQ(snapshot.sum, 170u);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 1.7);
  EXPECT_EQ(snapshot.quantile_upper_bound(0.5), 1u);
  EXPECT_EQ(snapshot.quantile_upper_bound(0.99), 15u);  // bucket 4 covers 8..15
  EXPECT_EQ(snapshot.max_upper_bound(), 15u);
}

TEST_F(ObsTest, CounterIsNoOpWhenRuntimeDisabled) {
  obs::Counter counter;
  obs::set_metrics_enabled(false);
  counter.add(5);
  EXPECT_EQ(counter.value(), 0u);
  obs::set_metrics_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAndSnapshotDeltas) {
  obs::set_metrics_enabled(true);
  obs::Counter& a = obs::Registry::counter("test_obs.counter");
  obs::Counter& b = obs::Registry::counter("test_obs.counter");
  EXPECT_EQ(&a, &b);

  const obs::MetricsSnapshot before = obs::Registry::snapshot();
  a.add(3);
  obs::Registry::histogram("test_obs.hist").record(4);
  const obs::MetricsSnapshot delta = obs::Registry::snapshot().delta_from(before);
  EXPECT_EQ(delta.counter("test_obs.counter"), 3u);
  EXPECT_EQ(delta.histogram("test_obs.hist").count, 1u);
  EXPECT_EQ(delta.histogram("test_obs.hist").sum, 4u);
  EXPECT_EQ(delta.counter("test_obs.never_registered"), 0u);
}

// ------------------------------------------------------- per-run contexts ---

TEST_F(ObsTest, ContextScopeAttributesRecordsToActiveContext) {
  obs::Counter& counter = obs::Registry::counter("test_obs.ctx_counter");
  const obs::MetricsSnapshot default_before = obs::Registry::snapshot();
  obs::Context a;
  obs::Context b;
  {
    obs::ContextScope scope(&a);
    counter.add(3);
    {
      obs::ContextScope inner(&b);  // nesting: innermost wins
      counter.add(5);
    }
    counter.add(1);  // inner scope popped -> back to a
  }
  EXPECT_EQ(a.snapshot().counter("test_obs.ctx_counter"), 4u);
  EXPECT_EQ(b.snapshot().counter("test_obs.ctx_counter"), 5u);
  // The ambient (default) context saw none of it.
  const obs::MetricsSnapshot default_delta =
      obs::Registry::snapshot().delta_from(default_before);
  EXPECT_EQ(default_delta.counter("test_obs.ctx_counter"), 0u);
}

TEST_F(ObsTest, ThreadPoolPropagatesPostersContext) {
  obs::Counter& counter = obs::Registry::counter("test_obs.pool_ctx");
  obs::Context a;
  obs::Context b;
  ThreadPool pool(2, "obstest");
  {
    obs::ContextScope scope(&a);
    pool.parallel_for(8, [&](std::size_t) { counter.add(1); });
  }
  {
    obs::ContextScope scope(&b);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(pool.submit([&] { counter.add(2); }));
    }
    for (std::future<void>& future : futures) future.get();
  }
  // Work posted under a scope records into that scope's context, no matter
  // which worker ran it or what ran on that worker before.
  EXPECT_EQ(a.snapshot().counter("test_obs.pool_ctx"), 8u);
  EXPECT_EQ(b.snapshot().counter("test_obs.pool_ctx"), 8u);
}

// A task's busy time is recorded before its completion becomes visible: read
// right after parallel_for returns (or after wait_idle for posted tasks),
// busy_nanos holds every task's time.
TEST_F(ObsTest, PoolBusyTimeIsRecordedBeforeCompletion) {
  obs::Counter& busy = obs::Registry::counter("pool.obstest.busy_nanos");
  obs::Counter& tasks = obs::Registry::counter("pool.obstest.tasks");
  obs::Context ctx;
  obs::ContextScope scope(&ctx);
  ThreadPool pool(4, "obstest");
  std::atomic<std::uint64_t> task_ns{0};
  const auto task = [&](std::size_t) {
    const std::uint64_t start = obs::now_ns();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) sink = sink + i;
    task_ns.fetch_add(obs::now_ns() - start);
  };
  std::uint64_t expected_tasks = 0;
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(4, task);
    expected_tasks += 4;
    ASSERT_EQ(tasks.value(), expected_tasks) << "round " << round;
    ASSERT_GE(busy.value(), task_ns.load()) << "round " << round;
  }
  for (int round = 0; round < 50; ++round) {
    pool.post([&] { task(0); });
    pool.wait_idle();
    expected_tasks += 1;
    ASSERT_EQ(tasks.value(), expected_tasks) << "post " << round;
    ASSERT_GE(busy.value(), task_ns.load()) << "post " << round;
  }
}

TEST_F(ObsTest, ClosedContextCountsLateRecordsInsteadOfSkewing) {
  obs::Counter& counter = obs::Registry::counter("test_obs.late");
  obs::Histogram& histogram = obs::Registry::histogram("test_obs.late_hist");
  obs::Context ctx;
  obs::ContextScope scope(&ctx);
  counter.add(2);
  ctx.close();
  EXPECT_TRUE(ctx.closed());
  EXPECT_FALSE(ctx.metrics_on());
  counter.add(7);        // late: counted + warned, not recorded
  histogram.record(1);   // late
  EXPECT_EQ(ctx.snapshot().counter("test_obs.late"), 2u);
  EXPECT_EQ(ctx.snapshot().histogram("test_obs.late_hist").count, 0u);
  EXPECT_EQ(ctx.late_records(), 2u);
}

// ------------------------------------------------------- histogram merge ---

TEST_F(ObsTest, HistogramMergeIsAssociativeAndCommutative) {
  auto make = [](std::initializer_list<std::uint64_t> values) {
    obs::HistogramSnapshot snapshot;
    for (std::uint64_t value : values) {
      ++snapshot.buckets[obs::Histogram::bucket_index(value)];
      ++snapshot.count;
      snapshot.sum += value;
    }
    return snapshot;
  };
  auto equal = [](const obs::HistogramSnapshot& x, const obs::HistogramSnapshot& y) {
    return x.count == y.count && x.sum == y.sum && x.buckets == y.buckets;
  };
  const obs::HistogramSnapshot a = make({0, 1, 1, 7, 900});
  const obs::HistogramSnapshot b = make({2, 8, 8, 1u << 20});
  const obs::HistogramSnapshot c = make({5, 5, 5, ~std::uint64_t{0}});

  obs::HistogramSnapshot ab_c = a;  // (a+b)+c
  ab_c.merge(b);
  ab_c.merge(c);
  obs::HistogramSnapshot a_bc = b;  // a+(b+c), built as (b+c)+a
  a_bc.merge(c);
  a_bc.merge(a);
  obs::HistogramSnapshot ba_c = b;  // (b+a)+c
  ba_c.merge(a);
  ba_c.merge(c);
  EXPECT_TRUE(equal(ab_c, a_bc));
  EXPECT_TRUE(equal(ab_c, ba_c));
  EXPECT_EQ(ab_c.count, 13u);
  // And the merge equals the one-shot snapshot of all values together.
  const obs::HistogramSnapshot whole =
      make({0, 1, 1, 7, 900, 2, 8, 8, 1u << 20, 5, 5, 5, ~std::uint64_t{0}});
  EXPECT_TRUE(equal(ab_c, whole));
  EXPECT_EQ(ab_c.quantile_upper_bound(0.5), whole.quantile_upper_bound(0.5));
  EXPECT_EQ(ab_c.quantile_upper_bound(0.99), whole.quantile_upper_bound(0.99));
}

// Merge-then-snapshot == snapshot-then-sum: 8 racing threads record the
// same value stream into one shared context AND each into a private one;
// the merge of the 8 private snapshots must equal the shared context's
// combined snapshot exactly (count, sum, every bucket, quantiles).
TEST_F(ObsTest, MergedPerContextSnapshotsEqualCombinedUnderRacingThreads) {
  obs::Histogram& histogram = obs::Registry::histogram("test_obs.merge_race");
  obs::Context combined;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20000;
  std::vector<std::unique_ptr<obs::Context>> privates;
  for (std::size_t t = 0; t < kThreads; ++t) {
    privates.push_back(std::make_unique<obs::Context>());
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0xC0FFEE + t;
      for (std::size_t i = 0; i < kIters; ++i) {
        state = splitmix64(state);
        const std::uint64_t value = state >> (splitmix64(state) % 64);
        {
          obs::ContextScope scope(&combined);
          histogram.record(value);
        }
        {
          obs::ContextScope scope(privates[t].get());
          histogram.record(value);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  obs::MetricsSnapshot merged;
  for (const auto& ctx : privates) merged.merge(ctx->snapshot());
  const obs::HistogramSnapshot sum_then_merge = merged.histogram("test_obs.merge_race");
  const obs::HistogramSnapshot whole = combined.snapshot().histogram("test_obs.merge_race");
  EXPECT_EQ(sum_then_merge.count, whole.count);
  EXPECT_EQ(sum_then_merge.sum, whole.sum);
  EXPECT_EQ(sum_then_merge.buckets, whole.buckets);
  EXPECT_EQ(sum_then_merge.quantile_upper_bound(0.5), whole.quantile_upper_bound(0.5));
  EXPECT_EQ(sum_then_merge.quantile_upper_bound(0.99), whole.quantile_upper_bound(0.99));
}

// --------------------------------------------------- Prometheus exporter ---

TEST_F(ObsTest, PrometheusExpositionFormat) {
  EXPECT_EQ(obs::prometheus_metric_name("tipsel.walk-steps", "specdag_"),
            "specdag_tipsel_walk_steps");

  obs::MetricsSnapshot snapshot;
  snapshot.counters["tipsel.walks"] = 42;
  obs::HistogramSnapshot hist;  // values 1, 1, 3, 8
  hist.count = 4;
  hist.sum = 13;
  hist.buckets[obs::Histogram::bucket_index(1)] = 2;
  hist.buckets[obs::Histogram::bucket_index(3)] = 1;
  hist.buckets[obs::Histogram::bucket_index(8)] = 1;
  snapshot.histograms["tipsel.walk_steps"] = hist;

  std::ostringstream out;
  obs::write_prometheus_text(out, snapshot);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE specdag_tipsel_walks_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walks_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE specdag_tipsel_walk_steps histogram\n"), std::string::npos);
  // Buckets are cumulative with exact exponential upper bounds; +Inf equals
  // _count per the exposition rules.
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_bucket{le=\"15\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_sum 13\n"), std::string::npos);
  EXPECT_NE(text.find("specdag_tipsel_walk_steps_count 4\n"), std::string::npos);
}

// Parses a written trace file and checks the Chrome trace-event contract:
// a traceEvents array whose B events all close with a matching E on the
// same thread (LIFO), with pid/tid everywhere and ts non-decreasing per tid.
void check_trace_file(const std::string& path, std::size_t min_events) {
  const scenario::Json trace = scenario::Json::parse_file(path);
  const scenario::Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->as_array().size(), min_events);

  std::map<std::uint64_t, std::vector<std::string>> open_spans;  // tid -> stack
  std::map<std::uint64_t, double> last_ts;                       // tid -> ts (us)
  for (const scenario::Json& event : events->as_array()) {
    ASSERT_TRUE(event.is_object());
    const std::string phase = event.find("ph")->as_string();
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    const std::uint64_t tid = event.find("tid")->as_uint();
    if (phase != "M") {  // metadata events carry no timestamp
      ASSERT_NE(event.find("ts"), nullptr);
      const double ts = event.find("ts")->as_number();
      auto [it, inserted] = last_ts.try_emplace(tid, ts);
      if (!inserted) {
        EXPECT_GE(ts, it->second) << "ts regressed on tid " << tid;
        it->second = ts;
      }
    }
    const std::string name = event.find("name")->as_string();
    if (phase == "B") {
      open_spans[tid].push_back(name);
    } else if (phase == "E") {
      ASSERT_FALSE(open_spans[tid].empty()) << "unmatched E \"" << name << "\"";
      EXPECT_EQ(open_spans[tid].back(), name) << "non-LIFO E on tid " << tid;
      open_spans[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left " << stack.size()
                               << " span(s) open";
  }
}

// Per-name sums of span durations (E ts - B ts in integer nanoseconds; the
// file keeps ns precision) from a written trace, plus the encode.inline time
// nested directly inside commit spans.
struct SpanSums {
  std::map<std::string, std::uint64_t> ns;
  std::map<std::string, std::size_t> count;
  std::uint64_t encode_in_commit_ns = 0;

  std::uint64_t of(const std::string& name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0 : it->second;
  }
  std::size_t spans(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
};

SpanSums span_sums(const std::string& path) {
  const scenario::Json trace = scenario::Json::parse_file(path);
  SpanSums sums;
  std::map<std::uint64_t, std::vector<std::pair<std::string, std::uint64_t>>> open;
  for (const scenario::Json& event : trace.find("traceEvents")->as_array()) {
    const std::string phase = event.find("ph")->as_string();
    if (phase != "B" && phase != "E") continue;
    const auto ts =
        static_cast<std::uint64_t>(std::llround(event.find("ts")->as_number() * 1000.0));
    auto& stack = open[event.find("tid")->as_uint()];
    if (phase == "B") {
      stack.emplace_back(event.find("name")->as_string(), ts);
      continue;
    }
    const auto [name, begin] = stack.back();
    stack.pop_back();
    sums.ns[name] += ts - begin;
    ++sums.count[name];
    if (name == "encode.inline" && !stack.empty() && stack.back().first == "commit") {
      sums.encode_in_commit_ns += ts - begin;
    }
  }
  return sums;
}

TEST_F(ObsTest, TraceFileIsWellFormed) {
  obs::set_metrics_enabled(true);
  const std::string path = ::testing::TempDir() + "test_obs_trace.json";
  obs::start_trace(path);

  // Nested + concurrent spans, flows, instants, and args with characters
  // that need JSON escaping in thread names.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::set_thread_name("test\"worker\\" + std::to_string(t));
      for (int i = 0; i < 50; ++i) {
        obs::ScopedSpan outer("outer", {{"thread", t}, {"i", std::uint64_t(i)}});
        obs::trace_detail::flow_start("hop", t * 1000 + std::uint64_t(i));
        {
          obs::ScopedSpan inner("inner");
          inner.arg("result", std::uint64_t(i) * 2);
        }
        obs::trace_detail::flow_finish("hop", t * 1000 + std::uint64_t(i));
        obs::trace_detail::instant("tick", {{"i", std::uint64_t(i)}});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_TRUE(obs::stop_trace());
  // 4 threads x 50 x (2 B + 2 E + s + f + i) plus metadata events.
  check_trace_file(path, 4 * 50 * 7);
  std::remove(path.c_str());

  // A span straddling stop_trace() must not leak an unmatched E into the
  // next session (the epoch guard): the second file holds exactly the
  // closed span's B/E pair, no stray "straddler" E.
  obs::start_trace(path);
  {
    obs::ScopedSpan straddler("straddler");
    ASSERT_TRUE(obs::stop_trace());
    obs::start_trace(path);
  }
  { obs::ScopedSpan closed("closed"); }
  ASSERT_TRUE(obs::stop_trace());
  check_trace_file(path, 2);
  std::remove(path.c_str());
}

// Regression (PR 6): start_trace() from a thread whose name was already set
// used to emit the name's M event inline while holding the trace mutex —
// re-locking a non-recursive mutex, i.e. a guaranteed deadlock. Thread names
// now live in a process-global table and the M events are synthesized at
// file-write time, so this must just work. The shape matters because it is
// the pool-worker shape: worker_loop() names its thread on startup, and a
// run dispatched onto the pool starts its ObsSession (and hence the trace)
// there.
TEST_F(ObsTest, StartTraceFromNamedThreadDoesNotDeadlock) {
  const std::string path = ::testing::TempDir() + "test_obs_named.trace.json";
  std::thread worker([&] {
    obs::set_thread_name("named-worker");
    obs::start_trace(path);
    { obs::ScopedSpan span("work"); }
    ASSERT_TRUE(obs::stop_trace());
  });
  worker.join();
  check_trace_file(path, 3);  // thread-name M + the span's B/E
  std::remove(path.c_str());
}

// The load-bearing invariant: obs must never perturb results. One shrunken
// scale-2k spec, run with metrics on / off / traced and across thread
// counts — the JSONL series (minus the wall-clock walk-timing field, which
// differs between any two runs) must be byte-identical.
TEST_F(ObsTest, RunsAreBitIdenticalAcrossObsModes) {
  auto run = [](bool metrics, const std::string& trace_path, std::size_t threads) {
    scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
    spec.num_clients = 30;
    spec.samples_per_client = 20;
    spec.rounds = 2;
    spec.threads = threads;
    spec.obs.metrics = metrics;
    spec.obs.trace = trace_path;
    return scenario::run_scenario(spec);
  };
  auto series_jsonl = [](const scenario::ScenarioResult& result) {
    std::ostringstream out;
    scenario::write_series_jsonl(result, out);
    return out.str();
  };

  const scenario::ScenarioResult baseline = run(true, "", 1);
  const std::string baseline_jsonl = series_jsonl(baseline);
  ASSERT_FALSE(baseline_jsonl.empty());
  EXPECT_TRUE(baseline.obs_enabled);
  EXPECT_GT(baseline.obs_totals.counter("tipsel.walks"), 0u);
  EXPECT_GT(baseline.obs_totals.counter("store.puts"), 0u);
  EXPECT_GT(baseline.obs_totals.histogram("tipsel.walk_steps").count, 0u);
  // scale-2k samples every walk's start by depth, each one timed.
  EXPECT_EQ(baseline.obs_totals.histogram("tipsel.start_us").count,
            baseline.obs_totals.counter("tipsel.walks"));
  EXPECT_EQ(baseline.obs_series.size(), baseline.series.size());

  const scenario::ScenarioResult off = run(false, "", 1);
  EXPECT_FALSE(off.obs_enabled);
  EXPECT_EQ(series_jsonl(off), baseline_jsonl);
  EXPECT_EQ(off.final_accuracy, baseline.final_accuracy);
  EXPECT_EQ(off.dag_size, baseline.dag_size);

  const std::string trace_path = ::testing::TempDir() + "test_obs_run.trace.json";
  const scenario::ScenarioResult traced = run(true, trace_path, 1);
  EXPECT_EQ(series_jsonl(traced), baseline_jsonl);
  EXPECT_EQ(traced.final_accuracy, baseline.final_accuracy);
  check_trace_file(trace_path, 10);
  std::remove(trace_path.c_str());

  for (std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
    const scenario::ScenarioResult parallel = run(true, "", threads);
    EXPECT_EQ(series_jsonl(parallel), baseline_jsonl) << "threads " << threads;
    EXPECT_EQ(parallel.final_accuracy, baseline.final_accuracy);
  }
}

// summary.perf is a view over the obs phase spans: its four buckets and its
// total equal the phase histograms' sums and the trace's span sums to the
// nanosecond, on both simulators and on the fused and scalar train paths.
TEST_F(ObsTest, PerfBucketsAreThePhaseSpanSums) {
  struct Case {
    const char* base;
    std::size_t batch;
    std::size_t threads;
  };
  for (const Case& c : {Case{"fmnist-clustered", 16, 1}, Case{"fmnist-clustered", 0, 2},
                        Case{"scale-2k", 16, 4}, Case{"scale-2k", 0, 1}}) {
    SCOPED_TRACE(std::string(c.base) + " batch " + std::to_string(c.batch));
    scenario::ScenarioSpec spec = scenario::get_scenario(c.base);
    spec.num_clients = 30;
    spec.samples_per_client = 20;
    spec.rounds = 3;
    spec.clients_per_round = 6;
    spec.threads = c.threads;
    spec.client.train.batch = c.batch;
    // Inline encoding puts encode.inline spans inside the commits.
    spec.store.delta = true;
    spec.store.async_encode = false;
    spec.obs.trace = ::testing::TempDir() + "test_obs_perf.trace.json";
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const SpanSums trace = span_sums(spec.obs.trace);
    std::remove(spec.obs.trace.c_str());

    const auto phase_ns = [&](const char* name) {
      return result.obs_totals.histogram(std::string("phase.") + name + "_ns").sum;
    };
    for (const char* name : {"tipsel", "tipsel.reference", "train", "exec.train", "eval",
                             "round", "advance", "encode.inline", "encode.async"}) {
      EXPECT_EQ(phase_ns(name), trace.of(name)) << name;
    }
    EXPECT_GT(trace.encode_in_commit_ns, 0u);
    EXPECT_EQ(phase_ns("commit"), trace.of("commit") - trace.encode_in_commit_ns);
    EXPECT_GT(trace.spans(c.batch > 0 ? "exec.train" : "train"), 0u);
    EXPECT_EQ(trace.spans(c.batch > 0 ? "train" : "exec.train"), 0u);

    const auto seconds = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
    const sim::PhaseTimings& perf = result.perf;
    EXPECT_EQ(perf.tipsel_seconds, seconds(phase_ns("tipsel") + phase_ns("tipsel.reference")));
    EXPECT_EQ(perf.train_seconds, seconds(phase_ns("train") + phase_ns("exec.train")));
    EXPECT_EQ(perf.eval_seconds, seconds(phase_ns("eval")));
    EXPECT_EQ(perf.commit_seconds, seconds(phase_ns("commit")));
    EXPECT_EQ(perf.total_seconds, seconds(phase_ns("round") + phase_ns("advance")));
    EXPECT_GT(perf.phase_sum_seconds(), 0.0);

    const scenario::Json json = scenario::result_to_json(result);
    const scenario::Json& perf_json = *json.find("summary")->find("perf");
    EXPECT_EQ(perf_json.find("tipsel_seconds")->as_number(), perf.tipsel_seconds);
    EXPECT_EQ(perf_json.find("train_seconds")->as_number(), perf.train_seconds);
    EXPECT_EQ(perf_json.find("eval_seconds")->as_number(), perf.eval_seconds);
    EXPECT_EQ(perf_json.find("commit_seconds")->as_number(), perf.commit_seconds);
    EXPECT_EQ(perf_json.find("total_seconds")->as_number(), perf.total_seconds);
    EXPECT_EQ(result.store_stats.encode_seconds,
              seconds(phase_ns("encode.inline") + phase_ns("encode.async")));
    EXPECT_EQ(perf_json.find("encode_seconds")->as_number(), result.store_stats.encode_seconds);
  }
}

// StoreStats::encode_seconds is a view over the encode.inline and
// encode.async spans of the context the store was built under. Read right
// after drain() it already holds the last encode, and it equals both the
// phase histograms and the trace's span sums exactly, for a bare store and
// for a scenario run's summary.perf (at 1 and 4 prepare threads),
// encoding inline or on the background worker.
TEST_F(ObsTest, StoreEncodeSecondsAreTheEncodeSpanSums) {
  const auto seconds = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const auto phase_ns = [](const obs::MetricsSnapshot& snapshot, const char* name) {
    return snapshot.histogram(std::string("phase.") + name + "_ns").sum;
  };
  const std::string path = ::testing::TempDir() + "test_obs_encode.trace.json";
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    const char* encoded_by = async ? "encode.async" : "encode.inline";
    const char* idle = async ? "encode.inline" : "encode.async";
    {
      obs::Context ctx;
      obs::ContextScope scope(&ctx);
      ctx.start_trace(path);
      store::StoreConfig config;
      config.async_encode = async;
      store::ModelStore store(config);
      nn::WeightVector current(512, 0.5f);
      Rng rng(3);
      std::vector<store::PayloadId> ids{
          store.put(std::make_shared<const nn::WeightVector>(current), {})};
      for (int i = 0; i < 40; ++i) {
        for (float& v : current) v += 1e-3f * static_cast<float>(rng.normal());
        ids.push_back(store.put(std::make_shared<const nn::WeightVector>(current),
                                {ids.back()}));
      }
      store.drain();
      const store::StoreStats stats = store.stats();
      const obs::MetricsSnapshot snapshot = ctx.snapshot();
      ASSERT_TRUE(ctx.stop_trace());
      const SpanSums trace = span_sums(path);
      std::remove(path.c_str());
      EXPECT_GT(trace.spans(encoded_by), 0u);
      EXPECT_EQ(trace.spans(idle), 0u);
      EXPECT_EQ(phase_ns(snapshot, encoded_by), trace.of(encoded_by));
      EXPECT_EQ(phase_ns(snapshot, idle), 0u);
      EXPECT_EQ(stats.encode_seconds, seconds(trace.of(encoded_by)));
      EXPECT_GT(stats.encode_seconds, 0.0);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
      spec.num_clients = 30;
      spec.samples_per_client = 20;
      spec.rounds = 3;
      spec.threads = threads;
      spec.store.delta = true;
      spec.store.async_encode = async;
      spec.obs.trace = path;
      const scenario::ScenarioResult result = scenario::run_scenario(spec);
      const SpanSums trace = span_sums(path);
      std::remove(path.c_str());
      EXPECT_GT(trace.spans(encoded_by), 0u);
      EXPECT_EQ(trace.spans(idle), 0u);
      const std::uint64_t encode_ns =
          phase_ns(result.obs_totals, "encode.inline") + phase_ns(result.obs_totals, "encode.async");
      EXPECT_EQ(encode_ns, trace.of("encode.inline") + trace.of("encode.async"));
      EXPECT_EQ(result.store_stats.encode_seconds, seconds(encode_ns));
      const scenario::Json json = scenario::result_to_json(result);
      EXPECT_EQ(json.find("summary")->find("perf")->find("encode_seconds")->as_number(),
                seconds(encode_ns));
    }
  }
}

// Delayed commits (visibility_delay_rounds > 0) enter the DAG in a later
// round's flush, each under its own commit span.
TEST_F(ObsTest, DelayedCommitsAreTimedUnderCommitSpans) {
  scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
  spec.num_clients = 6;
  spec.samples_per_client = 20;
  spec.rounds = 4;
  spec.clients_per_round = 3;
  spec.visibility_delay_rounds = 1;
  spec.store.delta = true;
  spec.store.async_encode = false;
  spec.obs.trace = ::testing::TempDir() + "test_obs_delay.trace.json";
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  const SpanSums trace = span_sums(spec.obs.trace);
  std::remove(spec.obs.trace.c_str());

  // Rounds 1..3 flush the 3 prepares of the round before; the last round's
  // stay pending.
  EXPECT_EQ(trace.spans("commit"), 9u);
  EXPECT_GT(result.perf.commits, 0u);
  EXPECT_GT(trace.encode_in_commit_ns, 0u);
  EXPECT_EQ(result.perf.commit_seconds,
            static_cast<double>(trace.of("commit") - trace.encode_in_commit_ns) * 1e-9);
}

// summary.obs serialization: present (with the catalog counters) when
// metrics are on, absent when off.
TEST_F(ObsTest, SummaryObsBlockFollowsTheSwitch) {
  auto run = [](bool metrics) {
    scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
    spec.num_clients = 6;
    spec.samples_per_client = 20;
    spec.rounds = 2;
    spec.clients_per_round = 3;
    spec.obs.metrics = metrics;
    return scenario::result_to_json(scenario::run_scenario(spec));
  };

  const scenario::Json with_obs = run(true);
  const scenario::Json* summary = with_obs.find("summary");
  ASSERT_NE(summary, nullptr);
  const scenario::Json* obs_block = summary->find("obs");
  ASSERT_NE(obs_block, nullptr);
  const scenario::Json* counters = obs_block->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("tipsel.walks"), nullptr);
  EXPECT_NE(counters->find("store.puts"), nullptr);
  const scenario::Json* rounds = obs_block->find("rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->as_array().size(), 2u);

  // summary.perf accounts for the whole wall clock: setup + simulate
  // (total) + finalize + unaccounted.
  const scenario::Json* perf = summary->find("perf");
  ASSERT_NE(perf, nullptr);
  double sum = 0.0;
  for (const char* name : {"setup_seconds", "total_seconds", "finalize_seconds",
                           "unaccounted_seconds"}) {
    ASSERT_NE(perf->find(name), nullptr) << name;
    EXPECT_GE(perf->find(name)->as_number(), 0.0) << name;
    sum += perf->find(name)->as_number();
  }
  EXPECT_GT(perf->find("setup_seconds")->as_number(), 0.0);
  EXPECT_GT(perf->find("finalize_seconds")->as_number(), 0.0);
  EXPECT_NEAR(sum, summary->find("wall_seconds")->as_number(), 1e-9);

  // Without metrics summary.perf keeps its counts and drops every
  // span-derived field, encode_seconds included.
  EXPECT_NE(perf->find("encode_seconds"), nullptr);
  const scenario::Json without_obs = run(false);
  EXPECT_EQ(without_obs.find("summary")->find("obs"), nullptr);
  const scenario::Json* counts = without_obs.find("summary")->find("perf");
  ASSERT_NE(counts, nullptr);
  for (const auto& [name, value] : counts->as_object()) {
    EXPECT_TRUE(name == "prepares" || name == "commits" || name == "threads") << name;
  }
  EXPECT_EQ(counts->find("prepares")->as_uint(), perf->find("prepares")->as_uint());
  EXPECT_EQ(counts->find("commits")->as_uint(), perf->find("commits")->as_uint());
}

// The obs spec block round-trips through JSON and defaults stay invisible
// (golden spec dumps must not change when obs is at its defaults).
TEST_F(ObsTest, ObsSpecRoundTripsThroughJson) {
  scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
  const scenario::Json defaults = scenario::spec_to_json(spec);
  EXPECT_EQ(defaults.find("obs"), nullptr);

  spec.obs.metrics = false;
  spec.obs.trace = "out.trace.json";
  spec.obs.metrics_out = "out.prom";
  const scenario::Json json = scenario::spec_to_json(spec);
  const scenario::Json* obs_json = json.find("obs");
  ASSERT_NE(obs_json, nullptr);
  const scenario::ScenarioSpec parsed = scenario::spec_from_json(json);
  EXPECT_FALSE(parsed.obs.metrics);
  EXPECT_EQ(parsed.obs.trace, "out.trace.json");
  EXPECT_EQ(parsed.obs.metrics_out, "out.prom");
}

}  // namespace
}  // namespace specdag

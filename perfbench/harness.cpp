// perfbench harness: runs one registry scenario through the library's public
// API in the scenario runner's sequence and prints one JSON object.
//
//   setup     the sim::*_preset / data::make_* dataset call ("data"), then
//             the DagSimulator / AsyncDagSimulator constructor ("core")
//   simulate  run_round() / run_until(u + 1) per unit ("unit"), then the
//             store's drain() barrier ("drain")
//   finalize  approval_pureness ("pureness"), build_client_graph + louvain
//             ("louvain"), dag_weight_summary ("weight_summary")
//
// The three phases are always timed (wall clock, steady_clock). With
// --traced the harness also records a span around every call above, keeps the
// spans in memory, reports each span's self time, and afterwards runs the
// layer probes on the end state (walks, local training, appends, the delta
// codec, cold materialization, a checkpoint write). Probes never count
// towards the phase times.
//
// Usage: perfbench_harness --scenario NAME --rounds N --seed S --threads T
//                         [--traced --scratch DIR]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "fl/trainer.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"
#include "nn/batch_executor.hpp"
#include "obs/context.hpp"
#include "scenario/attacks.hpp"
#include "scenario/config.hpp"
#include "scenario/registry.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/checkpoint.hpp"
#include "store/delta_codec.hpp"
#include "tensor/lanes.hpp"

namespace {

using namespace specdag;
using scenario::Json;
using Clock = std::chrono::steady_clock;

// Samples per probe: enough that the reported tail (see `add_samples`) is a
// real percentile rather than the maximum.
constexpr std::size_t kProbeSamples = 32;
constexpr std::size_t kTrainProbeReps = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// In-memory spans. Phase spans (level 0) are always recorded; call spans
// (level 1 and below) only when tracing is on.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Spans(bool traced) : traced_(traced) {}

  class Scope {
   public:
    Scope(Spans& spans, const char* name, bool phase = false)
        : spans_(spans), id_(phase || spans.traced_ ? spans.open(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) spans_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  double duration(const Span& span) const { return seconds_between(span.start, span.end); }

  // Total duration of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) sum += duration(span);
    }
    return sum;
  }

  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(duration(span));
    }
    return out;
  }

  // Self time of every span called `name`: its duration minus its children's.
  double self_time(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child[static_cast<std::size_t>(span.parent)] += duration(span);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += duration(spans_[i]) - child[i];
    }
    return sum;
  }

 private:
  int open(const char* name) {
    spans_.push_back({name, current_, Clock::now(), {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = Clock::now();
    current_ = span.parent;
  }

  bool traced_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// The scenario runner's dataset step (scenario/runner.cpp build_preset):
// the preset, then the size-override regeneration when the spec asks for one.
sim::ExperimentPreset build_preset(const scenario::ScenarioSpec& spec) {
  using scenario::DatasetPreset;
  const sim::PresetOptions options{spec.seed, spec.paper_scale};
  sim::ExperimentPreset preset;
  switch (spec.dataset) {
    case DatasetPreset::kFmnistClustered: preset = sim::fmnist_clustered_preset(options); break;
    case DatasetPreset::kFmnistRelaxed: preset = sim::fmnist_relaxed_preset(options); break;
    case DatasetPreset::kFmnistByAuthor: preset = sim::fmnist_by_author_preset(options); break;
    case DatasetPreset::kPoets: preset = sim::poets_preset(options); break;
    case DatasetPreset::kCifar: preset = sim::cifar_preset(options); break;
    case DatasetPreset::kFedproxSynthetic: preset = sim::fedprox_synthetic_preset(options); break;
  }
  if (spec.num_clients > 0 || spec.samples_per_client > 0) {
    if (spec.dataset == DatasetPreset::kFedproxSynthetic) {
      data::FedProxSyntheticConfig config;
      config.seed = spec.seed;
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      preset.dataset = data::make_fedprox_synthetic(config);
    } else {
      data::SyntheticDigitsConfig config;
      config.seed = spec.seed;
      if (spec.dataset == DatasetPreset::kFmnistRelaxed) {
        config.relax_min = 0.15;
        config.relax_max = 0.20;
      }
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      if (spec.samples_per_client > 0) config.samples_per_client = spec.samples_per_client;
      preset.dataset = spec.dataset == DatasetPreset::kFmnistByAuthor
                           ? data::make_fmnist_by_author(config)
                           : data::make_fmnist_clustered(config);
    }
  }
  return preset;
}

// Simulator construction exactly as the runner configures it.
template <typename Simulator>
std::unique_ptr<Simulator> make_simulator(const scenario::ScenarioSpec& spec,
                                          sim::ExperimentPreset& preset) {
  const std::size_t num_clients = preset.dataset.clients.size();
  if constexpr (std::is_same_v<Simulator, sim::DagSimulator>) {
    sim::SimulatorConfig config;
    config.client = spec.client;
    config.rounds = spec.rounds;
    config.clients_per_round = std::min(spec.clients_per_round, num_clients);
    config.parallel_prepare = spec.parallel_prepare;
    config.threads = spec.threads;
    config.visibility_delay_rounds = spec.visibility_delay_rounds;
    config.seed = spec.seed;
    config.store = spec.store;
    config.keep_history = false;
    return std::make_unique<Simulator>(std::move(preset.dataset), preset.factory, config);
  } else {
    sim::AsyncSimulatorConfig config;
    config.client = spec.client;
    config.broadcast_latency = spec.broadcast_latency;
    config.seed = spec.seed;
    config.threads = spec.parallel_prepare ? spec.threads : 1;
    config.store = spec.store;
    return std::make_unique<Simulator>(std::move(preset.dataset), preset.factory, config,
                                       std::vector<sim::AsyncClientProfile>(num_clients));
  }
}

// Mean trained accuracy of one simulation unit (the runner's series point).
double run_unit(sim::DagSimulator& simulator, std::size_t) {
  return simulator.run_round().mean_trained_accuracy();
}

double run_unit(sim::AsyncDagSimulator& simulator, std::size_t unit) {
  const std::vector<sim::AsyncStepRecord> records =
      simulator.run_until(static_cast<double>(unit + 1));
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& record : records) sum += record.result.trained_eval.accuracy;
  return sum / static_cast<double>(records.size());
}

// The runner's final_accuracy: mean over the last tenth of the series.
double tail_mean(const std::vector<double>& series) {
  if (series.empty()) return 0.0;
  const std::size_t tail = std::max<std::size_t>(1, series.size() / 10);
  double sum = 0.0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) sum += series[i];
  return sum / static_cast<double>(tail);
}

// Fixed ALU loop; its time tells a slow host apart from a slow change.
double calibration_seconds() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < (1u << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (x == 0) std::puts("");  // keeps the loop observable
  return elapsed;
}

// Median, tail and sample count. The tail is the highest percentile with at
// least ten samples above it; below 21 samples that percentile would not lie
// above the median, so the maximum is reported instead.
void add_samples(Json& out, const std::string& name, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  double p50 = 0.0, tail = 0.0;
  if (n > 0) {
    p50 = n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    tail = n > 20 ? samples[n - 11] : samples[n - 1];
  }
  out.set(name + ".p50", p50);
  out.set(name + ".tail", tail);
  out.set(name + ".n", static_cast<std::uint64_t>(n));
}

template <typename Fn>
double time_seconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

// ---------------------------------------------------------------- probes ---

// DagClient::prepare_walks for the first clients on the end-state DAG.
std::vector<double> probe_prepare_walks(core::SpecializingDag& net) {
  std::vector<double> us;
  const std::size_t n = std::min(kProbeSamples, net.num_clients());
  for (std::size_t h = 0; h < n; ++h) {
    fl::DagClient& client = net.client(static_cast<int>(h));
    us.push_back(1e6 * time_seconds([&] { client.prepare_walks(net.dag()); }));
  }
  return us;
}

// Per-lane local-training time at `lanes` clients per call, starting from the
// newest transaction's payload. Fused through train_local_batched when the
// architecture supports it, else the scalar per-client path the simulators
// fall back to.
std::vector<double> probe_train_lane_ms(const data::FederatedDataset& dataset,
                                        const nn::ModelFactory& factory,
                                        const fl::TrainConfig& train, const dag::Dag& dag,
                                        std::size_t lanes) {
  const nn::WeightVector start = *dag.weights(dag.size() - 1);
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < lanes; ++i) rngs.emplace_back(0xBE7C00 + i);
  const auto client_of = [&](std::size_t i) {
    return &dataset.clients[i % dataset.clients.size()];
  };
  std::vector<double> ms;
  if (nn::BatchExecutor::architecture_supported(factory)) {
    nn::BatchExecutor exec(factory);
    for (std::size_t rep = 0; rep < kTrainProbeReps; ++rep) {
      std::vector<fl::BatchTrainLane> batch(lanes);
      for (std::size_t i = 0; i < lanes; ++i) {
        batch[i].client = client_of(i);
        batch[i].start = &start;
        batch[i].rng = &rngs[i];
      }
      ms.push_back(1e3 * time_seconds([&] { fl::train_local_batched(exec, batch, train); }) /
                   static_cast<double>(lanes));
    }
  } else {
    nn::Sequential model = factory();
    for (std::size_t rep = 0; rep < kTrainProbeReps; ++rep) {
      ms.push_back(1e3 * time_seconds([&] {
                     for (std::size_t i = 0; i < lanes; ++i) {
                       model.set_weights(start);
                       fl::train_local_sgd(model, *client_of(i), train, rngs[i]);
                     }
                   }) /
                   static_cast<double>(lanes));
    }
  }
  return ms;
}

// Delta codec throughput (MB of float payload per second) over pairs of
// (transaction payload, first parent payload) on the end-state DAG.
void probe_codec(const dag::Dag& dag, Json& out) {
  std::vector<std::pair<store::WeightsPtr, store::WeightsPtr>> pairs;
  const std::size_t stride = std::max<std::size_t>(1, (dag.size() - 1) / kProbeSamples);
  for (dag::TxId id = 1; id < dag.size() && pairs.size() < kProbeSamples; id += stride) {
    pairs.emplace_back(dag.weights(id), dag.weights(dag.parents(id).front()));
  }
  double bytes = 0.0;
  std::vector<std::vector<std::uint8_t>> encoded(pairs.size());
  const double encode_s = time_seconds([&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const nn::WeightVector& target = *pairs[i].first;
      encoded[i] = store::encode_delta(target.data(), pairs[i].second->data(), target.size());
      bytes += static_cast<double>(target.size() * sizeof(float));
    }
  });
  nn::WeightVector decoded;
  const double decode_s = time_seconds([&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      decoded.resize(pairs[i].first->size());
      store::decode_delta(encoded[i].data(), encoded[i].size(), pairs[i].second->data(),
                          decoded.data(), decoded.size());
    }
  });
  out.set("store.encode_mb_s", bytes / 1e6 / encode_s);
  out.set("store.decode_mb_s", bytes / 1e6 / decode_s);
}

// First access to payloads spread over the DAG, oldest first (the entries
// least likely to sit in the materialization LRU).
std::vector<double> probe_materialize(const dag::Dag& dag) {
  std::vector<double> us;
  const std::size_t stride = std::max<std::size_t>(1, (dag.size() - 1) / kProbeSamples);
  for (dag::TxId id = 1; id < dag.size() && us.size() < kProbeSamples; id += stride) {
    us.push_back(1e6 * time_seconds([&] { dag.weights(id); }));
  }
  return us;
}

// Dag::add_transaction on the end state: each append approves the two
// lowest-id tips with a fresh (perturbed) copy of the first tip's payload.
std::vector<double> probe_append(dag::Dag& dag, std::size_t round) {
  std::vector<double> us;
  for (std::size_t i = 0; i < kProbeSamples; ++i) {
    std::vector<dag::TxId> tips = dag.tips();
    std::sort(tips.begin(), tips.end());
    tips.resize(std::min<std::size_t>(2, tips.size()));
    auto weights = std::make_shared<nn::WeightVector>(*dag.weights(tips.front()));
    (*weights)[i % weights->size()] += 1e-3f;
    us.push_back(1e6 * time_seconds([&] { dag.add_transaction(tips, weights, 0, round); }));
  }
  dag.store().drain();
  return us;
}

template <typename Simulator>
void run_probes(const scenario::ScenarioSpec& spec, Simulator& simulator,
                const nn::ModelFactory& factory, const std::string& scratch, Json& layers) {
  core::SpecializingDag& net = simulator.network();
  // First, while no probe has touched the payloads yet.
  add_samples(layers, "store.materialize_cold_us", probe_materialize(net.dag()));
  add_samples(layers, "tipsel.prepare_walks_us", probe_prepare_walks(net));
  const std::size_t batch = std::max<std::size_t>(1, spec.client.train.batch);
  add_samples(layers, "fl.train_lane_ms.k1",
              probe_train_lane_ms(simulator.dataset(), factory, spec.client.train, net.dag(), 1));
  add_samples(layers, "fl.train_lane_ms.kmax",
              probe_train_lane_ms(simulator.dataset(), factory, spec.client.train, net.dag(),
                                  batch));
  probe_codec(net.dag(), layers);

  std::filesystem::create_directories(scratch);
  const std::string path = snapshot::checkpoint_path(scratch, spec.rounds);
  scenario::AttackController attacks(spec.attacks, spec.seed, simulator.dataset().clients.size());
  const scenario::ScenarioResult partial;
  layers.set("snapshot.write_s", time_seconds([&] {
               snapshot::write_checkpoint(path, spec, spec.rounds, partial, simulator, attacks);
             }));
  layers.set("snapshot.mb",
             static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0));
  std::filesystem::remove(path);

  add_samples(layers, "dag.append_us", probe_append(net.dag(), spec.rounds + 1));
}

// ------------------------------------------------------------------ run ---

struct Options {
  std::string scenario;
  std::size_t rounds = 0;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  bool traced = false;
  std::string scratch;
};

template <typename Simulator>
Json run(const scenario::ScenarioSpec& spec, const Options& options) {
  Json out = Json::make_object();
  const double calibration_s = calibration_seconds();

  // The runner's obs session: a fresh context with metrics on, no trace file.
  obs::Context context(spec.obs.metrics);
  obs::ContextScope context_scope(&context);
  Spans spans(options.traced);
  Json layers = Json::make_object();
  std::vector<double> series;
  std::unique_ptr<Simulator> simulator;
  nn::ModelFactory factory;
  double pureness = 0.0;
  metrics::LouvainResult louvain;
  metrics::DagWeightSummary weights;
  store::StoreStats store_stats;

  const Clock::time_point wall_start = Clock::now();
  {
    Spans::Scope phase(spans, "setup", true);
    sim::ExperimentPreset preset;
    {
      Spans::Scope call(spans, "data");
      preset = build_preset(spec);
    }
    factory = preset.factory;
    Spans::Scope call(spans, "core");
    simulator = make_simulator<Simulator>(spec, preset);
  }
  {
    Spans::Scope phase(spans, "simulate", true);
    for (std::size_t unit = 0; unit < spec.rounds; ++unit) {
      Spans::Scope call(spans, "unit");
      series.push_back(run_unit(*simulator, unit));
    }
    Spans::Scope call(spans, "drain");
    simulator->dag().store().drain();
  }
  {
    Spans::Scope phase(spans, "finalize", true);
    const dag::Dag& dag = simulator->dag();
    const data::FederatedDataset& dataset = simulator->dataset();
    std::vector<int> true_clusters;
    for (const auto& client : dataset.clients) true_clusters.push_back(client.true_cluster);
    {
      Spans::Scope call(spans, "pureness");
      pureness = metrics::approval_pureness(dag, true_clusters).pureness;
    }
    {
      Spans::Scope call(spans, "louvain");
      const metrics::ClientGraph graph = metrics::build_client_graph(dag, dataset.clients.size());
      Rng louvain_rng = Rng(spec.seed).fork(0x10CA);
      louvain = metrics::louvain(graph, louvain_rng);
    }
    {
      Spans::Scope call(spans, "weight_summary");
      weights = metrics::dag_weight_summary(dag);
    }
    store_stats = dag.store().stats();
  }
  const double wall_s = seconds_between(wall_start, Clock::now());
  rusage usage{};  // whole process, all threads; taken before any probe runs
  getrusage(RUSAGE_SELF, &usage);
  const auto voluntary_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
  const sim::PhaseTimings& perf = simulator->perf();

  Json fingerprint = Json::make_object();
  fingerprint.set("dag_size", simulator->dag().size());
  fingerprint.set("final_accuracy", tail_mean(series));
  fingerprint.set("pureness", pureness);
  fingerprint.set("modularity", louvain.modularity);
  fingerprint.set("communities", louvain.num_communities);
  fingerprint.set("tips", weights.tips);
  fingerprint.set("delta_ratio", store_stats.delta_ratio());
  fingerprint.set("sim.steps", perf.prepares);
  fingerprint.set("sim.commits", perf.commits);
  out.set("fingerprint", std::move(fingerprint));

  const double setup_s = spans.total("setup");
  const double simulate_s = spans.total("simulate");
  const double finalize_s = spans.total("finalize");
  Json phases = Json::make_object();
  phases.set("wall_s", wall_s);
  phases.set("setup_s", setup_s);
  phases.set("simulate_s", simulate_s);
  phases.set("finalize_s", finalize_s);
  phases.set("steps_per_s", static_cast<double>(perf.prepares) / simulate_s);
  phases.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);  // KiB -> MiB
  out.set("phases", std::move(phases));

  Json host = Json::make_object();
  host.set("calibration_s", calibration_s);
  host.set("tensor_backend", lanes::backend());
  host.set("codec_backend", store::delta_codec_backend());
  host.set("prepare_threads", simulator->prepare_threads());
  host.set("voluntary_switches", voluntary_switches);
  host.set("involuntary_switches", static_cast<std::uint64_t>(usage.ru_nivcsw));
  out.set("host", std::move(host));

  if (options.traced) {
    const obs::MetricsSnapshot totals = context.snapshot();
    const auto counter = [&](const char* name) {
      return static_cast<double>(totals.counter(name));
    };
    layers.set("unaccounted_s", wall_s - (setup_s + simulate_s + finalize_s));
    layers.set("setup.self_s", spans.self_time("setup"));
    layers.set("simulate.self_s", spans.self_time("simulate"));
    layers.set("finalize.self_s", spans.self_time("finalize"));
    layers.set("data.generate_s", spans.total("data"));
    layers.set("core.construct_s", spans.total("core"));
    layers.set("sim.simulate_s", simulate_s);
    std::vector<double> units = spans.durations("unit");
    layers.set("sim.unit_s.max",
               units.empty() ? 0.0 : *std::max_element(units.begin(), units.end()));
    add_samples(layers, "sim.unit_s", std::move(units));
    layers.set("sim.steps", perf.prepares);
    layers.set("sim.commits", perf.commits);
    layers.set("tipsel.busy_s", perf.tipsel_seconds);
    layers.set("tipsel.walks", counter("tipsel.walks"));
    layers.set("tipsel.walk_steps", totals.histogram("tipsel.walk_steps").sum);
    layers.set("tipsel.evaluations", counter("tipsel.evaluations"));
    layers.set("fl.train_busy_s", perf.train_seconds);
    layers.set("fl.eval_busy_s", perf.eval_seconds);
    const double batches = counter("train.batches");
    layers.set("fl.lanes_per_batch", batches > 0 ? counter("train.fused_lanes") / batches : 0.0);
    layers.set("dag.commit_busy_s", perf.commit_seconds);
    layers.set("store.encode_busy_s", store_stats.encode_seconds);
    layers.set("store.drain_s", spans.total("drain"));
    layers.set("store.puts", counter("store.puts"));
    layers.set("store.decodes", counter("store.decodes"));
    layers.set("store.lru_hit_rate", store_stats.lru_hit_rate());
    layers.set("store.resident_mb",
               static_cast<double>(store_stats.resident_payload_bytes) / (1024.0 * 1024.0));
    layers.set("store.delta_ratio", store_stats.delta_ratio());
    layers.set("util.pool_busy_s", counter("pool.prepare.busy_nanos") * 1e-9);
    layers.set("util.pool_idle_s", counter("pool.prepare.idle_nanos") * 1e-9);
    const obs::HistogramSnapshot wait = totals.histogram("pool.prepare.task_wait_us");
    layers.set("util.pool_task_wait_us.p50", wait.quantile_upper_bound(0.5));
    layers.set("util.pool_task_wait_us.p99", wait.quantile_upper_bound(0.99));
    layers.set("util.voluntary_switches", voluntary_switches);
    layers.set("metrics.pureness_s", spans.total("pureness"));
    layers.set("metrics.louvain_s", spans.total("louvain"));
    layers.set("metrics.weight_summary_s", spans.total("weight_summary"));
    run_probes(spec, *simulator, factory, options.scratch, layers);
    out.set("layers", std::move(layers));
  }
  simulator.reset();
  context.close();
  return out;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--scenario") {
      options.scenario = next();
    } else if (flag == "--rounds") {
      options.rounds = std::stoull(next());
    } else if (flag == "--seed") {
      options.seed = std::stoull(next());
    } else if (flag == "--threads") {
      options.threads = std::stoull(next());
    } else if (flag == "--traced") {
      options.traced = true;
    } else if (flag == "--scratch") {
      options.scratch = next();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.scenario.empty()) throw std::invalid_argument("--scenario is required");
  if (options.traced && options.scratch.empty()) {
    throw std::invalid_argument("--traced needs --scratch DIR for the checkpoint probe");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    scenario::ScenarioSpec spec = scenario::get_scenario(options.scenario);
    if (options.rounds > 0) spec.rounds = options.rounds;
    spec.seed = options.seed;
    spec.threads = options.threads;
    spec.validate();
    if (spec.algorithm != scenario::AlgorithmKind::kDag || spec.dynamics.churn.enabled() ||
        spec.dynamics.stragglers.enabled() || spec.dynamics.partition.enabled() ||
        spec.attacks.any() || spec.evaluate_consensus ||
        spec.community_metrics_every > 0) {
      throw std::invalid_argument("perfbench drives plain DAG scenarios only: " + spec.name);
    }
    const Json out = spec.simulator == scenario::SimKind::kRound
                         ? run<sim::DagSimulator>(spec, options)
                         : run<sim::AsyncDagSimulator>(spec, options);
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}

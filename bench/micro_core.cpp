// Microbenchmarks (google-benchmark) for the hot paths of the system:
// dense/conv kernels, LSTM steps, weight averaging, model evaluation (the
// per-step cost of the biased walk), tip selection, and Louvain.
#include <benchmark/benchmark.h>

#include <memory>

#include "data/synthetic_digits.hpp"
#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "metrics/client_graph.hpp"
#include "nn/batch_executor.hpp"
#include "metrics/community.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/delta_codec.hpp"
#include "sim/models.hpp"
#include "tensor/lanes.hpp"
#include "tensor/ops.hpp"
#include "tipsel/tip_selector.hpp"

namespace {

using namespace specdag;

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = random_tensor({n, n}, rng);
  const Tensor b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  const Tensor input = random_tensor({8, 1, 16, 16}, rng);
  Conv2dSpec spec{1, 16, 5, 1, 2};
  const Tensor filters = random_tensor({16, 25}, rng);
  const Tensor bias({16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_forward(input, filters, bias, spec));
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_DenseForwardBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Dense layer(256, 128);
  layer.init_params(rng);
  const Tensor input = random_tensor({10, 256}, rng);
  for (auto _ : state) {
    Tensor out = layer.forward(input, true);
    benchmark::DoNotOptimize(layer.backward(out));
  }
}
BENCHMARK(BM_DenseForwardBackward);

void BM_LstmForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::LSTM lstm(8, 24);
  lstm.init_params(rng);
  const Tensor input = random_tensor({10, 10, 8}, rng);
  for (auto _ : state) {
    Tensor out = lstm.forward(input, true);
    benchmark::DoNotOptimize(lstm.backward(out));
  }
}
BENCHMARK(BM_LstmForwardBackward);

// The LSTM's gate nonlinearities at the forward's call width (hidden 24):
// one dispatched call over range(0) gate values in [-4, 4].
template <void (*Kernel)(const float*, float*, std::size_t)>
void BM_GateNonlinearity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<float> x(n), y(n);
  for (float& v : x) v = static_cast<float>(rng.uniform(-4.0, 4.0));
  for (auto _ : state) {
    Kernel(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
void BM_Sigmoid(benchmark::State& state) { BM_GateNonlinearity<lanes::sigmoid>(state); }
void BM_Tanh(benchmark::State& state) { BM_GateNonlinearity<lanes::tanh>(state); }
BENCHMARK(BM_Sigmoid)->Arg(24);
BENCHMARK(BM_Tanh)->Arg(24);

// The paper's Poets LSTM layer: embedding 8 -> 256 units, sequences of 80,
// batch 10.
void BM_LstmPaperForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::LSTM lstm(8, 256);
  lstm.init_params(rng);
  const Tensor input = random_tensor({10, 80, 8}, rng);
  for (auto _ : state) {
    Tensor out = lstm.forward(input, true);
    benchmark::DoNotOptimize(lstm.backward(out));
  }
}
BENCHMARK(BM_LstmPaperForwardBackward)->Unit(benchmark::kMillisecond);

void BM_AverageWeights(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  nn::WeightVector a(n), b(n);
  for (auto& v : a) v = static_cast<float>(rng.uniform());
  for (auto& v : b) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::average_weights(a, b));
  }
}
BENCHMARK(BM_AverageWeights)->Arg(10'000)->Arg(1'000'000);

// The unit cost of one walk step: the accuracy-only evaluation of a
// candidate model on a client's local test data, on the fig15-scalability
// shape (16x16 images, 80 samples per client, so 8 test samples, and the
// 256 -> 32 -> 10 MLP).
void BM_WalkStepEvaluation(benchmark::State& state) {
  data::SyntheticDigitsConfig config;
  config.num_clients = 3;
  config.samples_per_client = 80;
  config.image_size = 16;
  const auto ds = data::make_fmnist_by_author(config);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 32, 10);
  nn::Sequential model = factory();
  Rng rng(6);
  model.init_params(rng);
  const nn::WeightVector weights = model.get_weights();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::accuracy_on_test(model, weights, ds.clients[0]));
  }
}
BENCHMARK(BM_WalkStepEvaluation);

// --- fused batch executor -------------------------------------------------

data::FederatedDataset batch_exec_dataset(std::size_t num_clients,
                                          std::size_t samples_per_client) {
  data::SyntheticDigitsConfig config;
  config.num_clients = num_clients;
  config.samples_per_client = samples_per_client;
  config.image_size = 16;  // matches the scale-2k MLP (256 -> 32 -> 10)
  return data::make_fmnist_clustered(config);
}

// One fused train step (1 epoch x 1 batch of 10, the scale-2k schedule)
// across K lanes, including the SoA import/export of every lane's weights.
void BM_BatchedTrainStep(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto ds = batch_exec_dataset(k, 30);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 32, 10);
  nn::BatchExecutor exec(factory);
  std::vector<nn::WeightVector> starts(k);
  for (std::size_t i = 0; i < k; ++i) {
    nn::Sequential model = factory();
    Rng init_rng(100 + i);
    model.init_params(init_rng);
    starts[i] = model.get_weights();
  }
  std::vector<Rng> rngs(k, Rng(9));
  fl::TrainConfig train{1, 1, 10, 0.0005};
  for (auto _ : state) {
    std::vector<fl::BatchTrainLane> lanes(k);
    for (std::size_t l = 0; l < k; ++l) {
      lanes[l].client = &ds.clients[l];
      lanes[l].start = &starts[l];
      lanes[l].rng = &rngs[l];
    }
    fl::train_local_batched(exec, lanes, train);
    benchmark::DoNotOptimize(lanes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_BatchedTrainStep)->Arg(1)->Arg(2)->Arg(4)->Arg(16);

// K right-hand sides against one shared left operand. matmul_multi_rhs is a
// loop of matmul_into over the lanes; the row stays as a kernel-ladder rung.
void BM_MatmulMultiRhs(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 30, kk = 256, n = 32;
  Rng rng(11);
  std::vector<float> a(m * kk);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::vector<float>> bs(k, std::vector<float>(kk * n));
  std::vector<std::vector<float>> cs(k, std::vector<float>(m * n));
  std::vector<const float*> bptr(k);
  std::vector<float*> cptr(k);
  for (std::size_t l = 0; l < k; ++l) {
    for (auto& v : bs[l]) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    bptr[l] = bs[l].data();
    cptr[l] = cs[l].data();
  }
  for (auto _ : state) {
    matmul_multi_rhs(a.data(), bptr.data(), cptr.data(), k, m, kk, n);
    benchmark::DoNotOptimize(cs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * m * kk * n));
}
BENCHMARK(BM_MatmulMultiRhs)->Arg(1)->Arg(4)->Arg(16);

// Full accuracy-biased tip selection on a pre-built DAG of the given size.
void BM_AccuracyTipSelection(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  dag::Dag dag(nn::WeightVector{0.5f});
  Rng build_rng(7);
  for (std::size_t i = 1; i < dag_size; ++i) {
    const std::size_t parents_count = std::min<std::size_t>(2, dag.size());
    const auto parent_idx = build_rng.sample_without_replacement(dag.size(), parents_count);
    dag.add_transaction({parent_idx.begin(), parent_idx.end()},
                        std::make_shared<const nn::WeightVector>(
                            nn::WeightVector{static_cast<float>(build_rng.uniform())}),
                        static_cast<int>(i % 10), i);
  }
  tipsel::AccuracyTipSelector selector(
      10.0, tipsel::Normalization::kStandard,
      [](const nn::WeightVector& w) { return static_cast<double>(w[0]); });
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select_tips(dag, 2, rng));
  }
}
BENCHMARK(BM_AccuracyTipSelection)->Arg(100)->Arg(1000);

void BM_Louvain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng build_rng(9);
  metrics::ClientGraph graph(n);
  for (std::size_t e = 0; e < n * 6; ++e) {
    const std::size_t a = build_rng.index(n);
    const std::size_t b = build_rng.index(n);
    if (a != b) graph.add_weight(a, b, 1.0);
  }
  for (auto _ : state) {
    Rng rng(10);
    benchmark::DoNotOptimize(metrics::louvain(graph, rng));
  }
}
BENCHMARK(BM_Louvain)->Arg(30)->Arg(100);

// Builds a random 2-parent DAG of `size` transactions (tiny payloads).
// Dag is neither copyable nor movable, hence the unique_ptr.
std::unique_ptr<dag::Dag> build_random_dag(std::size_t size, std::uint64_t seed) {
  auto dag = std::make_unique<dag::Dag>(nn::WeightVector{0.0f});
  Rng build_rng(seed);
  for (std::size_t i = 1; i < size; ++i) {
    const std::size_t parents_count = std::min<std::size_t>(2, dag->size());
    const auto parent_idx = build_rng.sample_without_replacement(dag->size(), parents_count);
    dag->add_transaction({parent_idx.begin(), parent_idx.end()},
                         std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                         static_cast<int>(i % 10), i);
  }
  return dag;
}

// Append cost including the incremental weight-index maintenance (one
// past-cone BFS per append). Each iteration appends a 64-transaction slab
// onto a DAG pre-grown to the argument size.
void BM_DagAppend(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSlab = 64;
  std::uint64_t rebuild = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto dag = build_random_dag(dag_size, 13 + rebuild++);
    Rng rng(21);
    state.ResumeTiming();
    for (std::size_t i = 0; i < kSlab; ++i) {
      const auto parent_idx = rng.sample_without_replacement(dag->size(), 2);
      dag->add_transaction({parent_idx.begin(), parent_idx.end()},
                           std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                           0, dag_size + i);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSlab));
}
BENCHMARK(BM_DagAppend)->Arg(1000)->Arg(5000);

// Weighted (cumulative-weight biased) tip selection on a large pre-built
// DAG — the Algorithm-1 hot path the incremental index accelerates. The
// acceptance target: >= 10x over the per-walk bit-parallel sweep at 5000+
// transactions (compare BENCH_PR4.json against the previous trajectory
// point).
void BM_SelectTipsLargeDag(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  const auto dag = build_random_dag(dag_size, 14);
  tipsel::WeightedTipSelector selector(0.5);
  Rng rng(22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select_tips(*dag, 2, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SelectTipsLargeDag)->Arg(1000)->Arg(5000)->Arg(10000);

// A wide DAG shaped like scale-2k's (over 70% tips) that is still deep
// enough for 15-25 depth-sampled walk starts: a core of kGenerations
// generations kWidth transactions wide, where transaction j of a generation
// approves transaction j of the previous one plus one other at random (so
// no core transaction stays a tip), topped by leaves that each approve two
// random transactions of the top generation. `append_leaf` adds one more.
constexpr std::size_t kWidth = 24;
constexpr std::size_t kGenerations = 48;

void append_leaf(dag::Dag& dag, Rng& rng) {
  const std::size_t top = 1 + (kGenerations - 1) * kWidth;
  const auto picks = rng.sample_without_replacement(kWidth, 2);
  dag.add_transaction({top + picks[0], top + picks[1]},
                      std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                      static_cast<int>(dag.size() % 10), dag.size());
}

std::unique_ptr<dag::Dag> build_wide_dag(std::size_t size, std::uint64_t seed) {
  auto dag = std::make_unique<dag::Dag>(nn::WeightVector{0.0f});
  Rng rng(seed);
  for (std::size_t g = 0; g < kGenerations; ++g) {
    for (std::size_t j = 0; j < kWidth; ++j) {
      std::vector<dag::TxId> parents{dag::kGenesisTx};
      if (g > 0) {
        const dag::TxId previous = 1 + (g - 1) * kWidth;
        const std::size_t other = (j + 1 + rng.index(kWidth - 1)) % kWidth;
        parents = {previous + j, previous + other};
      }
      dag->add_transaction(std::move(parents),
                           std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                           static_cast<int>(j % 10), g);
    }
  }
  while (dag->size() < size) append_leaf(*dag, rng);
  return dag;
}

// Depth-sampled weighted selection right after an append, rotating over many
// per-client selectors: the scale-2k walk side. BM_SelectTipsLargeDag walks a
// static DAG from genesis, so it misses what an append costs the next walk
// (the walk-start depth index is rebuilt once per append). One iteration is
// one append plus a two-walk select_tips; the DAG is rebuilt (untimed) every
// 512 appends so it stays near the argument size.
void BM_SelectTipsAfterAppend(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSelectors = 256;
  constexpr std::size_t kAppendsPerDag = 512;
  std::vector<tipsel::WeightedTipSelector> selectors(kSelectors, tipsel::WeightedTipSelector(1.0));
  for (auto& selector : selectors) selector.set_walk_start(tipsel::WalkStart::kDepthSampled);
  std::unique_ptr<dag::Dag> dag;
  Rng rng(23);
  std::size_t appends = 0;
  for (auto _ : state) {
    if (appends++ % kAppendsPerDag == 0) {
      state.PauseTiming();
      dag = build_wide_dag(dag_size, 15);
      state.ResumeTiming();
    }
    append_leaf(*dag, rng);
    benchmark::DoNotOptimize(selectors[appends % kSelectors].select_tips(*dag, 2, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SelectTipsAfterAppend)->Arg(5000);

// The same workload against the retained bit-parallel sweep oracle: the
// before/after pair BENCH_PR4.json records for the 10x acceptance check.
void BM_CumulativeWeightsSweepReference(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  const auto dag = build_random_dag(dag_size, 14);
  std::vector<std::size_t> weights;
  std::vector<std::uint64_t> reach;
  for (auto _ : state) {
    dag->cumulative_weights_reference_into(weights, reach);
    benchmark::DoNotOptimize(weights.data());
  }
}
BENCHMARK(BM_CumulativeWeightsSweepReference)->Arg(1000)->Arg(5000)->Arg(10000);

void BM_CumulativeWeight(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  dag::Dag dag(nn::WeightVector{0.0f});
  Rng build_rng(11);
  for (std::size_t i = 1; i < dag_size; ++i) {
    const std::size_t parents_count = std::min<std::size_t>(2, dag.size());
    const auto parent_idx = build_rng.sample_without_replacement(dag.size(), parents_count);
    dag.add_transaction({parent_idx.begin(), parent_idx.end()},
                        std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                        0, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.cumulative_weight(dag::kGenesisTx));
  }
}
BENCHMARK(BM_CumulativeWeight)->Arg(1000);

// The whole-DAG table (bit-parallel) vs one BFS per transaction: this is
// the metrics-path workload dag_weight_summary runs per scenario.
void BM_CumulativeWeightsAll(benchmark::State& state) {
  const auto dag_size = static_cast<std::size_t>(state.range(0));
  dag::Dag dag(nn::WeightVector{0.0f});
  Rng build_rng(12);
  for (std::size_t i = 1; i < dag_size; ++i) {
    const std::size_t parents_count = std::min<std::size_t>(2, dag.size());
    const auto parent_idx = build_rng.sample_without_replacement(dag.size(), parents_count);
    dag.add_transaction({parent_idx.begin(), parent_idx.end()},
                        std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f}),
                        0, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.cumulative_weights_all());
  }
}
BENCHMARK(BM_CumulativeWeightsAll)->Arg(1000);

// ----------------------------------------------------------- delta codec ---

// One converged-style payload pair: a small local update on a shared base.
void make_codec_payload(std::size_t n, nn::WeightVector& base, nn::WeightVector& values) {
  Rng rng(0xC0DEC);
  base.resize(n);
  values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    base[i] = static_cast<float>(rng.normal(0.0, 0.1));
    // ~30% untouched weights (zero xor words) as converged updates show.
    values[i] = rng.uniform() < 0.3
                    ? base[i]
                    : base[i] + static_cast<float>(rng.normal(0.0, 1e-4));
  }
}

void BM_EncodeDelta(benchmark::State& state) {
  nn::WeightVector base, values;
  make_codec_payload(static_cast<std::size_t>(state.range(0)), base, values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::encode_delta(values.data(), base.data(), values.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncodeDelta)->Arg(100'000);

void BM_EncodeDeltaScalar(benchmark::State& state) {
  nn::WeightVector base, values;
  make_codec_payload(static_cast<std::size_t>(state.range(0)), base, values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::encode_delta_scalar(values.data(), base.data(), values.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncodeDeltaScalar)->Arg(100'000);

void BM_DecodeDelta(benchmark::State& state) {
  nn::WeightVector base, values;
  make_codec_payload(static_cast<std::size_t>(state.range(0)), base, values);
  const std::vector<std::uint8_t> encoded =
      store::encode_delta(values.data(), base.data(), values.size());
  nn::WeightVector out(values.size());
  for (auto _ : state) {
    store::decode_delta(encoded.data(), encoded.size(), base.data(), out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DecodeDelta)->Arg(100'000);

void BM_DecodeDeltaScalar(benchmark::State& state) {
  nn::WeightVector base, values;
  make_codec_payload(static_cast<std::size_t>(state.range(0)), base, values);
  const std::vector<std::uint8_t> encoded =
      store::encode_delta(values.data(), base.data(), values.size());
  nn::WeightVector out(values.size());
  for (auto _ : state) {
    store::decode_delta_scalar(encoded.data(), encoded.size(), base.data(), out.data(),
                               out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DecodeDeltaScalar)->Arg(100'000);

// --------------------------------------------------------------- normals ---

// One synthetic-digits image's pixel noise (256 draws at its noise stddev)
// in one bulk fill; BM_NormalLoop draws the same values one
// std::normal_distribution at a time, as Rng::normal does.
void BM_NormalFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> out(n);
  for (auto _ : state) {
    rng.fill_normal(out.data(), n, 0.0, 0.25);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(normal_fill::backend());
}
BENCHMARK(BM_NormalFill)->Arg(256);

void BM_NormalLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> out(n);
  for (auto _ : state) {
    for (double& v : out) v = rng.normal(0.0, 0.25);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_NormalLoop)->Arg(256);

// ------------------------------------------------------------------- obs ---

// One registered-counter increment: the marginal cost of leaving metrics on
// (ISSUE 6 budget: a few ns — one relaxed flag load + one sharded relaxed
// fetch_add).
void BM_CounterIncrement(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Counter& counter = obs::Registry::counter("bench.counter_increment");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncrement)->Threads(1)->Threads(4);

void BM_CounterIncrementDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  obs::Counter& counter = obs::Registry::counter("bench.counter_increment");
  for (auto _ : state) {
    counter.add();
  }
  obs::set_metrics_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncrementDisabled);

void BM_HistogramRecord(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Histogram& histogram = obs::Registry::histogram("bench.histogram_record");
  std::uint64_t value = 0;
  for (auto _ : state) {
    histogram.record(value++ & 0xFFFF);
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

// Construct+destroy a ScopedSpan with tracing off — the cost every
// instrumented scope pays in a normal (untraced) run.
void BM_ScopedSpanUntraced(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span", {{"i", 1}});
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedSpanUntraced);

// The same scope with an active session: buffer append under the global
// trace mutex (opt-in diagnostic mode, so a lock is acceptable here).
void BM_ScopedSpan(benchmark::State& state) {
  if (state.thread_index() == 0) {
    obs::start_trace("/dev/null");
  }
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span", {{"i", 1}});
    benchmark::DoNotOptimize(&span);
  }
  if (state.thread_index() == 0) {
    obs::stop_trace();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedSpan)->Threads(1)->Threads(4);

// Context::current() through the thread-local — the lookup every
// instrumented call site pays before touching a cell (ISSUE 7 budget: this
// must stay off the hot path's critical dependency chain, ~1 ns).
void BM_ContextLookupCached(benchmark::State& state) {
  obs::Context ctx;
  obs::ContextScope scope(&ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&obs::Context::current());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContextLookupCached);

// Install + restore a ContextScope — the per-task overhead ThreadPool adds
// to propagate the poster's context into its workers.
void BM_ContextSwitch(benchmark::State& state) {
  obs::Context ctx;
  for (auto _ : state) {
    obs::ContextScope scope(&ctx);
    benchmark::DoNotOptimize(&scope);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContextSwitch);

// Bucket-wise merge of two fully-populated histogram snapshots — the sweep
// aggregator's unit of work (runs once per run per histogram at sweep end).
void BM_HistogramMerge(benchmark::State& state) {
  obs::HistogramSnapshot a;
  obs::HistogramSnapshot b;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    a.buckets[i] = i * 37 + 1;
    b.buckets[i] = i * 11 + 2;
    a.count += a.buckets[i];
    b.count += b.buckets[i];
  }
  a.sum = 123456789;
  b.sum = 987654321;
  for (auto _ : state) {
    obs::HistogramSnapshot merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramMerge);

}  // namespace

BENCHMARK_MAIN();

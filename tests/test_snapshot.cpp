// Checkpoint serialization: codec round-trips, framing rejection of
// corrupted/truncated files (clean SnapshotError, never UB), randomized
// DAG+store+RNG state round-trips (byte-identical re-serialization, identical
// weight index and delta_ratio), and whole-checkpoint write/load/resume on a
// tiny scenario.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "data/synthetic_digits.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/models.hpp"
#include "sim/simulator.hpp"
#include "snapshot/access.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot.hpp"

namespace specdag {
namespace {

namespace fs = std::filesystem;

// A unique scratch directory per test; removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("specdag-" + tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

TEST(SnapshotCodec, WriterReaderRoundTrip) {
  snapshot::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(-0.0f);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("hello\0world");  // embedded NUL truncates the literal, still a valid case
  w.bytes({1, 2, 3});
  w.vec_f32({1.5f, -2.25f, std::numeric_limits<float>::quiet_NaN()});
  w.vec_u64({7, 8, 9});

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  const float neg_zero = r.f32();
  EXPECT_EQ(std::signbit(neg_zero), true);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  const std::vector<float> floats = r.vec_f32();
  ASSERT_EQ(floats.size(), 3u);
  EXPECT_EQ(floats[0], 1.5f);
  EXPECT_EQ(floats[1], -2.25f);
  EXPECT_TRUE(std::isnan(floats[2]));
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_TRUE(r.done());
}

TEST(SnapshotCodec, ReaderRejectsEveryTruncation) {
  snapshot::Writer w;
  w.u64(123);
  w.str("payload");
  w.vec_f32({1.0f, 2.0f});
  const std::vector<std::uint8_t>& full = w.buffer();
  for (std::size_t len = 0; len < full.size(); ++len) {
    snapshot::Reader r(full.data(), len);
    EXPECT_THROW(
        {
          (void)r.u64();
          (void)r.str();
          (void)r.vec_f32();
        },
        snapshot::SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotCodec, ReaderRejectsHugeLengthPrefixWithoutAllocating) {
  snapshot::Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // absurd length prefix
  snapshot::Reader r(w.buffer());
  EXPECT_THROW((void)r.vec_f32(), snapshot::SnapshotError);
}

TEST(SnapshotCodec, RngRoundTripContinuesBitExactly) {
  Rng original(987654321);
  // Warm the engine so internal state differs from the seed state.
  for (int i = 0; i < 1000; ++i) (void)original.uniform();

  snapshot::Writer w;
  snapshot::save_rng(w, original);
  snapshot::Reader r(w.buffer());
  Rng restored = snapshot::load_rng(r);
  EXPECT_TRUE(r.done());

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.engine()(), restored.engine()());
  }
}

TEST(SnapshotFraming, FileRoundTrip) {
  TempDir dir("framing");
  std::vector<std::uint8_t> payload(200);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  const std::string path = dir.file("ok.ckpt");
  snapshot::save_file(path, payload);
  EXPECT_EQ(snapshot::load_file(path), payload);
}

TEST(SnapshotFraming, EveryByteFlipIsRejected) {
  TempDir dir("flip");
  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  const std::string path = dir.file("base.ckpt");
  snapshot::save_file(path, payload);

  std::vector<std::uint8_t> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(file.empty());

  const std::string corrupt = dir.file("corrupt.ckpt");
  for (std::size_t i = 0; i < file.size(); ++i) {
    std::vector<std::uint8_t> mutated = file;
    mutated[i] ^= 0x01;
    {
      std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(mutated.data()),
                static_cast<std::streamsize>(mutated.size()));
    }
    EXPECT_THROW((void)snapshot::load_file(corrupt), snapshot::SnapshotError)
        << "flipped byte " << i;
  }
}

TEST(SnapshotFraming, EveryTruncationIsRejected) {
  TempDir dir("trunc");
  std::vector<std::uint8_t> payload(48, 0x5A);
  const std::string path = dir.file("base.ckpt");
  snapshot::save_file(path, payload);

  std::vector<std::uint8_t> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string truncated = dir.file("truncated.ckpt");
  for (std::size_t len = 0; len < file.size(); ++len) {
    {
      std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(file.data()), static_cast<std::streamsize>(len));
    }
    EXPECT_THROW((void)snapshot::load_file(truncated), snapshot::SnapshotError)
        << "truncated to " << len;
  }
  EXPECT_THROW((void)snapshot::load_file(dir.file("missing.ckpt")), snapshot::SnapshotError);
}

// ------------------------------------------------------------------ state ---

data::FederatedDataset tiny_dataset(std::uint64_t seed) {
  data::SyntheticDigitsConfig config;
  config.num_clients = 6;
  config.samples_per_client = 30;
  config.image_size = 8;
  config.seed = seed;
  return data::make_fmnist_clustered(config);
}

sim::DagSimulator make_sim(std::uint64_t seed) {
  auto ds = tiny_dataset(seed);
  nn::ModelFactory factory =
      sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes);
  sim::SimulatorConfig config;
  config.client.train = {1, 4, 8, 0.05};
  config.clients_per_round = 3;
  config.seed = seed;
  return sim::DagSimulator(std::move(ds), factory, config);
}

// The checkpoint's state body minus attacks, straight through Access.
std::vector<std::uint8_t> save_state(sim::DagSimulator& sim) {
  sim.network().dag().store().drain();
  snapshot::Writer w;
  snapshot::Access::save_dag(w, sim.network().dag());
  snapshot::Access::save_eval_cache(w, *sim.network().eval_cache());
  snapshot::Access::save_client_rngs(w, sim.network());
  snapshot::Access::save_sim(w, sim);
  return w.take();
}

void restore_state(const std::vector<std::uint8_t>& bytes, sim::DagSimulator& sim) {
  snapshot::Reader r(bytes);
  snapshot::Access::restore_dag(r, sim.network().dag());
  snapshot::Access::restore_eval_cache(r, *sim.network().eval_cache());
  snapshot::Access::restore_client_rngs(r, sim.network());
  snapshot::Access::restore_sim(r, sim);
  ASSERT_TRUE(r.done());
}

TEST(SnapshotState, RandomizedDagRoundTripReserializesByteIdentically) {
  for (std::uint64_t seed : {11ull, 202ull, 3033ull}) {
    sim::DagSimulator original = make_sim(seed);
    original.run_rounds(1 + static_cast<std::size_t>(seed % 4));
    const std::vector<std::uint8_t> first = save_state(original);

    sim::DagSimulator restored = make_sim(seed);
    restore_state(first, restored);
    const std::vector<std::uint8_t> second = save_state(restored);
    EXPECT_EQ(first, second) << "seed " << seed;

    // Children, tips, the incremental weight index and the store's encode
    // decisions and counters are re-derived exactly.
    const dag::Dag& a = original.dag();
    const dag::Dag& b = restored.dag();
    EXPECT_EQ(a.tips(), b.tips());
    for (dag::TxId id : a.all_ids()) EXPECT_EQ(a.children(id), b.children(id)) << "id " << id;
    EXPECT_EQ(a.cumulative_weights_all(), b.cumulative_weights_all());
    const store::StoreStats sa = a.store().stats();
    const store::StoreStats sb = b.store().stats();
    EXPECT_EQ(sa.payloads, sb.payloads);
    EXPECT_EQ(sa.anchors, sb.anchors);
    EXPECT_EQ(sa.deltas, sb.deltas);
    EXPECT_EQ(sa.dedup_hits, sb.dedup_hits);
    EXPECT_EQ(sa.resident_payload_bytes, sb.resident_payload_bytes);
    EXPECT_EQ(sa.full_payload_bytes, sb.full_payload_bytes);
    EXPECT_DOUBLE_EQ(sa.delta_ratio(), sb.delta_ratio());
  }
}

TEST(SnapshotState, RestoredSimulatorContinuesIdentically) {
  sim::DagSimulator original = make_sim(77);
  original.run_rounds(3);
  const std::vector<std::uint8_t> state = save_state(original);

  sim::DagSimulator restored = make_sim(77);
  restore_state(state, restored);

  // One more round on each: identical publishes, parents, and evaluations.
  const sim::RoundRecord& a = original.run_round();
  const sim::RoundRecord& b = restored.run_round();
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].client_id, b.results[i].client_id);
    EXPECT_EQ(a.results[i].published, b.results[i].published);
    EXPECT_EQ(a.results[i].parents, b.results[i].parents);
    EXPECT_EQ(a.results[i].reference, b.results[i].reference);
    EXPECT_EQ(a.results[i].trained_eval.accuracy, b.results[i].trained_eval.accuracy);
    EXPECT_EQ(a.results[i].trained_eval.loss, b.results[i].trained_eval.loss);
    EXPECT_EQ(a.results[i].walk_stats.steps, b.results[i].walk_stats.steps);
    EXPECT_EQ(a.results[i].walk_stats.evaluations, b.results[i].walk_stats.evaluations);
  }
  EXPECT_EQ(original.dag().size(), restored.dag().size());
}

// Chain depths are recomputed on restore, not read: with a short
// anchor_interval the delta/anchor decision of every later append depends
// on them, so a restored DAG must settle the next appends exactly like the
// original.
TEST(SnapshotState, RestoredStoreRecomputesChainDepths) {
  store::StoreConfig config;
  config.anchor_interval = 2;
  const auto payload = [](std::size_t i) {
    nn::WeightVector weights(256, 0.5f);
    weights[i % weights.size()] += 1e-3f * static_cast<float>(i + 1);
    return std::make_shared<const nn::WeightVector>(std::move(weights));
  };
  dag::Dag original(nn::WeightVector(256, 0.5f), config);
  dag::TxId tip = dag::kGenesisTx;
  for (std::size_t i = 0; i < 7; ++i) tip = original.add_transaction({tip}, payload(i), 0, i);
  snapshot::Writer w;
  snapshot::Access::save_dag(w, original);

  dag::Dag restored(nn::WeightVector(256, 0.5f), config);
  snapshot::Reader r(w.buffer());
  snapshot::Access::restore_dag(r, restored);
  ASSERT_TRUE(r.done());
  for (std::size_t i = 7; i < 12; ++i) {
    original.add_transaction({tip}, payload(i), 0, i);
    tip = restored.add_transaction({tip}, payload(i), 0, i);
  }
  const store::StoreStats a = original.store().stats();
  const store::StoreStats b = restored.store().stats();
  EXPECT_GT(a.anchors, 1u) << "the chain never reached anchor_interval";
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.deltas, b.deltas);
  EXPECT_EQ(a.resident_payload_bytes, b.resident_payload_bytes);
}

// Store entries no store could have written are rejected, before any
// decode reads them: a delta without bases, an anchor with bases, and a
// delta whose base holds a different number of floats. Each store is
// followed by a valid genesis-only DAG, so only the entry checks can throw.
TEST(SnapshotState, MalformedStoreEntriesAreRejected) {
  struct Entry {
    std::uint8_t state;  // 0 anchor, 2 delta
    std::uint32_t floats;
    std::vector<std::uint32_t> bases;
  };
  const std::vector<std::vector<Entry>> stores = {
      {{0, 4, {}}, {2, 4, {}}}, {{0, 4, {}}, {0, 4, {0}}}, {{0, 4, {}}, {2, 8, {0}}}};
  for (const auto& entries : stores) {
    snapshot::Writer w;
    w.u64(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      w.u64(i);
      w.u64(0);  // content hash
      w.u8(entries[i].state);
      w.u32(entries[i].floats);
      w.u64(entries[i].bases.size());
      for (std::uint32_t base : entries[i].bases) w.u32(base);
      if (entries[i].state == 2) {
        w.bytes({1, 2, 3});
      } else {
        w.vec_f32(std::vector<float>(entries[i].floats, 0.0f));
      }
    }
    w.u64(0);  // dedup hits
    w.u64(1);  // genesis only: no parents, payload 0, publisher -1, round 0
    w.u64(0);
    w.u32(0);
    w.i64(-1);
    w.u64(0);
    w.u8(0);
    dag::Dag dag({0.0f});
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(snapshot::Access::restore_dag(r, dag), snapshot::SnapshotError);
  }
}

TEST(SnapshotState, TruncatedStateIsACleanError) {
  sim::DagSimulator original = make_sim(5);
  original.run_rounds(2);
  const std::vector<std::uint8_t> state = save_state(original);

  // Every 97th prefix: a torn state section always throws, never crashes.
  for (std::size_t len = 0; len < state.size(); len += 97) {
    sim::DagSimulator fresh = make_sim(5);
    std::vector<std::uint8_t> cut(state.begin(), state.begin() + static_cast<long>(len));
    snapshot::Reader r(cut);
    EXPECT_THROW(
        {
          snapshot::Access::restore_dag(r, fresh.network().dag());
          snapshot::Access::restore_eval_cache(r, *fresh.network().eval_cache());
          snapshot::Access::restore_client_rngs(r, fresh.network());
          snapshot::Access::restore_sim(r, fresh);
        },
        snapshot::SnapshotError)
        << "state truncated to " << len;
  }
}

// ------------------------------------------------------------- checkpoint ---

scenario::ScenarioSpec tiny_checkpoint_spec(const std::string& dir) {
  scenario::ScenarioSpec spec = scenario::get_scenario("churn");
  spec.num_clients = 6;
  spec.samples_per_client = 30;
  spec.rounds = 6;
  spec.clients_per_round = 3;
  spec.client.train = {1, 4, 8, 0.05};
  spec.dynamics.churn = {0.34, 2, 5};
  spec.checkpoint.every_n_rounds = 2;
  spec.checkpoint.dir = dir;
  return spec;
}

// The async counterpart: the straggler workload on the event-driven
// simulator, shrunk the same way.
scenario::ScenarioSpec tiny_async_checkpoint_spec(const std::string& dir) {
  scenario::ScenarioSpec spec = scenario::get_scenario("stragglers");
  spec.num_clients = 6;
  spec.samples_per_client = 30;
  spec.rounds = 6;
  spec.client.train = {1, 4, 8, 0.05};
  spec.checkpoint.every_n_rounds = 2;
  spec.checkpoint.dir = dir;
  return spec;
}

// The raw write_series_jsonl bytes: the stream carries no wall-clock field,
// so equivalence is byte equality with no normalization.
std::string series_jsonl(const scenario::ScenarioResult& result) {
  std::ostringstream out;
  scenario::write_series_jsonl(result, out);
  return out.str();
}

TEST(SnapshotCheckpoint, WriteLoadResumeMatchesUninterrupted) {
  TempDir dir("ckpt");
  scenario::ScenarioSpec spec = tiny_checkpoint_spec(dir.file("ckpts"));
  const scenario::ScenarioResult full = scenario::run_scenario(spec);

  // every_n_rounds=2 over 6 rounds: checkpoints at units 2, 4, 6.
  for (std::size_t unit : {2, 4, 6}) {
    EXPECT_TRUE(fs::exists(snapshot::checkpoint_path(spec.checkpoint.dir, unit)))
        << "unit " << unit;
  }

  const std::string mid = snapshot::checkpoint_path(spec.checkpoint.dir, 4);
  const snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(mid);
  EXPECT_EQ(loaded.completed_units, 4u);
  EXPECT_EQ(loaded.sim_kind, snapshot::kSimRound);
  EXPECT_EQ(loaded.partial.series.size(), 4u);
  // The embedded spec is the canonical serialization of the one we ran.
  EXPECT_EQ(scenario::spec_to_json(loaded.spec).dump(), scenario::spec_to_json(spec).dump());

  for (std::size_t threads : {1, 2}) {
    scenario::ResumeOverrides overrides;
    overrides.has_threads = true;
    overrides.threads = threads;
    const scenario::ScenarioResult resumed = scenario::resume_scenario(mid, overrides);
    EXPECT_EQ(series_jsonl(resumed), series_jsonl(full)) << "threads " << threads;
    EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
    EXPECT_EQ(resumed.dag_size, full.dag_size);
    EXPECT_DOUBLE_EQ(resumed.store_stats.delta_ratio(), full.store_stats.delta_ratio());
  }
}

// A checkpoint carries no wall clock: two runs of one spec write the same
// bytes, also when prepared results are serialized — broadcasts still in
// flight (async) and commits held back by a visibility delay (round) — and
// under async encode, whose queue depth depends on the schedule and so is
// not checkpointed. The spec, checkpoint.dir included, is embedded, so both
// runs use one path.
TEST(SnapshotCheckpoint, CheckpointBytesAreIdenticalAcrossRuns) {
  TempDir dir("ckpt-bytes");
  scenario::ScenarioSpec delayed = tiny_checkpoint_spec(dir.file("round"));
  delayed.visibility_delay_rounds = 1;
  std::vector<scenario::ScenarioSpec> specs = {tiny_async_checkpoint_spec(dir.file("async")),
                                               delayed};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    scenario::ScenarioSpec encoding = scenario::get_scenario("scale-2k");
    encoding.name += "-threads-" + std::to_string(threads);
    encoding.num_clients = 40;
    encoding.threads = threads;
    encoding.checkpoint.every_n_rounds = 1;
    encoding.checkpoint.dir = dir.file(encoding.name);
    ASSERT_TRUE(encoding.store.async_encode);
    specs.push_back(encoding);
  }
  for (const scenario::ScenarioSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const auto checkpoint_bytes = [&] {
      (void)scenario::run_scenario(spec);
      std::string bytes;
      for (std::size_t unit = spec.checkpoint.every_n_rounds; unit <= spec.rounds;
           unit += spec.checkpoint.every_n_rounds) {
        std::ifstream in(snapshot::checkpoint_path(spec.checkpoint.dir, unit), std::ios::binary);
        bytes.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      }
      return bytes;
    };
    const std::string first = checkpoint_bytes();
    ASSERT_GT(first.size(), 1000u);
    EXPECT_TRUE(first == checkpoint_bytes());
  }
}

// A well-framed checkpoint (valid checksum) whose DAG section lists one
// parent twice is rejected on restore, exactly as add_transaction rejects it.
TEST(SnapshotCheckpoint, DuplicateParentIsRejectedOnRestore) {
  TempDir dir("dup-parent");
  const scenario::ScenarioSpec spec = tiny_checkpoint_spec(dir.file("ckpts"));
  snapshot::Writer w;
  w.str(scenario::spec_to_json(spec).dump());
  w.u8(snapshot::kSimRound);
  w.u64(0);  // completed units
  w.u64(0);  // series points
  w.u64(0);  // poisoned clients
  // Store: one anchor entry, no dedup hits.
  w.u64(1);
  w.u64(1);
  w.u64(2);  // content hash
  w.u8(0);   // anchor
  w.u32(4);  // floats
  w.u64(0);  // bases
  w.vec_f32({0.0f, 1.0f, 2.0f, 3.0f});
  w.u64(0);
  // DAG: genesis <- 1 <- 2, where transaction 2 approves 1 twice.
  const std::vector<std::vector<std::uint64_t>> parents = {{}, {0}, {1, 1}};
  w.u64(parents.size());
  for (const auto& list : parents) {
    w.u64(list.size());
    for (std::uint64_t p : list) w.u64(p);
    w.u32(0);   // payload
    w.i64(-1);  // publisher
    w.u64(0);   // round
    w.u8(0);    // poisoned publisher
  }
  const std::string path = dir.file("duplicate-parent.ckpt");
  snapshot::save_file(path, w.buffer());
  ASSERT_NO_THROW((void)snapshot::load_checkpoint(path));
  try {
    (void)scenario::resume_scenario(path);
    ADD_FAILURE() << "restore accepted a duplicate parent";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate parents"), std::string::npos) << e.what();
  }
}

TEST(SnapshotCheckpoint, KeepLastPrunesOldCheckpoints) {
  TempDir dir("prune");
  scenario::ScenarioSpec spec = tiny_checkpoint_spec(dir.file("ckpts"));
  spec.checkpoint.every_n_rounds = 1;
  spec.checkpoint.keep_last = 2;
  (void)scenario::run_scenario(spec);
  std::size_t kept = 0;
  for (const auto& entry : fs::directory_iterator(spec.checkpoint.dir)) {
    (void)entry;
    ++kept;
  }
  EXPECT_EQ(kept, 2u);
  EXPECT_TRUE(fs::exists(snapshot::checkpoint_path(spec.checkpoint.dir, 5)));
  EXPECT_TRUE(fs::exists(snapshot::checkpoint_path(spec.checkpoint.dir, 6)));
}

TEST(SnapshotCheckpoint, CorruptCheckpointFileIsRejected) {
  TempDir dir("corrupt-ckpt");
  scenario::ScenarioSpec spec = tiny_checkpoint_spec(dir.file("ckpts"));
  spec.rounds = 2;
  spec.checkpoint.every_n_rounds = 2;
  (void)scenario::run_scenario(spec);
  const std::string path = snapshot::checkpoint_path(spec.checkpoint.dir, 2);

  std::vector<char> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(file.size(), 1000u);
  // Flip a sample of bytes across the whole file (header, spec, state): the
  // checksum rejects every one of them.
  const std::string corrupt = dir.file("corrupt.ckpt");
  for (std::size_t i = 0; i < file.size(); i += file.size() / 41 + 1) {
    std::vector<char> mutated = file;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    {
      std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    EXPECT_THROW((void)snapshot::load_checkpoint(corrupt), snapshot::SnapshotError)
        << "flipped byte " << i;
    EXPECT_THROW((void)scenario::resume_scenario(corrupt), snapshot::SnapshotError)
        << "flipped byte " << i;
  }
}

TEST(SnapshotCheckpoint, ReplayValidatesTheWindow) {
  TempDir dir("replay-window");
  scenario::ScenarioSpec spec = tiny_checkpoint_spec(dir.file("ckpts"));
  (void)scenario::run_scenario(spec);
  const std::string mid = snapshot::checkpoint_path(spec.checkpoint.dir, 4);
  EXPECT_THROW((void)scenario::replay_scenario(mid, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)scenario::replay_scenario(mid, 5, 4), std::invalid_argument);
  EXPECT_THROW((void)scenario::replay_scenario(mid, 3, 5), std::invalid_argument);
  EXPECT_THROW((void)scenario::replay_scenario(mid, 5, 7), std::invalid_argument);
}

TEST(SnapshotCheckpoint, ReplayReproducesTheWindow) {
  TempDir dir("replay");
  for (const scenario::ScenarioSpec& spec : {tiny_checkpoint_spec(dir.file("round")),
                                             tiny_async_checkpoint_spec(dir.file("async"))}) {
    SCOPED_TRACE(spec.name);
    const scenario::ScenarioResult full = scenario::run_scenario(spec);
    const std::string early = snapshot::checkpoint_path(spec.checkpoint.dir, 2);

    const scenario::ScenarioResult window = scenario::replay_scenario(early, 3, 5);
    ASSERT_EQ(window.series.size(), 3u);
    scenario::ScenarioResult reference = full;
    reference.series.assign(full.series.begin() + 2, full.series.begin() + 5);
    EXPECT_EQ(series_jsonl(window), series_jsonl(reference));
  }
}

TEST(SnapshotCheckpoint, SpecValidationGuardsTheBlock) {
  scenario::ScenarioSpec spec = scenario::get_scenario("churn");
  spec.checkpoint.every_n_rounds = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // dir required
  spec.checkpoint.dir = "/tmp/x";
  spec.algorithm = scenario::AlgorithmKind::kFedAvg;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // dag only
}

}  // namespace
}  // namespace specdag

#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/attacks.hpp"
#include "sim/async_simulator.hpp"
#include "sim/simulator.hpp"
#include "snapshot/access.hpp"

namespace specdag::snapshot {
namespace {

struct SnapshotMetrics {
  obs::Counter& writes = obs::Registry::counter("snapshot.writes");
  obs::Counter& bytes = obs::Registry::counter("snapshot.bytes");
};

SnapshotMetrics& snapshot_metrics() {
  static SnapshotMetrics metrics;
  return metrics;
}

// Framing header size (magic + version + endian + payload size + checksum);
// snapshot.bytes reports whole files, not just payloads.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

void save_point(Writer& w, const scenario::ScenarioPoint& point) {
  w.u64(point.round);
  w.f64(point.mean_accuracy);
  w.f64(point.mean_loss);
  w.u64(point.publishes);
  w.u64(point.dag_size);
  w.u64(point.active_clients);
  w.u8(point.partitioned ? 1 : 0);
  w.f64(point.mean_walk_evaluations);
  w.u64(point.attacker_transactions);
  w.u8(point.has_attack_metrics ? 1 : 0);
  w.f64(point.flip_rate);
  w.f64(point.approved_poisoned);
  w.u64(point.client_accuracies.size());
  for (double accuracy : point.client_accuracies) w.f64(accuracy);
  w.u8(point.has_community_metrics ? 1 : 0);
  w.f64(point.modularity);
  w.u64(point.communities);
  w.f64(point.misclassification);
}

scenario::ScenarioPoint load_point(Reader& r) {
  scenario::ScenarioPoint point;
  point.round = static_cast<std::size_t>(r.u64());
  point.mean_accuracy = r.f64();
  point.mean_loss = r.f64();
  point.publishes = static_cast<std::size_t>(r.u64());
  point.dag_size = static_cast<std::size_t>(r.u64());
  point.active_clients = static_cast<std::size_t>(r.u64());
  point.partitioned = r.u8() != 0;
  point.mean_walk_evaluations = r.f64();
  point.attacker_transactions = static_cast<std::size_t>(r.u64());
  point.has_attack_metrics = r.u8() != 0;
  point.flip_rate = r.f64();
  point.approved_poisoned = r.f64();
  const std::uint64_t num_accuracies = r.u64();
  point.client_accuracies.reserve(static_cast<std::size_t>(num_accuracies));
  for (std::uint64_t i = 0; i < num_accuracies; ++i) point.client_accuracies.push_back(r.f64());
  point.has_community_metrics = r.u8() != 0;
  point.modularity = r.f64();
  point.communities = static_cast<std::size_t>(r.u64());
  point.misclassification = r.f64();
  return point;
}

// Only the loop-time accumulators of the partial result: everything else
// (final metrics, perf, obs) is recomputed or re-accumulated by the resumed
// run.
void save_partial(Writer& w, const scenario::ScenarioResult& result) {
  w.u64(result.series.size());
  for (const scenario::ScenarioPoint& point : result.series) save_point(w, point);
  w.u64(result.poisoned_clients);
}

void load_partial(Reader& r, scenario::ScenarioResult& result) {
  const std::uint64_t num_points = r.u64();
  result.series.reserve(static_cast<std::size_t>(num_points));
  for (std::uint64_t i = 0; i < num_points; ++i) result.series.push_back(load_point(r));
  result.poisoned_clients = static_cast<std::size_t>(r.u64());
}

template <typename Simulator>
void write_checkpoint_impl(const std::string& path, const scenario::ScenarioSpec& spec,
                           std::size_t completed_units,
                           const scenario::ScenarioResult& partial, Simulator& sim,
                           scenario::AttackController& attacks, std::uint8_t sim_kind) {
  // Quiescent point: every queued async encode settles before serialization
  // (Access::save_dag throws on unsettled entries as a backstop).
  sim.dag().store().drain();
  obs::ScopedSpan span("snapshot.write", {{"unit", completed_units}});
  Writer w;
  w.str(scenario::spec_to_json(spec).dump());
  w.u8(sim_kind);
  w.u64(completed_units);
  save_partial(w, partial);
  Access::save_dag(w, sim.network().dag());
  Access::save_eval_cache(w, *sim.network().eval_cache());
  Access::save_client_rngs(w, sim.network());
  Access::save_sim(w, sim);
  Access::save_attacks(w, attacks);
  const std::vector<std::uint8_t> payload = w.take();
  save_file(path, payload);
  snapshot_metrics().writes.add(1);
  snapshot_metrics().bytes.add(payload.size() + kHeaderBytes);
  span.arg("bytes", payload.size() + kHeaderBytes);
}

template <typename Simulator>
void restore_state_impl(const LoadedCheckpoint& checkpoint, Simulator& sim,
                        scenario::AttackController& attacks, std::uint8_t expected_kind,
                        const char* expected_name) {
  if (checkpoint.sim_kind != expected_kind) {
    throw SnapshotError(std::string("snapshot: checkpoint was written by the ") +
                        (checkpoint.sim_kind == kSimRound ? "round" : "async") +
                        " simulator, cannot restore into the " + expected_name + " simulator");
  }
  Reader r(checkpoint.payload.data() + checkpoint.state_offset,
           checkpoint.payload.size() - checkpoint.state_offset);
  Access::restore_dag(r, sim.network().dag());
  Access::restore_eval_cache(r, *sim.network().eval_cache());
  Access::restore_client_rngs(r, sim.network());
  Access::restore_sim(r, sim);
  Access::restore_attacks(r, attacks, sim.network().dag());
  if (!r.done()) {
    throw SnapshotError("snapshot: " + std::to_string(r.remaining()) +
                        " trailing bytes after the state section");
  }
}

}  // namespace

void write_checkpoint(const std::string& path, const scenario::ScenarioSpec& spec,
                      std::size_t completed_units, const scenario::ScenarioResult& partial,
                      sim::DagSimulator& sim, scenario::AttackController& attacks) {
  write_checkpoint_impl(path, spec, completed_units, partial, sim, attacks, kSimRound);
}

void write_checkpoint(const std::string& path, const scenario::ScenarioSpec& spec,
                      std::size_t completed_units, const scenario::ScenarioResult& partial,
                      sim::AsyncDagSimulator& sim, scenario::AttackController& attacks) {
  write_checkpoint_impl(path, spec, completed_units, partial, sim, attacks, kSimAsync);
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  LoadedCheckpoint loaded;
  loaded.payload = load_file(path);
  Reader r(loaded.payload);
  const std::string spec_json = r.str();
  try {
    loaded.spec = scenario::spec_from_json(scenario::Json::parse(spec_json));
  } catch (const std::exception& error) {
    throw SnapshotError(std::string("snapshot: embedded spec does not parse: ") + error.what());
  }
  loaded.sim_kind = r.u8();
  if (loaded.sim_kind > kSimAsync) {
    throw SnapshotError("snapshot: corrupt simulator kind " + std::to_string(loaded.sim_kind));
  }
  loaded.completed_units = static_cast<std::size_t>(r.u64());
  load_partial(r, loaded.partial);
  loaded.state_offset = loaded.payload.size() - r.remaining();
  return loaded;
}

void restore_state(const LoadedCheckpoint& checkpoint, sim::DagSimulator& sim,
                   scenario::AttackController& attacks) {
  restore_state_impl(checkpoint, sim, attacks, kSimRound, "round");
}

void restore_state(const LoadedCheckpoint& checkpoint, sim::AsyncDagSimulator& sim,
                   scenario::AttackController& attacks) {
  restore_state_impl(checkpoint, sim, attacks, kSimAsync, "async");
}

std::string checkpoint_path(const std::string& dir, std::size_t completed_units) {
  char name[32];
  std::snprintf(name, sizeof(name), "checkpoint-%06zu.ckpt", completed_units);
  return (std::filesystem::path(dir) / name).string();
}

void prune_checkpoints(const std::string& dir, std::size_t keep_last) {
  if (keep_last == 0) return;
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      files.push_back(entry.path());
    }
  }
  if (files.size() <= keep_last) return;
  // Zero-padded unit numbers make lexicographic order chronological.
  std::sort(files.begin(), files.end());
  for (std::size_t i = 0; i + keep_last < files.size(); ++i) {
    std::filesystem::remove(files[i], ec);
  }
}

}  // namespace specdag::snapshot

// Per-subsystem state capture/restore for checkpoints.
//
// snapshot::Access is the single friend the stateful classes grant: it
// serializes exactly the primary state that drives future results — the
// DAG's transaction records, the model store's settled entries and its
// dedup counter, the sharded eval cache (its hits feed the per-round walk
// statistics), every RNG stream, the simulators' schedules (event queue /
// pending commits / churn + partition state), and the attack controller —
// and restores it into freshly constructed objects so a resumed run
// continues bit-exactly.
//
// Derived state is never written; restore recomputes it from the records:
//   * the DAG replays each transaction through its own append path, which
//     derives children and the cumulative-weight index and applies
//     add_transaction's validation (a bad record is a SnapshotError);
//   * the store recomputes its byte and anchor counters and each delta's
//     chain depth (1 + its deepest base's; anchors 0) from the entries.
//
// Invariants the callers must uphold:
//   * Quiescence: save only with the async encode pipeline drained and no
//     prepares in flight (the runner checkpoints at round boundaries after
//     store().drain()). save_dag throws if any store entry is unsettled.
//   * Restore targets are freshly built from the same spec (same dataset,
//     client count, model architecture); mismatches throw SnapshotError.
//
// Deterministic-rebuild rule: the store's materialization LRU and its
// hit/miss counters restart empty on restore. The LRU only caches decoded
// vectors (bit-identical to their originals), so this affects summary LRU
// statistics of a resumed run, never payload contents, JSONL series,
// delta_ratio, or accuracies.
#pragma once

#include "snapshot/snapshot.hpp"

namespace specdag::dag {
class Dag;
}
namespace specdag::store {
class ModelStore;
class ShardedEvalCache;
}  // namespace specdag::store
namespace specdag::fl {
struct DagRoundResult;
}
namespace specdag::core {
class SpecializingDag;
}
namespace specdag::sim {
class ClientPopulation;
class DagSimulator;
class AsyncDagSimulator;
}  // namespace specdag::sim
namespace specdag::scenario {
class AttackController;
}

namespace specdag::snapshot {

struct Access {
  // DAG including its payload store (store first — transactions hold
  // payload handles into it).
  static void save_dag(Writer& w, const dag::Dag& dag);
  static void restore_dag(Reader& r, dag::Dag& dag);

  static void save_eval_cache(Writer& w, const store::ShardedEvalCache& cache);
  static void restore_eval_cache(Reader& r, store::ShardedEvalCache& cache);

  // Every registered client's RNG stream (the only persistent mutable
  // per-client state: clients own no model, they lease pooled replicas and
  // load weights from the DAG).
  static void save_client_rngs(Writer& w, core::SpecializingDag& net);
  static void restore_client_rngs(Reader& r, core::SpecializingDag& net);

  // Partition record and poisoning classes (both simulators).
  static void save_population(Writer& w, const sim::ClientPopulation& population);
  static void restore_population(Reader& r, sim::ClientPopulation& population);
  static void save_sim(Writer& w, const sim::DagSimulator& sim);
  static void restore_sim(Reader& r, sim::DagSimulator& sim);
  static void save_sim(Writer& w, const sim::AsyncDagSimulator& sim);
  static void restore_sim(Reader& r, sim::AsyncDagSimulator& sim);

  // `dag` sizes the recreated attacker to the genesis payload, exactly like
  // its lazy construction on the first attack step.
  static void save_attacks(Writer& w, const scenario::AttackController& attacks);
  static void restore_attacks(Reader& r, scenario::AttackController& attacks,
                              const dag::Dag& dag);

  // A prepared round result (lives in pending commits / queued broadcasts).
  static void save_result(Writer& w, const fl::DagRoundResult& result);
  static fl::DagRoundResult load_result(Reader& r);

 private:
  static void save_store(Writer& w, const store::ModelStore& store);
  static void restore_store(Reader& r, store::ModelStore& store);
};

}  // namespace specdag::snapshot

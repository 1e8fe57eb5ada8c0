// Whole-run checkpoints: one framed file (see snapshot.hpp for the binary
// format) holding everything a resumed run needs to continue bit-exactly —
// the canonical spec JSON (so a checkpoint is self-contained), the number of
// completed round/virtual-time units, the partial result series accumulated
// so far, and the full simulator state captured by snapshot::Access (DAG +
// store, eval cache, every RNG stream, the event queue / pending commits,
// churn + partition record, attack controller).
//
// Checkpoints are written at quiescent points only: between units, with the
// store's async encode pipeline drained (write_checkpoint drains before
// serializing) and no prepares in flight. That makes the captured state
// independent of thread count, so a resume reproduces the uninterrupted
// run's series bit-exactly at any `threads` setting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "snapshot/snapshot.hpp"

namespace specdag::sim {
class DagSimulator;
class AsyncDagSimulator;
}  // namespace specdag::sim

namespace specdag::snapshot {

// Which simulator wrote the state section (restores must match).
inline constexpr std::uint8_t kSimRound = 0;
inline constexpr std::uint8_t kSimAsync = 1;

// A parsed checkpoint: the metadata/partial-result prefix decoded eagerly,
// the simulator-state tail kept as raw payload bytes (it can only be decoded
// into simulators freshly built from `spec`; see restore_state).
struct LoadedCheckpoint {
  scenario::ScenarioSpec spec;        // parsed from the embedded canonical JSON
  std::uint8_t sim_kind = kSimRound;  // kSimRound | kSimAsync
  std::size_t completed_units = 0;    // units fully executed before the snapshot
  scenario::ScenarioResult partial;   // series/poisoned_clients so far
  std::vector<std::uint8_t> payload;  // the full checkpoint payload
  std::size_t state_offset = 0;       // where the simulator-state section starts
};

// Serializes one checkpoint (draining the store's async encode pipeline
// first, so every entry is settled) and writes it crash-safely (temp file +
// rename — a SIGKILL mid-write never corrupts an existing checkpoint).
// Records obs counters snapshot.writes / snapshot.bytes under a
// "snapshot.write" trace span.
void write_checkpoint(const std::string& path, const scenario::ScenarioSpec& spec,
                      std::size_t completed_units, const scenario::ScenarioResult& partial,
                      sim::DagSimulator& sim, scenario::AttackController& attacks);
void write_checkpoint(const std::string& path, const scenario::ScenarioSpec& spec,
                      std::size_t completed_units, const scenario::ScenarioResult& partial,
                      sim::AsyncDagSimulator& sim, scenario::AttackController& attacks);

// Reads, verifies, and decodes the metadata prefix. Throws SnapshotError on
// any framing, checksum, version, or decode problem.
LoadedCheckpoint load_checkpoint(const std::string& path);

// Restores the simulator-state section into objects freshly built from
// `checkpoint.spec` (same dataset, client count, model — mismatches throw).
// The label-flip schedule for units before completed_units must already have
// been replayed into the simulator's dataset (the runner does this), so the
// restored eval cache matches the client data. The runner times a restore
// under its `setup` span.
void restore_state(const LoadedCheckpoint& checkpoint, sim::DagSimulator& sim,
                   scenario::AttackController& attacks);
void restore_state(const LoadedCheckpoint& checkpoint, sim::AsyncDagSimulator& sim,
                   scenario::AttackController& attacks);

// <dir>/checkpoint-000042.ckpt (units zero-padded so names sort by time).
std::string checkpoint_path(const std::string& dir, std::size_t completed_units);

// Deletes all but the `keep_last` newest checkpoint-*.ckpt files in `dir`
// (0 = keep everything).
void prune_checkpoints(const std::string& dir, std::size_t keep_last);

}  // namespace specdag::snapshot

// Per-phase timing breakdown of a simulation run: a view over the obs phase
// spans (obs/trace.hpp), not a clock of its own.
//
// Every client step opens timed spans, and each span adds its duration to a
// `phase.<name>_ns` histogram of the obs context it runs under. The four
// foreground buckets sum those histograms:
//   * tipsel — `tipsel` + `tipsel.reference`: the approval walks and the
//              reference walk (candidate evaluations inside a walk count
//              here; they are part of Algorithm 1's walk cost),
//   * train  — `train` (scalar path) + `exec.train` (a fused group's wall
//              time, once per group),
//   * eval   — `eval`: the trained and reference models on local test data,
//   * commit — `commit`: serialized DAG appends (payload hashing and
//              bookkeeping) net of the `encode.inline` spans nested in them.
// total_seconds sums `round` (DagSimulator::run_round) and `advance`
// (AsyncDagSimulator::run_steps / run_until). setup_seconds and
// finalize_seconds are the scenario runner's spans (0 outside it).
//
// Delta encoding is not a bucket here: its `encode.inline` (in the commit
// section, or publishing attacker payloads) and `encode.async` (background
// workers under store.async_encode) spans sum to StoreStats::encode_seconds.
//
// tipsel/train/eval are summed across the threads that ran the spans, so
// under a parallel prepare they are aggregate busy time and can exceed the
// wall clock; commit is serialized wall time. utilization() normalizes the
// mix into one number, background encode excluded so it stays at most 1.
//
// With metrics off (`--obs off`) the timings read 0; prepares and commits
// are the simulators' own counters and never depend on obs.
#pragma once

#include <cstddef>

#include "obs/trace.hpp"

namespace specdag::sim {

struct PhaseTimings {
  double tipsel_seconds = 0.0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  double commit_seconds = 0.0;
  double total_seconds = 0.0;
  double setup_seconds = 0.0;
  double finalize_seconds = 0.0;
  std::size_t prepares = 0;  // client steps prepared
  std::size_t commits = 0;   // transactions appended through the simulator

  // The phase totals recorded so far in `context`, plus the given counts.
  static PhaseTimings from_obs(const obs::Context& context, std::size_t prepares,
                               std::size_t commits) {
    const auto seconds = [&](auto... phases) {
      return static_cast<double>((obs::phase_nanos(context, phases) + ...)) * 1e-9;
    };
    using obs::Phase;
    PhaseTimings timings;
    timings.tipsel_seconds = seconds(Phase::kTipsel, Phase::kTipselReference);
    timings.train_seconds = seconds(Phase::kTrain, Phase::kExecTrain);
    timings.eval_seconds = seconds(Phase::kEval);
    timings.commit_seconds = seconds(Phase::kCommit);
    timings.total_seconds = seconds(Phase::kRound, Phase::kAdvance);
    timings.setup_seconds = seconds(Phase::kSetup);
    timings.finalize_seconds = seconds(Phase::kFinalize);
    timings.prepares = prepares;
    timings.commits = commits;
    return timings;
  }

  double phase_sum_seconds() const {
    return tipsel_seconds + train_seconds + eval_seconds + commit_seconds;
  }

  // Fraction of the available CPU budget (wall x threads) the phase buckets
  // account for. 1.0 = every worker busy in an accounted phase for the whole
  // run; serial runs read it as "fraction of wall time inside the buckets".
  double utilization(std::size_t threads) const {
    if (total_seconds <= 0.0 || threads == 0) return 0.0;
    return phase_sum_seconds() / (total_seconds * static_cast<double>(threads));
  }
};

}  // namespace specdag::sim

// Per-phase timing breakdown of a simulation run.
//
// Both simulators account wall time into four foreground buckets per client
// step:
//   * tipsel — biased random walks (approval walks + the reference walk),
//   * train  — local SGD on the averaged parent model,
//   * eval   — trained/reference model evaluations outside the walks
//              (per-step candidate evaluations inside a walk count as
//              tipsel; they are part of Algorithm 1's walk cost),
//   * commit — serialized DAG appends (payload hashing and bookkeeping,
//              but NOT delta encoding).
//
// Delta encoding is not a bucket here: the store measures every encode site
// itself (StoreStats::encode_seconds — inline in the commit section,
// background workers under store.async_encode, attacker-published payloads).
//
// tipsel/train/eval are summed across clients, so with a parallel prepare
// phase they report aggregate busy time (they can exceed the wall clock);
// a fused training group's wall time is split evenly across its lanes.
// commit is always serialized and therefore wall time. total_seconds is the
// wall clock spent inside run_round()/run_steps()/run_until() — in a
// one-thread synchronous run (no pool: every step group still goes through
// SpecializingDag::prepare_batch) the four buckets plus the store's encode
// time partition it (up to scheduling overhead outside the buckets), which
// tests/test_scenario.cpp pins.
//
// Because busy time and wall time mix, a raw bucket comparison across thread
// counts is misleading; utilization() normalizes the mix into one number
// (foreground busy-time sum over wall x threads) that summary.perf reports
// directly. Background encode is excluded, so it cannot push it above 1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "store/model_store.hpp"
#include "util/timer.hpp"

namespace specdag::sim {

struct PhaseTimings {
  double tipsel_seconds = 0.0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  double commit_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t prepares = 0;  // client steps prepared
  std::size_t commits = 0;   // transactions appended through the simulator

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

// Times one serialized commit section, leaving out the delta-encode work the
// store did inline during it (encoding is codec cost, not append cost; the
// store's own encode_seconds already counts it).
class ScopedCommitTimer {
 public:
  ScopedCommitTimer(const store::ModelStore& store, PhaseTimings& perf)
      : store_(store), perf_(perf), inline_before_(store.encode_nanos_inline()) {}

  ~ScopedCommitTimer() {
    const double inline_encode =
        static_cast<double>(store_.encode_nanos_inline() - inline_before_) * 1e-9;
    perf_.commit_seconds += std::max(0.0, timer_.elapsed_seconds() - inline_encode);
  }

  ScopedCommitTimer(const ScopedCommitTimer&) = delete;
  ScopedCommitTimer& operator=(const ScopedCommitTimer&) = delete;

 private:
  const store::ModelStore& store_;
  PhaseTimings& perf_;
  std::uint64_t inline_before_;
  Timer timer_;
};

}  // namespace specdag::sim

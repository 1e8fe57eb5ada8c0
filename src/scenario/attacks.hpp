// Declarative adversary schedules for the scenario engine (paper §4.4 and
// §5.3.4 threat models). An `attacks` block makes "who attacks when" spec
// data instead of bench-main orchestration:
//
//   "attacks": {
//     "metrics_every": 1,                    // measure flip/poison metrics
//                                            // every N rounds (0 = off)
//     "random_weights": {                    // §4.4 junk-transaction attack
//       "rate": 1.0,                         // attacker transactions per round
//       "weight_stddev": 0.1, "num_parents": 2,
//       "start_round": 10, "stop_round": 0   // active in [start, stop); 0 = forever
//     },
//     "label_flip": {                        // §5.3.4 flipped-label poisoning
//       "fraction": 0.2,                     // poisoned fraction of clients
//       "class_a": 3, "class_b": 8,
//       "start_round": 40, "stop_round": 0   // labels restored at stop_round
//     }
//   }
//
// Both windows use the same round/virtual-time units as the `dynamics`
// block. The label-flip event at `start_round` fires before that unit runs
// (its clients train on forged labels from the first attacked unit); the
// random-weights attacker publishes its junk after each in-window unit's
// training, so junk first influences walks from the following unit. Either
// way a run with an attack window is bit-identical to an attack-free run up
// to `start_round` (the attacker draws from its own forked RNG stream).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/specializing_dag.hpp"
#include "fl/attacker.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::scenario {

// Random-weight junk transactions (paper §4.4, first threat model). The
// attacker publishes via the uniformly random walk under an id outside the
// honest client range, so community/pureness metrics skip its edges.
struct RandomWeightsAttackSpec {
  double rate = 0.0;  // attacker transactions per round (fractions accumulate)
  double weight_stddev = 0.1;
  std::size_t num_parents = 2;
  std::size_t start_round = 0;
  std::size_t stop_round = 0;  // 0 = active until the run ends

  bool enabled() const { return rate > 0.0; }
  bool active_at(std::size_t unit) const {
    return enabled() && unit >= start_round && (stop_round == 0 || unit < stop_round);
  }
};

// Flipped-label poisoning (paper §5.3.4): at `start_round` the labels
// class_a <-> class_b of a seed-derived `fraction` of the clients are
// exchanged in train and test data; at `stop_round` (0 = never) the flip is
// reverted. Poisoned clients are unaware and keep training/steering their
// tip selection by the forged labels.
struct LabelFlipAttackSpec {
  double fraction = 0.0;
  int class_a = 3;
  int class_b = 8;
  std::size_t start_round = 0;
  std::size_t stop_round = 0;

  bool enabled() const { return fraction > 0.0; }
  bool started_by(std::size_t unit) const { return enabled() && unit >= start_round; }
};

struct AttackSpec {
  // Measure the label-flip evaluation metrics (benign flip rate on the
  // targeted classes, poisoned-approval counts) every N units from
  // `label_flip.start_round` on. The measurement walks each benign client's
  // consensus reference — part of the experiment protocol, exactly like the
  // paper's Figure 12/13 probes.
  std::size_t metrics_every = 0;
  RandomWeightsAttackSpec random_weights;
  LabelFlipAttackSpec label_flip;

  bool any() const { return random_weights.enabled() || label_flip.enabled(); }

  // True when the label-flip probes are scheduled at `unit` — the single
  // source of the measurement cadence for the DAG and baseline runners. The
  // probe schedule is independent of `label_flip.fraction`, so a clean
  // control run measures the identical schedule (the Figure 12 p=0 curve),
  // and it continues past `stop_round` so the series exposes recovery after
  // the labels heal. The summary means only aggregate in-window points.
  bool measure_at(std::size_t unit) const {
    if (metrics_every == 0 || unit < label_flip.start_round) return false;
    // Junk-only runs have no flip to probe; the walks would cost a full
    // benign-client sweep per round for a meaningless metric.
    if (random_weights.enabled() && !label_flip.enabled()) return false;
    return (unit - label_flip.start_round) % metrics_every == 0;
  }
};

// Per-measurement label-flip metrics over the benign clients.
struct LabelFlipProbe {
  double flip_rate = 0.0;          // mean misprediction a<->b on benign test sets
  double approved_poisoned = 0.0;  // mean poisoned transactions in the consensus past cone
};

// Drives the random-weight attacker against a running DAG simulation and
// evaluates the label-flip probes. One controller per run; its RNG is forked
// from the run seed so attack traffic never perturbs the training streams.
class AttackController {
 public:
  AttackController(const AttackSpec& spec, std::uint64_t seed, std::size_t num_clients);

  // Publishes the junk transactions due at `unit` (fractional rates carry a
  // budget across units). Returns the number published. The attacker is
  // created on first use, sized to the genesis payload.
  std::size_t run_random_weights(std::size_t unit, dag::Dag& dag);

  // True when the label-flip metrics should be measured at `unit`.
  bool measure_at(std::size_t unit) const;

  // Figure 12/13 probes: walks every benign client's consensus reference and
  // evaluates the flip rate of the referenced model plus the poisoned
  // transactions it approves. Uses the clients' own walk configuration and a
  // replica leased from `net`.
  LabelFlipProbe probe_label_flip(core::SpecializingDag& net,
                                  const data::FederatedDataset& dataset);

  // The id attacker transactions publish under (outside the client range).
  int attacker_id() const { return attacker_id_; }
  std::size_t total_published() const { return total_published_; }

  // Fraction of clients whose consensus reference is an attacker transaction
  // (the §4.4 takeover indicator). Walks every client once.
  double junk_reference_fraction(core::SpecializingDag& net, std::size_t num_clients);

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  // Creates the attacker, sized to the genesis payload, on the controller's
  // stream. The one construction both the first in-window unit and a
  // checkpoint restore use, so a resumed run attacks like an uninterrupted
  // one. Each attack() publishes one transaction: the budget loop sets the
  // rate.
  void create_attacker(const dag::Dag& dag);

  AttackSpec spec_;
  int attacker_id_;
  Rng attacker_rng_;
  std::unique_ptr<fl::RandomWeightAttacker> attacker_;
  double budget_ = 0.0;
  std::size_t total_published_ = 0;
};

}  // namespace specdag::scenario

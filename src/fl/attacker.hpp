// The paper's first §4.4 threat model: an attacker that submits transactions
// with random model weights to waste peers' compute and, at high rates,
// take over the consensus.
//
// A rational attacker of this kind "would likely not use the accuracy-aware
// tip selection" (paper §4.4) — targeting its own poisoned subgraph would
// limit the blast radius — so the attacker approves tips via the uniformly
// random walk.
//
// Attack payloads publish through Dag::add_transaction and are therefore
// interned in the DAG's ModelStore like every honest payload: payload_hash
// is defined for each junk transaction (so the sharded evaluation cache
// covers them), replayed junk dedups, and noise that does not delta-compress
// falls back to a raw anchor. tests/test_attacks.cpp pins this down.
#pragma once

#include "dag/dag.hpp"
#include "tipsel/tip_selector.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::fl {

struct RandomWeightAttackerConfig {
  // Random weights are drawn from N(0, stddev), matching typical init scale
  // so they are not trivially filtered by magnitude.
  double weight_stddev = 0.1;
  std::size_t num_parents = 2;
};

class RandomWeightAttacker {
 public:
  // `publisher_id` identifies the attacker's transactions; use an id outside
  // the honest client range so evaluation metrics can separate them.
  RandomWeightAttacker(int publisher_id, std::size_t model_size,
                       RandomWeightAttackerConfig config, Rng rng);

  // Publishes one random-weight transaction approving tips chosen by a
  // uniformly random walk. Returns its id.
  dag::TxId attack(dag::Dag& dag, std::size_t round);

  int publisher_id() const { return publisher_id_; }

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  int publisher_id_;
  std::size_t model_size_;
  RandomWeightAttackerConfig config_;
  Rng rng_;
  tipsel::RandomTipSelector selector_;
};

}  // namespace specdag::fl

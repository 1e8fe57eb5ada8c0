// Event-driven asynchronous simulator.
//
// The paper stresses that the Specializing DAG is inherently asynchronous —
// "each client continuously runs the training process as often as its
// resources permit, independent from all other clients" (§5.3.3) — and uses
// discrete rounds only to compare against centralized baselines. This
// simulator drops the round abstraction: each client's training completions
// follow its own exponential clock (heterogeneous rates model fast and slow
// devices), and published transactions reach the shared DAG after a
// per-transaction broadcast latency.
//
// Time is virtual (deterministic given the seed); no wall-clock sleeping.
//
// Dynamics note: broadcast latency is what gives the DAG its width in the
// asynchronous regime. With instantaneous visibility every step consumes
// two tips and adds one, so the tip set collapses towards a chain and
// clients are forced into cross-cluster approvals — specialization cannot
// emerge. Latency comparable to the clients' step interval keeps several
// transactions concurrently in flight, reproducing the concurrency the
// paper's round-based simulation provides implicitly.
//
// One step path: client training completions that are adjacent in the
// event queue — no broadcast (commit) event between them, all earlier than
// the first completion's own broadcast — all observe the same DAG, so they
// are prepared as one group through SpecializingDag::prepare_batch (walks
// concurrent on a thread pool, training fused across clients) and their
// results applied in exact event order. The groups are chosen by event
// times alone (never by thread timing), so any thread count reproduces the
// same trace bit for bit; one thread only means prepare_batch gets no pool.
// With zero latency every group is a single step: its broadcast is due at
// the step's own time and commits before the next step prepares.
#pragma once

#include <optional>
#include <queue>

#include "sim/population.hpp"
#include "util/thread_pool.hpp"

namespace specdag::sim {

struct AsyncClientProfile {
  // Mean virtual time between a client's training completions.
  double mean_step_interval = 1.0;
};

struct AsyncSimulatorConfig {
  fl::DagClientConfig client;
  // Broadcast latency applied to every published transaction (virtual time
  // from publication until it is visible in the DAG). 0 = instantaneous.
  double broadcast_latency = 0.0;
  std::uint64_t seed = 42;
  // Worker threads for the prepare groups (see the header comment).
  // 0 = one per hardware thread; 1 = no pool. Results are bit-identical
  // across thread counts. A pool needs broadcast_latency > 0 — with
  // instantaneous visibility every group is one step, so none is built.
  std::size_t threads = 0;
  // Payload store configuration (delta encoding, LRU, eval-cache shards).
  store::StoreConfig store;
};

struct AsyncStepRecord {
  double time = 0.0;
  int client_id = -1;
  // The prepared step's outcome, without its payloads: those travel with
  // the broadcast event and are released once the commit has stored them.
  // `result.published` is never filled: the commit happens later, at the
  // step's broadcast event (at the same virtual time under zero latency),
  // and may not publish at all. Read the DAG instead.
  fl::RoundOutcome result;
};

class AsyncDagSimulator : public ClientPopulation {
 public:
  // Client step rates default to 1.0; pass `profiles` (same length as
  // dataset.clients) for heterogeneous device speeds.
  AsyncDagSimulator(data::FederatedDataset dataset, nn::ModelFactory factory,
                    AsyncSimulatorConfig config,
                    std::vector<AsyncClientProfile> profiles = {});

  // Advances virtual time until `num_steps` client training completions have
  // been processed, then commits any broadcast already due at now(). Returns
  // the records in event order.
  std::vector<AsyncStepRecord> run_steps(std::size_t num_steps);

  // Advances until virtual time `until`.
  std::vector<AsyncStepRecord> run_until(double until);

  double now() const { return now_; }
  std::size_t total_steps() const { return total_steps_; }

  // --- network-dynamics hooks (scenario engine) ---------------------------

  // Client churn. Deactivating stops the client's training clock (its next
  // scheduled completion is discarded when it fires); reactivating restarts
  // the clock from the current virtual time.
  void set_client_active(int client, bool active);

  // Network partition with the same semantics as DagSimulator: new
  // transactions are only visible within the publisher's group until healed.
  void begin_partition(std::vector<int> group_of_client);

  const std::vector<AsyncClientProfile>& profiles() const { return profiles_; }

  // Worker threads the prepare groups actually use (1 = no pool).
  std::size_t prepare_threads() const { return pool_ ? pool_->size() : 1; }

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  struct Event {
    double time;
    // Deterministic tie-breaks: (time, seq) ordering.
    std::uint64_t seq;
    enum class Kind { kClientStep, kBroadcast } kind;
    int client = -1;
    // For broadcast events: the prepared result awaiting DAG insertion.
    fl::DagRoundResult result;

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void schedule_client_step(int client);
  // The one event loop behind run_steps and run_until: processes events up
  // to virtual time `until`, stopping once `max_steps` step records exist
  // and no broadcast is due at now().
  std::vector<AsyncStepRecord> advance(std::size_t max_steps, double until);
  // Pops the maximal commit-free run of client-step events (see the header
  // comment), prepares the active ones as one group, and applies the
  // results in event order. `max_records` caps the records produced so
  // run_steps stops exactly after its quota; events past `until` stay queued.
  void process_step_batch(std::vector<AsyncStepRecord>& records, std::size_t max_records,
                          double until);

  AsyncSimulatorConfig config_;
  std::vector<AsyncClientProfile> profiles_;
  Rng rng_;
  std::optional<ThreadPool> pool_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<char> clock_armed_;   // 1 = a kClientStep event is in flight
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t total_steps_ = 0;
};

}  // namespace specdag::sim

#include "sim/async_simulator.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "data/poisoning.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace specdag::sim {

AsyncDagSimulator::AsyncDagSimulator(data::FederatedDataset dataset, nn::ModelFactory factory,
                                     AsyncSimulatorConfig config,
                                     std::vector<AsyncClientProfile> profiles)
    : dataset_(std::move(dataset)),
      config_(config),
      net_(std::move(factory), config.client, config.seed, config.store),
      profiles_(std::move(profiles)),
      rng_(Rng(config.seed).fork(0xA57C)) {
  dataset_.validate();
  if (config_.broadcast_latency < 0.0) {
    throw std::invalid_argument("AsyncDagSimulator: negative broadcast latency");
  }
  if (profiles_.empty()) {
    profiles_.assign(dataset_.clients.size(), AsyncClientProfile{});
  }
  if (profiles_.size() != dataset_.clients.size()) {
    throw std::invalid_argument("AsyncDagSimulator: profile count mismatch");
  }
  for (const auto& p : profiles_) {
    if (p.mean_step_interval <= 0.0) {
      throw std::invalid_argument("AsyncDagSimulator: non-positive step interval");
    }
  }
  active_.assign(dataset_.clients.size(), 1);
  clock_armed_.assign(dataset_.clients.size(), 0);
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.register_client(&dataset_.clients[i]);
    schedule_client_step(static_cast<int>(i));
  }
  // Batched prepares need a visibility gap to overlap inside (see the
  // header comment); with instantaneous broadcast the event loop is an
  // inherent chain of prepare -> commit dependencies.
  // threads == 0: one worker per hardware thread (ThreadPool's convention).
  if (config_.threads != 1 && config_.broadcast_latency > 0.0) {
    pool_.emplace(config_.threads, "prepare");
  }
}

void AsyncDagSimulator::schedule_client_step(int client) {
  const double mean = profiles_[static_cast<std::size_t>(client)].mean_step_interval;
  // Exponential inter-arrival times: a Poisson clock per client.
  const double delay = -mean * std::log(1.0 - rng_.uniform());
  events_.push(Event{now_ + delay, next_seq_++, Event::Kind::kClientStep, client, {}});
  clock_armed_[static_cast<std::size_t>(client)] = 1;
}

void AsyncDagSimulator::set_client_active(int client, bool active) {
  if (client < 0 || static_cast<std::size_t>(client) >= active_.size()) {
    throw std::out_of_range("AsyncDagSimulator: unknown client " + std::to_string(client));
  }
  const auto idx = static_cast<std::size_t>(client);
  if (active_[idx] == (active ? 1 : 0)) return;
  active_[idx] = active ? 1 : 0;
  // A rejoining client restarts its clock unless a (stale) step event is
  // still queued — process_event re-arms it in that case, keeping at most
  // one clock per client.
  if (active && !clock_armed_[idx]) schedule_client_step(client);
}

bool AsyncDagSimulator::client_active(int client) const {
  if (client < 0 || static_cast<std::size_t>(client) >= active_.size()) {
    throw std::out_of_range("AsyncDagSimulator: unknown client " + std::to_string(client));
  }
  return active_[static_cast<std::size_t>(client)] != 0;
}

std::size_t AsyncDagSimulator::active_client_count() const {
  std::size_t count = 0;
  for (char a : active_) count += a != 0;
  return count;
}

void AsyncDagSimulator::begin_partition(std::vector<int> group_of_client) {
  if (group_of_client.size() != dataset_.clients.size()) {
    throw std::invalid_argument("AsyncDagSimulator::begin_partition: group count mismatch");
  }
  const auto groups = std::make_shared<const std::vector<int>>(std::move(group_of_client));
  // Transactions commit with round = floor(event time). ceil(now) masks
  // everything committed from `now` on when the partition starts on an
  // integral boundary (the scenario runner always does); starting mid-unit
  // leaves the current unit's commits visible — sub-unit fuzz the integral
  // round granularity cannot express.
  const std::size_t start_round = static_cast<std::size_t>(std::ceil(now_));
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.set_visibility_mask(
        static_cast<int>(i),
        tipsel::make_group_visibility_mask(groups, (*groups)[i], start_round));
  }
  partition_groups_ = groups;
  partition_start_round_ = start_round;
  partitioned_ = true;
}

void AsyncDagSimulator::heal_partition() {
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.set_visibility_mask(static_cast<int>(i), nullptr);
  }
  partition_groups_.reset();
  partition_start_round_ = 0;
  partitioned_ = false;
}

void AsyncDagSimulator::process_event(Event event, std::vector<AsyncStepRecord>& records) {
  now_ = event.time;
  if (event.kind == Event::Kind::kBroadcast) {
    // The transaction reaches the network: insert it into the DAG. The
    // gate was already evaluated against the publisher's view at prepare
    // time; the virtual round is the event time floored.
    obs::ScopedSpan span(
        "commit", {{"client", static_cast<std::uint64_t>(event.client)}});
    ScopedCommitTimer commit_timer(net_.dag().store(), perf_);
    const dag::TxId published =
        net_.commit(event.client, event.result, static_cast<std::size_t>(now_));
    span.arg("tx", static_cast<std::uint64_t>(published));
    if (published != dag::kInvalidTx) ++perf_.commits;
    return;
  }

  // A step of a client that left the network: drop it and disarm the clock
  // (set_client_active re-arms on rejoin).
  if (!active_[static_cast<std::size_t>(event.client)]) {
    clock_armed_[static_cast<std::size_t>(event.client)] = 0;
    return;
  }

  // Client training completion: walk, average, train against the *current*
  // DAG; publish (possibly delayed by broadcast latency).
  fl::DagRoundResult result;
  {
    obs::ScopedSpan span(
        "prepare", {{"client", static_cast<std::uint64_t>(event.client)}});
    result = net_.prepare(event.client);
  }
  perf_.tipsel_seconds += result.walk_stats.seconds;
  perf_.train_seconds += result.train_seconds;
  perf_.eval_seconds += result.eval_seconds;
  ++perf_.prepares;
  if (config_.broadcast_latency == 0.0) {
    {
      ScopedCommitTimer commit_timer(net_.dag().store(), perf_);
      result.published = net_.commit(event.client, result, static_cast<std::size_t>(now_));
    }
    if (result.published != dag::kInvalidTx) ++perf_.commits;
  } else {
    events_.push(Event{now_ + config_.broadcast_latency, next_seq_++,
                       Event::Kind::kBroadcast, event.client, result});
  }
  records.push_back({now_, event.client, result});
  ++total_steps_;
  schedule_client_step(event.client);
}

void AsyncDagSimulator::process_step_batch(std::vector<AsyncStepRecord>& records,
                                           std::size_t max_records,
                                           std::optional<double> until) {
  // Replays the serial event loop's bookkeeping eagerly — pops, clock
  // re-arms, broadcast scheduling, record slots, RNG draws, all in exact
  // event order — while deferring only the expensive prepares. The batch
  // ends where the serial loop would hit its first cross-event dependency:
  // a broadcast (a commit the next prepare must observe), the record quota,
  // or the virtual-time horizon. Events spawned by batch members (a fast
  // client's next completion) join the batch naturally because each
  // iteration re-reads the queue top.
  struct DeferredStep {
    int client;
    std::size_t record_index;
    std::uint64_t broadcast_seq;  // the placeholder awaiting this result
  };
  std::vector<DeferredStep> steps;
  // Broadcast placeholders cannot sit in the priority queue while their
  // results are still being computed (the queue hands out copies), so the
  // placeholders are parked here and pushed once the prepares finish. The
  // loop below stops before any event the earliest parked broadcast would
  // precede in queue order, so parking never reorders commits.
  std::vector<Event> pending_broadcasts;
  std::size_t produced = 0;

  while (!events_.empty() && produced < max_records) {
    const Event& top = events_.top();
    if (top.kind != Event::Kind::kClientStep) break;
    if (until && top.time > *until) break;
    // A parked broadcast due before (or tied ahead of, by sequence) the next
    // step is a commit that step's prepare must observe: end the batch and
    // let the outer loop run it. pending_broadcasts is (time, seq)-ordered
    // by construction, so front() is the earliest.
    if (!pending_broadcasts.empty() && top > pending_broadcasts.front()) break;
    Event event = top;
    events_.pop();
    now_ = event.time;
    const auto idx = static_cast<std::size_t>(event.client);
    if (!active_[idx]) {
      clock_armed_[idx] = 0;
      continue;
    }
    const std::uint64_t broadcast_seq = next_seq_++;
    pending_broadcasts.push_back(Event{now_ + config_.broadcast_latency, broadcast_seq,
                                       Event::Kind::kBroadcast, event.client, {}});
    records.push_back({now_, event.client, {}});
    steps.push_back({event.client, records.size() - 1, broadcast_seq});
    ++produced;
    ++total_steps_;
    schedule_client_step(event.client);
  }

  // Prepare phase: all deferred steps observe the same DAG (no commit
  // happened since the batch began). Steps of the same client are chained
  // in event order — client state (walk RNG, visibility mask) is sequential.
  std::vector<std::vector<std::size_t>> per_client;  // indices into `steps`
  std::unordered_map<int, std::size_t> client_slot;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    auto [it, inserted] = client_slot.emplace(steps[i].client, per_client.size());
    if (inserted) per_client.emplace_back();
    per_client[it->second].push_back(i);
  }
  std::vector<fl::DagRoundResult> results(steps.size());
  if (pool_ && per_client.size() > 1 && obs::tracing_enabled()) {
    obs::trace_detail::instant("step_batch", {{"steps", steps.size()},
                                              {"chains", per_client.size()}});
  }
  if (net_.batch_exec_enabled() && !steps.empty()) {
    // Fused execution: walks run per chain, train/eval phases run as SoA
    // groups across chains (bit-identical to the per-client path).
    std::vector<std::vector<int>> chains(per_client.size());
    for (std::size_t chain = 0; chain < per_client.size(); ++chain) {
      chains[chain].reserve(per_client[chain].size());
      for (std::size_t i : per_client[chain]) chains[chain].push_back(steps[i].client);
    }
    std::vector<std::vector<fl::DagRoundResult>> prepared;
    net_.prepare_batch(chains, prepared, pool_ ? &*pool_ : nullptr);
    for (std::size_t chain = 0; chain < per_client.size(); ++chain) {
      for (std::size_t j = 0; j < per_client[chain].size(); ++j) {
        results[per_client[chain][j]] = std::move(prepared[chain][j]);
      }
    }
  } else {
    const auto prepare_chain = [&](std::size_t chain) {
      for (std::size_t i : per_client[chain]) {
        obs::ScopedSpan span(
            "prepare", {{"client", static_cast<std::uint64_t>(steps[i].client)}});
        results[i] = net_.prepare(steps[i].client);
      }
    };
    if (pool_ && per_client.size() > 1) {
      pool_->parallel_for(per_client.size(), prepare_chain);
    } else {
      for (std::size_t chain = 0; chain < per_client.size(); ++chain) prepare_chain(chain);
    }
  }

  // Publish the results into the record slots and the parked broadcasts,
  // then release the broadcasts into the queue. steps and
  // pending_broadcasts were appended in lockstep; the seq check enforces
  // that alignment.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (pending_broadcasts[i].seq != steps[i].broadcast_seq) {
      throw std::logic_error("AsyncDagSimulator: batch broadcast misaligned");
    }
    perf_.tipsel_seconds += results[i].walk_stats.seconds;
    perf_.train_seconds += results[i].train_seconds;
    perf_.eval_seconds += results[i].eval_seconds;
    records[steps[i].record_index].result = results[i];
    pending_broadcasts[i].result = std::move(results[i]);
  }
  perf_.prepares += steps.size();
  for (Event& broadcast : pending_broadcasts) events_.push(std::move(broadcast));
}

std::vector<AsyncStepRecord> AsyncDagSimulator::run_steps(std::size_t num_steps) {
  Timer total_timer;
  std::vector<AsyncStepRecord> records;
  while (records.size() < num_steps) {
    if (events_.empty()) throw std::logic_error("AsyncDagSimulator: event queue drained");
    if (pool_ && events_.top().kind == Event::Kind::kClientStep) {
      process_step_batch(records, num_steps - records.size(), std::nullopt);
    } else {
      Event event = events_.top();
      events_.pop();
      process_event(std::move(event), records);
    }
  }
  perf_.total_seconds += total_timer.elapsed_seconds();
  return records;
}

std::vector<AsyncStepRecord> AsyncDagSimulator::run_until(double until) {
  Timer total_timer;
  std::vector<AsyncStepRecord> records;
  while (!events_.empty() && events_.top().time <= until) {
    if (pool_ && events_.top().kind == Event::Kind::kClientStep) {
      process_step_batch(records, ~std::size_t{0}, until);
    } else {
      Event event = events_.top();
      events_.pop();
      process_event(std::move(event), records);
    }
  }
  now_ = until;
  perf_.total_seconds += total_timer.elapsed_seconds();
  return records;
}

std::vector<int> AsyncDagSimulator::apply_poisoning(double p, int class_a, int class_b) {
  Rng poison_rng = Rng(config_.seed).fork(data::kPoisonForkTag);
  const std::vector<int> ids =
      data::poison_fraction(dataset_, p, class_a, class_b, poison_rng);
  poison_class_a_ = class_a;
  poison_class_b_ = class_b;
  // Invalidate by dataset index (handle order), not by client_id — the two
  // need not coincide for custom datasets.
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    if (dataset_.clients[i].poisoned) net_.invalidate_client_cache(static_cast<int>(i));
  }
  return ids;
}

void AsyncDagSimulator::revert_poisoning() {
  for (int idx : data::revert_poisoning(dataset_, poison_class_a_, poison_class_b_)) {
    net_.invalidate_client_cache(idx);
  }
}

std::vector<int> AsyncDagSimulator::true_clusters() const {
  std::vector<int> clusters;
  clusters.reserve(dataset_.clients.size());
  for (const auto& c : dataset_.clients) clusters.push_back(c.true_cluster);
  return clusters;
}

metrics::PurenessResult AsyncDagSimulator::approval_pureness() const {
  return metrics::approval_pureness(net_.dag(), true_clusters());
}

}  // namespace specdag::sim

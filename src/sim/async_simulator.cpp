#include "sim/async_simulator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.hpp"

namespace specdag::sim {

AsyncDagSimulator::AsyncDagSimulator(data::FederatedDataset dataset, nn::ModelFactory factory,
                                     AsyncSimulatorConfig config,
                                     std::vector<AsyncClientProfile> profiles)
    : ClientPopulation(std::move(dataset), std::move(factory), config.client, config.seed,
                       config.store),
      config_(config),
      profiles_(std::move(profiles)),
      rng_(Rng(config.seed).fork(0xA57C)) {
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
  clock_armed_.assign(dataset_.clients.size(), 0);
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    schedule_client_step(static_cast<int>(i));
  }
  // Concurrent prepares need a visibility gap to overlap inside (see the
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
  const std::size_t idx = client_index(client);
  if (active_[idx] == (active ? 1 : 0)) return;
  active_[idx] = active ? 1 : 0;
  // A rejoining client restarts its clock unless a (stale) step event is
  // still queued — process_step_batch re-arms it in that case, keeping at
  // most one clock per client.
  if (active && !clock_armed_[idx]) schedule_client_step(client);
}

void AsyncDagSimulator::begin_partition(std::vector<int> group_of_client) {
  // Transactions commit with round = floor(event time). ceil(now) masks
  // everything committed from `now` on when the partition starts on an
  // integral boundary (the scenario runner always does); starting mid-unit
  // leaves the current unit's commits visible — sub-unit fuzz the integral
  // round granularity cannot express.
  begin_partition_at(std::move(group_of_client), static_cast<std::size_t>(std::ceil(now_)));
}

void AsyncDagSimulator::process_step_batch(std::vector<AsyncStepRecord>& records,
                                           std::size_t max_records, double until) {
  // Runs the event bookkeeping eagerly — pops, clock re-arms, broadcast
  // scheduling, record slots, RNG draws, all in exact event order — while
  // deferring only the expensive prepares. The batch ends at the first
  // cross-event dependency: a broadcast (a commit the next prepare must
  // observe), the record quota, or the virtual-time horizon. Events spawned
  // by batch members (a fast client's next completion) join the batch
  // naturally because each iteration re-reads the queue top.
  //
  // Broadcast placeholders cannot sit in the priority queue while their
  // results are still being computed (the queue hands out copies), so they
  // are parked here — broadcasts[i] belongs to records[first + i] — and
  // pushed once the prepares finish. The loop stops before any event the
  // earliest parked broadcast would precede in queue order, so parking
  // never reorders commits.
  std::vector<Event> broadcasts;
  const std::size_t first = records.size();
  while (!events_.empty() && broadcasts.size() < max_records) {
    const Event& top = events_.top();
    if (top.kind != Event::Kind::kClientStep || top.time > until) break;
    // broadcasts is (time, seq)-ordered by construction, so front() is the
    // earliest parked commit.
    if (!broadcasts.empty() && top > broadcasts.front()) break;
    const int client = top.client;
    now_ = top.time;
    events_.pop();
    const auto idx = static_cast<std::size_t>(client);
    if (!active_[idx]) {
      // A step of a client that left the network: drop it and disarm the
      // clock (set_client_active re-arms on rejoin).
      clock_armed_[idx] = 0;
      continue;
    }
    broadcasts.push_back(Event{now_ + config_.broadcast_latency, next_seq_++,
                               Event::Kind::kBroadcast, client, {}});
    records.push_back({now_, client, {}});
    ++total_steps_;
    schedule_client_step(client);
  }

  // Prepare phase: all deferred steps observe the same DAG (no commit
  // happened since the batch began). Steps of the same client are chained
  // in event order — client state (walk RNG, visibility mask) is
  // sequential. Walks run per chain, training is fused across chains when
  // the executor is enabled (bit-identical to the per-client path).
  std::vector<std::vector<int>> chains;
  std::vector<std::pair<std::size_t, std::size_t>> slots;  // step -> (chain, index)
  std::unordered_map<int, std::size_t> chain_of;
  for (const Event& broadcast : broadcasts) {
    const auto [it, inserted] = chain_of.emplace(broadcast.client, chains.size());
    if (inserted) chains.emplace_back();
    slots.emplace_back(it->second, chains[it->second].size());
    chains[it->second].push_back(broadcast.client);
  }
  if (pool_ && chains.size() > 1 && obs::tracing_enabled()) {
    obs::trace_detail::instant("step_batch", {{"steps", broadcasts.size()},
                                              {"chains", chains.size()}});
  }
  std::vector<std::vector<fl::DagRoundResult>> prepared;
  net_.prepare_batch(chains, prepared, pool_ ? &*pool_ : nullptr);

  // Publish the outcomes into the record slots and the results (with their
  // payloads) into the parked broadcasts, then release the broadcasts into
  // the queue.
  for (std::size_t i = 0; i < broadcasts.size(); ++i) {
    fl::DagRoundResult& result = prepared[slots[i].first][slots[i].second];
    records[first + i].result = result;
    broadcasts[i].result = std::move(result);
    events_.push(std::move(broadcasts[i]));
  }
  prepares_ += broadcasts.size();
}

std::vector<AsyncStepRecord> AsyncDagSimulator::advance(std::size_t max_steps, double until) {
  obs::ScopedSpan span(obs::Phase::kAdvance);
  std::vector<AsyncStepRecord> records;
  while (!events_.empty() && events_.top().time <= until) {
    const bool quota_met = records.size() >= max_steps;
    if (events_.top().kind == Event::Kind::kClientStep) {
      if (quota_met) break;
      process_step_batch(records, max_steps - records.size(), until);
    } else {
      // Past the quota only broadcasts due at now() still commit: under
      // zero latency they belong to the steps just recorded.
      if (quota_met && events_.top().time > now_) break;
      // The transaction reaches the network. Its gate was evaluated against
      // the publisher's view at prepare time; the round is the time floored.
      const Event event = events_.top();
      events_.pop();
      now_ = event.time;
      commit(event.client, event.result, static_cast<std::size_t>(now_));
    }
  }
  return records;
}

std::vector<AsyncStepRecord> AsyncDagSimulator::run_steps(std::size_t num_steps) {
  std::vector<AsyncStepRecord> records =
      advance(num_steps, std::numeric_limits<double>::infinity());
  if (records.size() < num_steps) {
    throw std::logic_error("AsyncDagSimulator: event queue drained");
  }
  return records;
}

std::vector<AsyncStepRecord> AsyncDagSimulator::run_until(double until) {
  std::vector<AsyncStepRecord> records = advance(~std::size_t{0}, until);
  now_ = until;
  return records;
}

}  // namespace specdag::sim

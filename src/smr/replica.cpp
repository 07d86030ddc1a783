#include "src/smr/replica.hpp"

#include <algorithm>
#include <sstream>

namespace mnm::smr {

namespace {

/// The controller's effective config: the static window/batch settings are
/// its starting point, and leader-driven mode is required (all_propose
/// replicas must keep their queues in lockstep, which per-replica live
/// batching would break — force the tuner off there).
TunerConfig make_tuner_config(const ReplicaConfig& config) {
  TunerConfig t = config.tune;
  t.enabled = t.enabled && !config.log.all_propose;
  t.window = config.log.window;
  t.batch = config.batch;
  return t;
}

}  // namespace

std::vector<sim::Time> won_slot_latencies(const Log& log) {
  // Latencies folded out of compacted slot records first, then the live
  // records window — identical to the uncompacted list, in slot order.
  std::vector<sim::Time> out = log.compacted().won_latencies;
  const auto& records = log.records();
  const Slot base = log.records_base();
  for (Slot s = base; s < log.applied_len() && s - base < records.size(); ++s) {
    const SlotRecord& r = records[s - base];
    if (r.proposed_here && r.won_here && !r.noop) {
      out.push_back(r.decided_at - r.enqueued_at);
    }
  }
  return out;
}

std::vector<sim::Time> queue_wait_latencies(const Log& log) {
  std::vector<sim::Time> out = log.compacted().queue_waits;
  const auto& records = log.records();
  const Slot base = log.records_base();
  for (Slot s = base; s < log.applied_len() && s - base < records.size(); ++s) {
    const SlotRecord& r = records[s - base];
    if (r.proposed_here && !r.noop) {
      out.push_back(r.proposed_at >= r.enqueued_at
                        ? r.proposed_at - r.enqueued_at
                        : 0);
    }
  }
  return out;
}

sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      static_cast<double>(sorted.size() - 1) * p / 100.0);
  return sorted[idx];
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "cmds=" << commands_applied << "/" << commands_submitted
     << " slots=" << slots_applied << " noop=" << noop_slots
     << " fast=" << fast_slots << " p50=" << commit_p50
     << " p99=" << commit_p99 << " p999=" << commit_p999
     << " qwait50=" << queue_wait_p50 << " qwait99=" << queue_wait_p99
     << " occ=" << window_occupancy()
     << " cmds/kdelay=" << commands_per_kdelay();
  if (!tuner_trajectory.empty()) {
    os << " tune=" << tuner_trajectory;
  }
  if (snapshots_taken > 0 || snapshots_installed > 0 || catchup_bytes > 0) {
    os << " snaps=" << snapshots_taken << "+" << snapshots_installed
       << " truncated=" << slots_truncated << " catchupB=" << catchup_bytes;
  }
  return os.str();
}

Replica::Replica(sim::Executor& exec, core::ConsensusEngine& engine,
                 core::Omega& omega, StateMachine& sm, ReplicaConfig config)
    : tuner_(make_tuner_config(config)),
      log_(exec, engine, omega, sm, config.log),
      config_(config) {
  // Same validation rule as LogConfig::window (see kMaxWindow): a batch of
  // 0 flushed nothing and grew the open batch without bound.
  config_.batch = std::clamp<std::size_t>(config_.batch, 1, kMaxWindow);
  log_.set_tuner(&tuner_);
}

void Replica::submit(Bytes command) {
  ++submitted_;
  open_batch_.push_back(std::move(command));
  if (open_batch_.size() >= live_batch()) flush();
}

void Replica::flush() {
  if (open_batch_.empty()) return;
  // The pump encodes at launch; with tuning on it may merge consecutive
  // groups up to the live batch — flushing early costs no batching power.
  log_.enqueue_commands(std::move(open_batch_));
  open_batch_.clear();
}

RunStats Replica::stats() const {
  RunStats out;
  out.commands_submitted = submitted_;
  out.slots_applied = log_.applied_len();
  // Seed with the sums folded out of compacted slots, then walk the live
  // records window; together they cover every applied slot exactly once.
  const CompactedStats& folded = log_.compacted();
  out.commands_applied = folded.commands;
  out.noop_slots = folded.noop_slots;
  out.fast_slots = folded.fast_slots;
  out.last_apply_at = folded.last_apply_at;
  out.occupancy_slots = folded.occupancy_slots;
  out.occupancy_limit = folded.occupancy_limit;
  const auto& records = log_.records();
  const Slot base = log_.records_base();
  for (Slot s = base; s < out.slots_applied && s - base < records.size();
       ++s) {
    const SlotRecord& r = records[s - base];
    out.commands_applied += r.commands;
    if (r.noop) ++out.noop_slots;
    if (r.fast) ++out.fast_slots;
    out.last_apply_at = std::max(out.last_apply_at, r.applied_at);
    if (r.proposed_here) {
      out.occupancy_slots += r.in_flight;
      out.occupancy_limit += r.window_limit;
    }
  }
  std::vector<sim::Time> latencies = won_slot_latencies(log_);
  std::sort(latencies.begin(), latencies.end());
  out.commit_p50 = latency_percentile(latencies, 50);
  out.commit_p99 = latency_percentile(latencies, 99);
  out.commit_p999 = latency_percentile(latencies, 99.9);
  std::vector<sim::Time> waits = queue_wait_latencies(log_);
  std::sort(waits.begin(), waits.end());
  out.queue_wait_p50 = latency_percentile(waits, 50);
  out.queue_wait_p99 = latency_percentile(waits, 99);
  out.snapshots_taken = log_.snapshots_taken();
  out.snapshots_installed = log_.snapshots_installed();
  out.slots_truncated = log_.slots_truncated();
  out.catchup_bytes = log_.catchup_bytes();
  out.catchup_rejected = log_.catchup_rejected();
  if (tuner_.enabled()) {
    out.tuner_epochs = tuner_.trajectory().size();
    out.tuner_window = tuner_.window();
    out.tuner_batch = tuner_.batch();
    out.tuner_trajectory = tuner_.trajectory_fingerprint();
  }
  return out;
}

}  // namespace mnm::smr

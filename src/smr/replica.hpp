// smr::Replica — the client-facing end of the replication stack.
//
// submit(cmd) batches commands into slot payloads (up to `batch` commands
// per slot — the amortization every log replication system leans on: one
// consensus round commits many commands), hands them to smr::Log, and
// reports a RunStats with throughput, per-slot commit-latency percentiles,
// and path/no-op counts. One Replica per process; the replicated state
// machine is pluggable.
//
// With `tune.enabled` (auto-tuning) the replica owns an smr::Tuner and
// window/batch become live, clamped settings instead of constants: the
// tuner starts from the configured window/batch, the Log's pump reads the
// live window per slot and merges queued command groups up to the live
// batch, and kv::Router consults flush_hold() to decide flush-now vs
// pack-more. Requires leader-driven mode (all_propose forces the tuner
// off — per-replica live batching would break the lockstep queues the
// Byzantine engines need).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/smr/log.hpp"
#include "src/smr/tuner.hpp"

namespace mnm::smr {

struct ReplicaConfig {
  /// Max commands packed into one slot payload. Clamped into [1, kMaxWindow]
  /// at construction (same rule as LogConfig::window: 0 misbehaved
  /// quietly). With tune.enabled this is the tuner's *initial* batch.
  std::size_t batch = 4;
  LogConfig log{};
  /// Auto-tuning switch + bounds. tune.window/tune.batch are overwritten
  /// with the configured log.window/batch at construction so the static
  /// settings are the controller's starting point — one knob, not two.
  TunerConfig tune{};
};

/// Enqueue → local-decide latencies of the applied slots this log proposed
/// and won (the slots whose commit latency is attributable to this
/// replica). Unsorted; callers aggregating several replicas concatenate
/// first, then sort once.
std::vector<sim::Time> won_slot_latencies(const Log& log);

/// Enqueue → propose waits of every applied slot this log proposed — the
/// queue-wait signal the tuner adapts from, exported so bench rows and
/// tests can assert on the controller's own inputs. Unsorted.
std::vector<sim::Time> queue_wait_latencies(const Log& log);

/// Index-based percentile over a latency list sorted ascending (p in
/// 0..100, fractional percentiles like 99.9 included; zero when empty).
/// The single definition RunStats and the harness report share.
sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p);

/// End-of-run report for one replica.
struct RunStats {
  std::uint64_t commands_submitted = 0;
  std::uint64_t commands_applied = 0;
  Slot slots_applied = 0;
  std::uint64_t noop_slots = 0;
  std::uint64_t fast_slots = 0;  // slots whose local decision was fast-path
  sim::Time last_apply_at = 0;
  /// Commit latency (enqueue → local decide, sim-time) percentiles over the
  /// slots this replica proposed and won. Zero when it won none. p999 is
  /// the production-scale tail metric: one straggler slot per thousand is
  /// what a p50/p99 pair misses.
  sim::Time commit_p50 = 0;
  sim::Time commit_p99 = 0;
  sim::Time commit_p999 = 0;
  /// Queue wait (enqueue → propose) percentiles over the slots this replica
  /// proposed — the tuner's saturation signal.
  sim::Time queue_wait_p50 = 0;
  sim::Time queue_wait_p99 = 0;
  /// Window occupancy as integer sums (launch-time open slots / live window
  /// limit, summed over proposed slots): ratio-of-sums is the mean
  /// occupancy, and the integer parts fingerprint exactly.
  std::uint64_t occupancy_slots = 0;
  std::uint64_t occupancy_limit = 0;
  double window_occupancy() const {
    return ratio(occupancy_slots, occupancy_limit);
  }
  /// Controller outcome (zeros / empty when auto-tuning is off).
  std::uint64_t tuner_epochs = 0;
  std::size_t tuner_window = 0;
  std::size_t tuner_batch = 0;
  std::string tuner_trajectory;
  /// Recovery counters (all zero when snapshotting is off): snapshots this
  /// replica cut locally vs installed from a peer, log slots freed by
  /// compaction, catch-up response bytes consumed, and malformed or
  /// unusable control frames dropped.
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t slots_truncated = 0;
  std::uint64_t catchup_bytes = 0;
  std::uint64_t catchup_rejected = 0;
  /// Applied commands per 1000 sim-time units — the pipelining headline.
  double commands_per_kdelay() const {
    return ratio(1000 * commands_applied, last_apply_at);
  }

  std::string summary() const;
};

class Replica {
 public:
  Replica(sim::Executor& exec, core::ConsensusEngine& engine,
          core::Omega& omega, StateMachine& sm, ReplicaConfig config);

  /// Spawn the log's loops. Call exactly once, after engine.start().
  void start() { log_.start(); }

  /// Queue a command; auto-flushes a full batch into the log.
  void submit(Bytes command);
  /// Flush a partially filled batch.
  void flush();

  /// True while flushing a partial batch now would only queue it behind an
  /// already-saturated window — the pack-more signal kv::Router's flush
  /// task waits out (always false with auto-tuning off, so fixed configs
  /// keep the one-yield flush behavior bit-for-bit).
  bool flush_hold() const {
    return tuner_.enabled() && !open_batch_.empty() &&
           open_batch_.size() < tuner_.batch() && log_.pending() > 0;
  }

  Log& log() { return log_; }
  const Log& log() const { return log_; }
  const Tuner& tuner() const { return tuner_; }
  /// Live batch limit (the tuner's when enabled, the config constant
  /// otherwise).
  std::size_t live_batch() const {
    return tuner_.enabled() ? tuner_.batch() : config_.batch;
  }
  /// No open batch, nothing pending, every proposed slot applied.
  bool idle() const { return open_batch_.empty() && log_.quiescent(); }
  std::uint64_t commands_submitted() const { return submitted_; }

  RunStats stats() const;

 private:
  Tuner tuner_;  // before log_: the log holds a pointer to it
  Log log_;
  ReplicaConfig config_;
  std::vector<Bytes> open_batch_;
  std::uint64_t submitted_ = 0;
};

}  // namespace mnm::smr

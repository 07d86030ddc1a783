// Fixed-seed determinism of whole-cluster runs.
//
// The event-loop refactor (pooled events, inline callbacks, opt-in cancel
// cells) must preserve the executor's (time, seq) ordering contract exactly:
// the same seed has to produce the same decisions, the same decision times,
// and the same operation counts, run after run. These tests pin that for
// every algorithm, including runs with faults.
//
// Every config below is also pinned against a checked-in golden corpus
// (tests/golden/determinism.txt, one line per config): run-to-run equality
// proves reproducibility, the corpus proves a refactor left behaviour
// unchanged. Regenerate it with scripts/regolden.sh after a change that is
// meant to move a fingerprint, and say which lines moved and why.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

/// Everything observable a run produces, flattened for equality checks.
struct Fingerprint {
  std::vector<ProcessId> ids;
  std::vector<bool> decided;
  std::vector<std::string> decisions;
  std::vector<sim::Time> decided_at;
  std::optional<std::string> value;
  sim::Time first_delay = 0;
  std::uint64_t msgs = 0, reads = 0, writes = 0, perms = 0, sigs = 0, verifs = 0;
  // Executor events: an added or dropped event (a stray timer, a waiter
  // woken twice) shows here even when no decision time moves.
  std::uint64_t events = 0;
  // SMR mode: applied logs (in `decisions`, joined) plus the multi-slot
  // metrics, so a reordered pipeline cannot hide behind equal counts.
  Slot slots = 0;
  std::uint64_t cmds = 0;
  sim::Time p50 = 0, p99 = 0, p999 = 0;
  // Queue-wait percentiles and the integer occupancy sums: a pipeline whose
  // proposal scheduling drifted cannot hide behind equal commit times.
  sim::Time qw50 = 0, qw99 = 0;
  std::uint64_t occ_slots = 0, occ_limit = 0;
  // Auto-tuning: the per-epoch adaptation trajectory itself (window/batch
  // decisions and the epoch count), byte-for-byte. Empty when tuning is
  // off, so fixed-config fingerprints are unchanged by the tuner's
  // existence.
  std::uint64_t tuner_epochs = 0;
  std::string tuner_trajectory;
  // KV mode: per-shard effective op counts, the combined store/session
  // hash, client-visible latency percentiles, and the retry/dedup counters
  // — a sharded run whose partitioning, dedup decisions or reply timing
  // drifted cannot fingerprint equal.
  std::uint64_t kv_ops = 0, kv_retries = 0, kv_dups = 0, kv_forged = 0,
                kv_hash = 0;
  std::vector<std::uint64_t> kv_shard_ops;
  sim::Time kv_p50 = 0, kv_p99 = 0, kv_p999 = 0;
  // Reconfiguration: the decided epoch history and the migration traffic it
  // carried — the exact simulated times the routing table flipped, the
  // pairs each INSTALL moved, every WrongEpoch bounce a client absorbed. A
  // resharding run whose seal/drain/install interleaving drifted cannot
  // fingerprint equal. All zero/empty for static (no-plan) runs.
  std::uint64_t rc_epoch = 0, rc_migrations = 0, rc_keys_moved = 0,
                rc_proposals = 0, rc_bounces = 0;
  std::vector<sim::Time> rc_flips;
  // Recovery: snapshot cadence, compaction and catch-up accounting, plus the
  // rejoin timestamps — a crash-and-rejoin run whose recovery trajectory
  // (when snapshots were cut, how many slots were truncated, how many bytes
  // the rejoiner fetched) drifted cannot fingerprint equal.
  std::uint64_t snaps_taken = 0, snaps_installed = 0, truncated = 0,
                catchup_bytes = 0;
  std::vector<sim::Time> rejoined_at;
  // Transactions: commit/abort/conflict/recovery counts, the conserved
  // balance sum, residual locks (the lock-table *contents* fold into
  // kv_hash), and committed-transfer latency percentiles — a transactional
  // run whose 2PC interleaving, no-wait conflict outcomes or crash-recovery
  // replay drifted cannot fingerprint equal. All zero for plain runs.
  std::uint64_t txns = 0, txn_commits = 0, txn_aborts = 0, txn_conflicts = 0,
                txn_recoveries = 0, txn_locks = 0;
  std::int64_t txn_balance = 0;
  sim::Time txn_p50 = 0, txn_p999 = 0;
  // Byzantine wire path: t-send suffix-decode accounting. Pinning these says
  // the decode-cost optimization is itself deterministic — the same seed
  // skips the same prefixes — without perturbing the (time, seq) schedule
  // the fields above capture.
  std::uint64_t tsend_deliveries = 0, entries_decoded = 0, entries_skipped = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const RunReport& r) {
  Fingerprint f;
  for (const auto& p : r.processes) {
    f.ids.push_back(p.id);
    f.decided.push_back(p.decided);
    f.decisions.push_back(p.decision);
    f.decided_at.push_back(p.decided_at);
    f.rejoined_at.push_back(p.rejoined_at);
  }
  f.value = r.decided_value;
  f.first_delay = r.first_decision_delay;
  f.msgs = r.messages_sent;
  f.reads = r.mem_reads;
  f.writes = r.mem_writes;
  f.perms = r.permission_changes;
  f.sigs = r.signatures;
  f.verifs = r.verifications;
  f.events = r.events;
  f.slots = r.slots_applied;
  f.cmds = r.commands_applied;
  f.p50 = r.commit_p50;
  f.p99 = r.commit_p99;
  f.p999 = r.commit_p999;
  f.qw50 = r.queue_wait_p50;
  f.qw99 = r.queue_wait_p99;
  f.occ_slots = r.occupancy_slots;
  f.occ_limit = r.occupancy_limit;
  f.tuner_epochs = r.tuner_epochs;
  f.tuner_trajectory = r.tuner_trajectory;
  f.kv_ops = r.kv_ops;
  f.kv_retries = r.kv_retries;
  f.kv_dups = r.kv_duplicates;
  f.kv_forged = r.kv_forged;
  f.kv_hash = r.kv_store_hash;
  f.kv_shard_ops = r.kv_shard_ops;
  f.kv_p50 = r.kv_op_p50;
  f.kv_p99 = r.kv_op_p99;
  f.kv_p999 = r.kv_op_p999;
  f.rc_epoch = r.reconfig_epoch;
  f.rc_migrations = r.reconfig_migrations;
  f.rc_keys_moved = r.reconfig_keys_moved;
  f.rc_proposals = r.reconfig_proposals;
  f.rc_bounces = r.reconfig_bounces;
  f.rc_flips = r.reconfig_flip_times;
  f.snaps_taken = r.snapshots_taken;
  f.snaps_installed = r.snapshots_installed;
  f.truncated = r.slots_truncated;
  f.catchup_bytes = r.catchup_bytes;
  f.txns = r.kv_txns;
  f.txn_commits = r.kv_txn_commits;
  f.txn_aborts = r.kv_txn_aborts;
  f.txn_conflicts = r.kv_txn_conflicts;
  f.txn_recoveries = r.kv_txn_recoveries;
  f.txn_locks = r.kv_locks_held;
  f.txn_balance = r.kv_txn_balance;
  f.txn_p50 = r.kv_txn_commit_p50;
  f.txn_p999 = r.kv_txn_commit_p999;
  f.tsend_deliveries = r.tsend_deliveries;
  f.entries_decoded = r.history_entries_decoded;
  f.entries_skipped = r.history_entries_skipped;
  return f;
}

/// One line per config: `name field=value ...`, vectors comma-joined.
/// Strings are escaped to printable ASCII so the corpus diffs cleanly.
class LineWriter {
 public:
  explicit LineWriter(const std::string& name) { out_ << name; }

  template <class T>
  LineWriter& field(const char* key, const T& v) {
    out_ << ' ' << key << '=';
    put(v);
    return *this;
  }
  template <class T>
  LineWriter& field(const char* key, const std::vector<T>& vs) {
    out_ << ' ' << key << '=';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out_ << ',';
      put(vs[i]);
    }
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  template <class T>
  void put(const T& v) {
    out_ << +v;
  }
  void put(bool v) { out_ << (v ? 1 : 0); }
  void put(const std::optional<std::string>& v) {
    if (v.has_value()) {
      put(*v);
    } else {
      out_ << '-';
    }
  }
  void put(const std::string& s) {
    out_ << '"';
    for (const char ch : s) {
      const auto u = static_cast<unsigned char>(ch);
      if (u > ' ' && u < 0x7F && ch != '"' && ch != '\\' && ch != ',') {
        out_ << ch;
      } else {
        char esc[5];
        std::snprintf(esc, sizeof esc, "\\x%02x", u);
        out_ << esc;
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
};

std::string golden_line(const std::string& name, const Fingerprint& f) {
  LineWriter w(name);
  w.field("ids", f.ids)
      .field("decided", f.decided)
      .field("decisions", f.decisions)
      .field("decided_at", f.decided_at)
      .field("value", f.value)
      .field("first_delay", f.first_delay)
      .field("msgs", f.msgs)
      .field("reads", f.reads)
      .field("writes", f.writes)
      .field("perms", f.perms)
      .field("sigs", f.sigs)
      .field("verifs", f.verifs)
      .field("events", f.events)
      .field("slots", f.slots)
      .field("cmds", f.cmds)
      .field("p50", f.p50)
      .field("p99", f.p99)
      .field("p999", f.p999)
      .field("qw50", f.qw50)
      .field("qw99", f.qw99)
      .field("occ_slots", f.occ_slots)
      .field("occ_limit", f.occ_limit)
      .field("tuner_epochs", f.tuner_epochs)
      .field("tuner_trajectory", f.tuner_trajectory)
      .field("kv_ops", f.kv_ops)
      .field("kv_retries", f.kv_retries)
      .field("kv_dups", f.kv_dups)
      .field("kv_forged", f.kv_forged)
      .field("kv_hash", f.kv_hash)
      .field("kv_shard_ops", f.kv_shard_ops)
      .field("kv_p50", f.kv_p50)
      .field("kv_p99", f.kv_p99)
      .field("kv_p999", f.kv_p999)
      .field("rc_epoch", f.rc_epoch)
      .field("rc_migrations", f.rc_migrations)
      .field("rc_keys_moved", f.rc_keys_moved)
      .field("rc_proposals", f.rc_proposals)
      .field("rc_bounces", f.rc_bounces)
      .field("rc_flips", f.rc_flips)
      .field("snaps_taken", f.snaps_taken)
      .field("snaps_installed", f.snaps_installed)
      .field("truncated", f.truncated)
      .field("catchup_bytes", f.catchup_bytes)
      .field("rejoined_at", f.rejoined_at)
      .field("txns", f.txns)
      .field("txn_commits", f.txn_commits)
      .field("txn_aborts", f.txn_aborts)
      .field("txn_conflicts", f.txn_conflicts)
      .field("txn_recoveries", f.txn_recoveries)
      .field("txn_locks", f.txn_locks)
      .field("txn_balance", f.txn_balance)
      .field("txn_p50", f.txn_p50)
      .field("txn_p999", f.txn_p999)
      .field("tsend_deliveries", f.tsend_deliveries)
      .field("entries_decoded", f.entries_decoded)
      .field("entries_skipped", f.entries_skipped);
  return w.str();
}

// --- The configs: each defined once, run by its own test below and by the
// golden-corpus test. ---

ClusterConfig cluster(Algorithm algo, std::size_t n, std::size_t m,
                      std::uint64_t seed) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.seed = seed;
  return c;
}

ClusterConfig smr(ClusterConfig c, std::size_t commands, std::size_t batch,
                  std::size_t window) {
  c.smr.enabled = true;
  c.smr.commands = commands;
  c.log.batch = batch;
  c.log.window = window;
  return c;
}

ClusterConfig kv(ClusterConfig c, std::size_t shards, std::size_t clients,
                 std::size_t ops_per_client) {
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops_per_client;
  return c;
}

struct Case {
  std::string name;
  std::function<ClusterConfig()> make;
  bool check_ok = true;  // false: attack configs that trip validity accounting
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> v;
    v.push_back({"FastPaxos",
                 [] { return cluster(Algorithm::kFastPaxos, 3, 0, 42); }});
    v.push_back({"ProtectedMemoryPaxos", [] {
                   return cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42);
                 }});
    v.push_back({"AlignedPaxos",
                 [] { return cluster(Algorithm::kAlignedPaxos, 3, 3, 42); }});
    v.push_back({"FastRobust",
                 [] { return cluster(Algorithm::kFastRobust, 3, 3, 42); }});
    v.push_back({"FastRobustWithByzantineLeader",
                 [] {
                   ClusterConfig c = cluster(Algorithm::kFastRobust, 3, 3, 7);
                   c.faults.byzantine[1] =
                       ByzantineStrategy::kCqLeaderEquivocate;
                   return c;
                 },
                 false});
    v.push_back({"PaxosWithCrash", [] {
                   ClusterConfig c = cluster(Algorithm::kPaxos, 3, 0, 11);
                   c.faults.process_crashes[2] = 5;
                   return c;
                 }});
    v.push_back({"SmrFastPaxosPipeline", [] {
                   return smr(cluster(Algorithm::kFastPaxos, 3, 0, 42), 24, 2,
                              4);
                 }});
    v.push_back({"SmrLeaderCrashMidWindow", [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastPaxos, 3, 0, 7), 24, 2, 4);
                   c.faults.process_crashes[1] = 6;
                   return c;
                 }});
    v.push_back({"SmrFastRobustWithByzantineLeader",
                 [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastRobust, 3, 3, 9), 4, 2, 2);
                   c.faults.byzantine[1] =
                       ByzantineStrategy::kCqLeaderEquivocate;
                   return c;
                 },
                 false});
    v.push_back({"SmrFastRobustBackupPath",
                 [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastRobust, 3, 3, 13), 6, 2, 2);
                   c.cq_timeout = 10;
                   c.faults.byzantine[1] =
                       ByzantineStrategy::kCqLeaderEquivocate;
                   return c;
                 },
                 false});
    v.push_back({"SmrCrashAndRejoin", [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastPaxos, 3, 0, 7), 24, 2, 4);
                   c.log.snapshot_interval = 4;
                   c.faults.process_crashes[1] = 6;
                   c.faults.process_rejoins[1] = 400;
                   return c;
                 }});
    v.push_back({"KvCrashAndRejoinRetryStorm", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 7);
                   c.kv.enabled = true;
                   c.kv.shards = 2;
                   c.kv.clients = 6;
                   c.kv.ops_per_client = 8;
                   c.log.batch = 1;
                   c.log.window = 2;
                   c.kv.retry_timeout = 24;
                   c.log.snapshot_interval = 4;
                   c.faults.process_crashes[1] = 7;
                   c.faults.process_rejoins[1] = 600;
                   return c;
                 }});
    v.push_back({"KvSignedCommands", [] {
                   ClusterConfig c = cluster(Algorithm::kFastRobust, 3, 3, 13);
                   c.kv.enabled = true;
                   c.kv.shards = 1;
                   c.kv.clients = 2;
                   c.kv.ops_per_client = 3;
                   c.kv.sign_commands = true;
                   c.faults.byzantine[1] =
                       ByzantineStrategy::kForgeClientCommands;
                   c.horizon = 200000;
                   return c;
                 }});
    v.push_back({"KvSplitDuringZipfian", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 11);
                   c.kv.enabled = true;
                   c.kv.shards = 1;
                   c.kv.clients = 8;
                   c.kv.ops_per_client = 24;
                   c.kv.dist = kv::KeyDist::kZipfian;
                   c.kv.reconfig.push_back(
                       {40, reconfig::ChangeKind::kSplit, 0, 1});
                   return c;
                 }});
    v.push_back({"SmrAutoTuneTrajectory", [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastPaxos, 3, 0, 42), 96, 1, 1);
                   c.log.auto_tune = true;
                   return c;
                 }});
    v.push_back({"SmrAutoTuneUnderLeaderCrash", [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastPaxos, 3, 0, 7), 64, 2, 2);
                   c.log.auto_tune = true;
                   c.faults.process_crashes[1] = 6;
                   return c;
                 }});
    v.push_back({"FixedConfigUnchangedByTunerPlumbing", [] {
                   ClusterConfig c =
                       smr(cluster(Algorithm::kFastPaxos, 3, 0, 42), 24, 2, 4);
                   c.log.auto_tune = false;
                   return c;
                 }});
    v.push_back({"KvShardedZipfian", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 42);
                   c.kv.enabled = true;
                   c.kv.shards = 4;
                   c.kv.clients = 8;
                   c.kv.ops_per_client = 12;
                   c.kv.mix = kv::Mix::kA;
                   c.kv.dist = kv::KeyDist::kZipfian;
                   return c;
                 }});
    v.push_back({"KvRetryStormLeaderCrash", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 7);
                   c.kv.enabled = true;
                   c.kv.shards = 2;
                   c.kv.clients = 6;
                   c.kv.ops_per_client = 8;
                   c.log.batch = 1;
                   c.log.window = 2;
                   c.kv.retry_timeout = 3;
                   c.faults.process_crashes[1] = 9;
                   return c;
                 }});
    v.push_back({"KvAutoTuneWithAdaptiveRetry", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 21);
                   c.kv.enabled = true;
                   c.kv.shards = 2;
                   c.kv.clients = 16;
                   c.kv.ops_per_client = 12;
                   c.log.batch = 1;
                   c.log.window = 1;
                   c.log.auto_tune = true;
                   c.kv.adaptive_retry = true;
                   return c;
                 }});
    v.push_back({"KvFastRobustShard", [] {
                   ClusterConfig c = cluster(Algorithm::kFastRobust, 3, 3, 9);
                   c.kv.enabled = true;
                   c.kv.shards = 1;
                   c.kv.clients = 2;
                   c.kv.ops_per_client = 3;
                   return c;
                 }});
    v.push_back({"KvTxnZipfianContention", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 17);
                   c.kv.enabled = true;
                   c.kv.shards = 3;
                   c.kv.clients = 8;
                   c.kv.ops_per_client = 16;
                   c.kv.txn_fraction = 0.4;
                   c.kv.accounts = 8;
                   c.kv.txn_zipf_theta = 0.95;
                   return c;
                 }});
    v.push_back({"KvTxnCoordinatorCrashRecovery", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 19);
                   c.kv.enabled = true;
                   c.kv.shards = 2;
                   c.kv.clients = 6;
                   c.kv.ops_per_client = 12;
                   c.kv.txn_fraction = 0.5;
                   c.kv.txn_crash_client = 1;
                   c.kv.txn_crash_txn = 1;
                   c.kv.txn_crash_records = 1;
                   c.kv.txn_crash_pause = 200;
                   return c;
                 }});
    v.push_back({"PlainKvUnchangedByTxnPlumbing", [] {
                   ClusterConfig c = cluster(Algorithm::kFastPaxos, 3, 0, 42);
                   c.kv.enabled = true;
                   c.kv.shards = 4;
                   c.kv.clients = 8;
                   c.kv.ops_per_client = 12;
                   return c;
                 }});
    // One SMR and one KV run per remaining engine family, so every branch of
    // the replicated-group builder (message engines, Disk Paxos, PMP at
    // n = f_P + 1 = 2, Aligned Paxos) is pinned in both modes.
    v.push_back({"SmrPaxos", [] {
                   return smr(cluster(Algorithm::kPaxos, 3, 0, 42), 24, 2, 4);
                 }});
    v.push_back({"SmrDiskPaxos", [] {
                   return smr(cluster(Algorithm::kDiskPaxos, 3, 3, 42), 12, 2,
                              4);
                 }});
    v.push_back({"SmrProtectedMemoryPaxosTwoProcesses", [] {
                   return smr(cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42),
                              12, 2, 4);
                 }});
    v.push_back({"SmrAlignedPaxos", [] {
                   return smr(cluster(Algorithm::kAlignedPaxos, 3, 3, 42), 12, 2,
                              4);
                 }});
    v.push_back({"SmrVerbsBackend", [] {
                   ClusterConfig c = smr(
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42), 12,
                       2, 4);
                   c.verbs_backend = true;
                   return c;
                 }});
    v.push_back({"KvPaxos", [] {
                   return kv(cluster(Algorithm::kPaxos, 3, 0, 42), 2, 4, 6);
                 }});
    v.push_back({"KvDiskPaxos", [] {
                   return kv(cluster(Algorithm::kDiskPaxos, 3, 3, 42), 2, 4, 6);
                 }});
    v.push_back({"KvProtectedMemoryPaxosTwoProcesses", [] {
                   return kv(cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42),
                             2, 4, 6);
                 }});
    v.push_back({"KvAlignedPaxos", [] {
                   return kv(cluster(Algorithm::kAlignedPaxos, 3, 3, 42), 2, 4,
                             6);
                 }});
    v.push_back({"KvMergePlan", [] {
                   ClusterConfig c =
                       kv(cluster(Algorithm::kFastPaxos, 3, 0, 23), 2, 6, 16);
                   c.kv.reconfig.push_back(
                       {40, reconfig::ChangeKind::kMerge, 1, 0});
                   return c;
                 }});
    // Single-shot runs of every algorithm family the lines above leave
    // unpinned in that mode: plain Paxos, Disk Paxos, Robust Backup (alone
    // and under both of its Byzantine strategies), the verbs backend, a
    // memory crash and pre-GST delays.
    v.push_back({"Paxos", [] { return cluster(Algorithm::kPaxos, 3, 0, 42); }});
    v.push_back({"DiskPaxos",
                 [] { return cluster(Algorithm::kDiskPaxos, 3, 3, 42); }});
    v.push_back({"RobustBackup",
                 [] { return cluster(Algorithm::kRobustBackup, 3, 3, 42); }});
    v.push_back({"RobustBackupNebEquivocate", [] {
                   ClusterConfig c = cluster(Algorithm::kRobustBackup, 3, 3, 5);
                   c.faults.byzantine[2] = ByzantineStrategy::kNebEquivocate;
                   return c;
                 }});
    v.push_back({"RobustBackupGarbage", [] {
                   ClusterConfig c = cluster(Algorithm::kRobustBackup, 3, 3, 6);
                   c.faults.byzantine[3] = ByzantineStrategy::kGarbage;
                   return c;
                 }});
    v.push_back({"VerbsBackend", [] {
                   ClusterConfig c =
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42);
                   c.verbs_backend = true;
                   return c;
                 }});
    v.push_back({"ProtectedMemoryPaxosMemoryCrash", [] {
                   ClusterConfig c =
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42);
                   c.faults.memory_crashes[1] = 1;
                   return c;
                 }});
    v.push_back({"PaxosPreGstDelays", [] {
                   ClusterConfig c = cluster(Algorithm::kPaxos, 3, 0, 3);
                   c.gst = 300;
                   c.pre_gst_delay = 40;
                   return c;
                 }});
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      v.push_back({"SeedSweep" + std::to_string(seed), [seed] {
                     return cluster(Algorithm::kFastPaxos, 3, 0, seed);
                   }});
    }
    return v;
  }();
  return all;
}

const Case& find_case(const std::string& name) {
  for (const Case& k : cases()) {
    if (k.name == name) return k;
  }
  ADD_FAILURE() << "no config named " << name;
  return cases().front();
}

ClusterConfig config(const std::string& name) {
  return find_case(name).make();
}

void expect_deterministic(const std::string& name) {
  const Case& k = find_case(name);
  const ClusterConfig cfg = k.make();
  const RunReport a = run_cluster(cfg);
  const RunReport b = run_cluster(cfg);
  if (k.check_ok) {
    EXPECT_TRUE(a.all_ok()) << a.summary();
  }
  EXPECT_EQ(fingerprint(a), fingerprint(b))
      << "run 1: " << a.summary() << "\nrun 2: " << b.summary();
}

std::string golden_path() {
  const std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/') + 1) + "golden/determinism.txt";
}

/// Fresh runs of every config against the checked-in corpus. With
/// MNM_REGOLDEN=1 in the environment the corpus is rewritten instead
/// (scripts/regolden.sh does that).
TEST(Determinism, GoldenCorpusMatchesFreshRuns) {
  std::vector<std::string> fresh;
  for (const Case& k : cases()) {
    fresh.push_back(golden_line(k.name, fingerprint(run_cluster(k.make()))));
  }
  const std::string path = golden_path();
  if (std::getenv("MNM_REGOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : fresh) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path
                         << " (run scripts/regolden.sh to create it)";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), fresh.size()) << "config count changed";
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(golden[i], fresh[i]) << "config " << cases()[i].name;
  }
}

TEST(Determinism, FastPaxosSameSeedSameRun) {
  expect_deterministic("FastPaxos");
}

TEST(Determinism, ProtectedMemoryPaxosSameSeedSameRun) {
  expect_deterministic("ProtectedMemoryPaxos");
}

TEST(Determinism, AlignedPaxosSameSeedSameRun) {
  expect_deterministic("AlignedPaxos");
}

TEST(Determinism, FastRobustSameSeedSameRun) {
  expect_deterministic("FastRobust");
}

TEST(Determinism, FastRobustWithByzantineLeaderSameSeedSameRun) {
  // This attack config trips the harness's (strict) validity accounting in
  // the seed too; what this test pins is reproducibility under faults.
  expect_deterministic("FastRobustWithByzantineLeader");
}

TEST(Determinism, PaxosWithCrashSameSeedSameRun) {
  expect_deterministic("PaxosWithCrash");
}

// --- SMR mode: the pipelined log is deterministic too. ---

TEST(Determinism, SmrFastPaxosPipelineSameSeedSameRun) {
  expect_deterministic("SmrFastPaxosPipeline");
}

TEST(Determinism, SmrLeaderCrashMidWindowSameSeedSameRun) {
  expect_deterministic("SmrLeaderCrashMidWindow");
}

TEST(Determinism, SmrFastRobustWithByzantineLeaderSameSeedSameRun) {
  // As in the single-shot Byzantine pin: what matters is reproducibility.
  expect_deterministic("SmrFastRobustWithByzantineLeader");
}

TEST(Determinism, SmrFastRobustBackupPathSameSeedSameRun) {
  // Backup-heavy schedule (Byzantine CQ leader + impatient followers): every
  // slot runs the t-send path, so this fingerprint — which includes the
  // suffix-decode counters — pins that the decode optimization changes cost
  // accounting deterministically and leaves the (time, seq) schedule alone.
  const RunReport a = run_cluster(config("SmrFastRobustBackupPath"));
  EXPECT_GT(a.tsend_deliveries, 0u) << a.summary();
  EXPECT_GT(a.history_entries_skipped, 0u) << a.summary();
  expect_deterministic("SmrFastRobustBackupPath");
}

// --- Crash-and-rejoin: the whole recovery trajectory is deterministic. ---

TEST(Determinism, SmrCrashAndRejoinSameSeedSameRun) {
  // A rejoining replica replays the entire recovery pipeline — snapshot
  // election, catch-up request/response, log truncation — on the simulated
  // schedule. The fingerprint pins the recovery counters and the rejoin
  // timestamps, so a drifting catch-up (different snapshot slot, different
  // fetched byte count) cannot hide behind an eventually-equal log.
  const RunReport a = run_cluster(config("SmrCrashAndRejoin"));
  EXPECT_GT(a.snapshots_installed, 0u) << a.summary();
  EXPECT_GT(a.slots_truncated, 0u) << a.summary();
  EXPECT_GT(a.catchup_bytes, 0u) << a.summary();
  expect_deterministic("SmrCrashAndRejoin");
}

TEST(Determinism, KvCrashAndRejoinRetryStormSameSeedSameRun) {
  // Rejoin under the adversarial KV schedule: client retries racing the
  // restart, session dedup across the snapshot boundary, shard routers
  // rebinding to the new incarnation. All of it must replay byte-for-byte.
  const RunReport a = run_cluster(config("KvCrashAndRejoinRetryStorm"));
  EXPECT_GT(a.snapshots_installed, 0u) << a.summary();
  EXPECT_GT(a.catchup_bytes, 0u) << a.summary();
  expect_deterministic("KvCrashAndRejoinRetryStorm");
}

TEST(Determinism, KvSignedCommandsSameSeedSameRun) {
  // Client-signed commands: every session signs, every replica verifies
  // before the session lookup. HMAC keys derive from the seeded keystore,
  // so the whole signed run — wires, verification counts, store hashes —
  // must replay byte-for-byte. A Byzantine forger is in the mix so the
  // kv_forged counter (part of the fingerprint) is exercised too.
  const RunReport a = run_cluster(config("KvSignedCommands"));
  EXPECT_EQ(a.kv_forged, 2u) << a.summary();
  expect_deterministic("KvSignedCommands");
}

TEST(Determinism, KvSplitDuringZipfianSameSeedSameRun) {
  // Live resharding mid-workload: the config group decides a split while
  // zipfian clients hammer the source shard, the Migrator seals, drains and
  // installs, and in-flight ops bounce with WrongEpoch and re-route. The
  // whole interleaving — flip times, keys moved, every bounce — must replay
  // byte-for-byte from the same seed.
  const RunReport a = run_cluster(config("KvSplitDuringZipfian"));
  EXPECT_EQ(a.reconfig_epoch, 1u) << a.summary();
  EXPECT_GT(a.reconfig_keys_moved, 0u) << a.summary();
  EXPECT_GT(a.reconfig_bounces, 0u) << a.summary();
  expect_deterministic("KvSplitDuringZipfian");
}

// --- Auto-tuning: the adaptation trajectory is itself deterministic. ---

TEST(Determinism, SmrAutoTuneTrajectorySameSeedSameRun) {
  // The controller's per-epoch window/batch decisions ride on executor-time
  // signals only; a fixed seed must pin the whole trajectory (the
  // fingerprint compares it byte-for-byte), not just the final settings.
  const RunReport a = run_cluster(config("SmrAutoTuneTrajectory"));
  EXPECT_GT(a.tuner_epochs, 0u) << a.summary();
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
  expect_deterministic("SmrAutoTuneTrajectory");
}

TEST(Determinism, SmrAutoTuneUnderLeaderCrashSameSeedSameRun) {
  // Adaptation across a leader hand-off: the dead leader's tuner stops, the
  // new leader's adapts from scratch mid-run — all of it on the same
  // deterministic schedule.
  const RunReport a = run_cluster(config("SmrAutoTuneUnderLeaderCrash"));
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
  expect_deterministic("SmrAutoTuneUnderLeaderCrash");
}

TEST(Determinism, FixedConfigFingerprintUnchangedByTunerPlumbing) {
  // auto_tune=false must behave exactly as if the tuner did not exist:
  // no trajectory, no epochs — and the run fingerprints equal.
  const RunReport a = run_cluster(config("FixedConfigUnchangedByTunerPlumbing"));
  EXPECT_EQ(a.tuner_epochs, 0u);
  EXPECT_TRUE(a.tuner_trajectory.empty());
  expect_deterministic("FixedConfigUnchangedByTunerPlumbing");
}

// --- KV mode: the sharded store inherits the determinism invariant. ---

TEST(Determinism, KvShardedZipfianSameSeedSameRun) {
  const RunReport a = run_cluster(config("KvShardedZipfian"));
  EXPECT_EQ(a.kv_shard_ops.size(), 4u) << a.summary();
  EXPECT_GT(a.kv_store_hash, 0u);
  expect_deterministic("KvShardedZipfian");
}

TEST(Determinism, KvRetryStormLeaderCrashSameSeedSameRun) {
  // The adversarial schedule: duplicates from client retries AND a leader
  // hand-off. The fingerprint pins that retry timing, dedup decisions and
  // reply delivery are all on the deterministic (time, seq) schedule.
  const RunReport a = run_cluster(config("KvRetryStormLeaderCrash"));
  EXPECT_GT(a.kv_duplicates, 0u) << a.summary();
  expect_deterministic("KvRetryStormLeaderCrash");
}

TEST(Determinism, KvAutoTuneWithAdaptiveRetrySameSeedSameRun) {
  // Everything adaptive at once: per-shard tuners moving window/batch, the
  // Router's flush-hold packing decisions, and latency-derived retry
  // deadlines. All signals are sim-time-derived, so the whole closed loop
  // must fingerprint identically run to run.
  const RunReport a = run_cluster(config("KvAutoTuneWithAdaptiveRetry"));
  EXPECT_GT(a.tuner_epochs, 0u) << a.summary();
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
  expect_deterministic("KvAutoTuneWithAdaptiveRetry");
}

TEST(Determinism, KvFastRobustShardSameSeedSameRun) {
  expect_deterministic("KvFastRobustShard");
}

// --- Transactions: the 2PC mix and its crash recovery replay too. ---

TEST(Determinism, KvTxnZipfianContentionSameSeedSameRun) {
  // The transactional YCSB+T mix under account contention: prepares racing
  // across shards, no-wait conflicts deciding aborts, per-key decision
  // records releasing locks. The fingerprint folds the commit/abort split,
  // the conflict count and the lock-table state (via kv_hash), so a drifted
  // 2PC interleaving cannot hide behind equal op counts.
  const RunReport a = run_cluster(config("KvTxnZipfianContention"));
  EXPECT_GT(a.kv_txns, 0u) << a.summary();
  EXPECT_GT(a.kv_txn_aborts, 0u) << a.summary();
  expect_deterministic("KvTxnZipfianContention");
}

TEST(Determinism, KvTxnCoordinatorCrashRecoverySameSeedSameRun) {
  // Coordinator crash mid-prepare: client 1's first transfer stops after
  // one completed prepare (one lock held through the pause), then the
  // presumed-abort replay re-drives the stream under the original seqs.
  // The whole crash + recovery trajectory must replay byte-for-byte.
  const RunReport a = run_cluster(config("KvTxnCoordinatorCrashRecovery"));
  EXPECT_EQ(a.kv_txn_recoveries, 1u) << a.summary();
  EXPECT_EQ(a.kv_locks_held, 0u) << a.summary();
  expect_deterministic("KvTxnCoordinatorCrashRecovery");
}

TEST(Determinism, PlainKvFingerprintUnchangedByTxnPlumbing) {
  // txn_fraction = 0 must behave exactly as if the transaction subsystem
  // did not exist: no txn rng draws, no txn counters, no lock fold in the
  // store hash — and the run fingerprints equal.
  const RunReport a = run_cluster(config("PlainKvUnchangedByTxnPlumbing"));
  EXPECT_EQ(a.kv_txns, 0u);
  EXPECT_EQ(a.kv_txn_balance, 0);
  EXPECT_EQ(a.kv_locks_held, 0u);
  expect_deterministic("PlainKvUnchangedByTxnPlumbing");
}

// --- Every engine family in both replicated modes. ---

TEST(Determinism, EngineFamiliesInSmrAndKvSameSeedSameRun) {
  for (const char* name :
       {"SmrPaxos", "SmrDiskPaxos", "SmrProtectedMemoryPaxosTwoProcesses",
        "SmrAlignedPaxos", "SmrVerbsBackend", "KvPaxos", "KvDiskPaxos",
        "KvProtectedMemoryPaxosTwoProcesses", "KvAlignedPaxos"}) {
    SCOPED_TRACE(name);
    expect_deterministic(name);
  }
}

TEST(Determinism, KvMergePlanSameSeedSameRun) {
  // A merge drains every bucket of group 1 into group 0 mid-workload; the
  // seal/drain/install interleaving must replay like the split's does.
  const RunReport a = run_cluster(config("KvMergePlan"));
  EXPECT_EQ(a.reconfig_epoch, 1u) << a.summary();
  EXPECT_GT(a.reconfig_keys_moved, 0u) << a.summary();
  expect_deterministic("KvMergePlan");
}

TEST(Determinism, SingleShotFamiliesSameSeedSameRun) {
  for (const char* name :
       {"Paxos", "DiskPaxos", "RobustBackup", "RobustBackupNebEquivocate",
        "RobustBackupGarbage", "VerbsBackend",
        "ProtectedMemoryPaxosMemoryCrash", "PaxosPreGstDelays"}) {
    SCOPED_TRACE(name);
    expect_deterministic(name);
  }
}

/// Different seeds may legitimately differ, but every seed must be
/// internally reproducible — a sweep catches order-dependent state leaking
/// between runs (e.g. a pool whose reuse pattern changed scheduling).
TEST(Determinism, SeedSweepIsReproducible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ClusterConfig c = config("SeedSweep" + std::to_string(seed));
    const RunReport a = run_cluster(c);
    const RunReport b = run_cluster(c);
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mnm::harness

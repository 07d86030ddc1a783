// Fixed-seed determinism of whole-cluster runs.
//
// The event-loop refactor (pooled events, inline callbacks, opt-in cancel
// cells) must preserve the executor's (time, seq) ordering contract exactly:
// the same seed has to produce the same decisions, the same decision times,
// and the same operation counts, run after run. These tests pin that for
// every algorithm, including runs with faults.
//
// Every config below is also pinned against a checked-in golden corpus
// (tests/golden/determinism.txt, one line per config: its name and its
// RunReport::summary(), which prints every report field): run-to-run
// equality proves reproducibility, the corpus proves a refactor left
// behaviour unchanged. Regenerate it with scripts/regolden.sh after a change
// that is meant to move a fingerprint, and say which lines moved and why.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

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
    // Phase 1 and value adoption of every Paxos family. In each leader
    // crash, p1 crashes after its value reached a quorum (its phase-2 writes
    // were acked, or its accepts were delivered), so the next leader's
    // phase 1 must adopt value-1 rather than propose its own.
    v.push_back({"DiskPaxosLeaderCrash", [] {
                   ClusterConfig c = cluster(Algorithm::kDiskPaxos, 3, 3, 42);
                   c.faults.process_crashes[1] = 2;
                   return c;
                 }});
    v.push_back({"ProtectedMemoryPaxosLeaderCrash", [] {
                   ClusterConfig c =
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42);
                   c.faults.process_crashes[1] = 2;
                   return c;
                 }});
    // A majority of the memories fails after p1 seized them: Aligned Paxos
    // decides with the processes plus the one memory left.
    v.push_back({"AlignedPaxosMemoryMajorityCrash", [] {
                   ClusterConfig c = cluster(Algorithm::kAlignedPaxos, 3, 3, 42);
                   c.faults.memory_crashes[1] = 3;
                   c.faults.memory_crashes[2] = 3;
                   return c;
                 }});
    v.push_back({"PaxosLeaderCrashAfterAccept", [] {
                   ClusterConfig c = cluster(Algorithm::kPaxos, 3, 0, 42);
                   c.faults.process_crashes[1] = 4;
                   return c;
                 }});
    // The end-to-end failover shape (n = 2): p2 seizes every memory and runs
    // phase 1 on the slots p1 left open.
    v.push_back({"KvProtectedMemoryPaxosLeaderCrash", [] {
                   ClusterConfig c = kv(
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42), 2,
                       4, 6);
                   c.faults.process_crashes[1] = 7;
                   return c;
                 }});
    // Fast & Robust's backup joined by a fast decider. A failure-free run
    // never aborts (the schedule is symmetric, so no follower pass comes
    // back short), so p3 crashes after copying the leader's value: p1 has
    // decided fast at t = 2, p2 waits for p3's proof until its timeout,
    // aborts, and the backup must decide p1's value.
    v.push_back({"FastRobustFollowerAbortsAfterFastDecision", [] {
                   ClusterConfig c = cluster(Algorithm::kFastRobust, 3, 3, 42);
                   c.cq_timeout = 30;
                   c.faults.process_crashes[3] = 5;
                   return c;
                 }});
    // The same in a KV shard: once p3 crashes, every later slot's follower
    // panics after a short timeout while the leader has already decided.
    v.push_back({"KvFastRobustShardFollowerCrashPanics", [] {
                   ClusterConfig c =
                       kv(cluster(Algorithm::kFastRobust, 3, 3, 9), 1, 2, 3);
                   c.cq_timeout = 4;
                   c.faults.process_crashes[3] = 7;
                   return c;
                 }});
    // PMP fail-overs that run long enough for the new leader to propose
    // most of the log: one KV shard whose leader crashes early, and an
    // SMR log at n = 3 whose first two leaders crash in turn, so p3 takes
    // over slots p2 had already seized and accepted values in.
    v.push_back({"KvProtectedMemoryPaxosLeaderCrashLongRun", [] {
                   ClusterConfig c = kv(
                       cluster(Algorithm::kProtectedMemoryPaxos, 2, 3, 42), 1,
                       4, 12);
                   c.faults.process_crashes[1] = 5;
                   return c;
                 }});
    v.push_back({"SmrProtectedMemoryPaxosChainedFailover", [] {
                   ClusterConfig c = smr(
                       cluster(Algorithm::kProtectedMemoryPaxos, 3, 3, 42), 24,
                       2, 4);
                   c.faults.process_crashes[1] = 5;
                   c.faults.process_crashes[2] = 15;
                   return c;
                 }});
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
  EXPECT_EQ(a.summary(), b.summary());
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
    fresh.push_back(k.name + ' ' + run_cluster(k.make()).summary());
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
  // did not exist: no txn rng draws and no txn counters (the store hash
  // folds the empty lock table like every other) — and the run
  // fingerprints equal.
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

TEST(Determinism, LeaderCrashPhaseOneSameSeedSameRun) {
  // p2 proposes value-2; deciding value-1 means its phase 1 adopted the
  // value p1 left at a quorum.
  for (const char* name :
       {"DiskPaxosLeaderCrash", "ProtectedMemoryPaxosLeaderCrash",
        "PaxosLeaderCrashAfterAccept"}) {
    SCOPED_TRACE(name);
    const RunReport a = run_cluster(config(name));
    EXPECT_TRUE(a.processes[1].decided) << a.summary();
    EXPECT_EQ(a.processes[1].decision, "value-1") << a.summary();
    expect_deterministic(name);
  }
  const RunReport kv = run_cluster(config("KvProtectedMemoryPaxosLeaderCrash"));
  EXPECT_GT(kv.permission_changes, 0u) << kv.summary();
  expect_deterministic("KvProtectedMemoryPaxosLeaderCrash");
  expect_deterministic("AlignedPaxosMemoryMajorityCrash");
}

TEST(Determinism, FastRobustBackupJoinSameSeedSameRun) {
  const RunReport a =
      run_cluster(config("FastRobustFollowerAbortsAfterFastDecision"));
  EXPECT_TRUE(a.processes[0].fast_path) << a.summary();
  EXPECT_TRUE(a.processes[1].decided) << a.summary();
  EXPECT_FALSE(a.processes[1].fast_path) << a.summary();
  EXPECT_EQ(a.processes[1].decision, "value-1") << a.summary();
  expect_deterministic("FastRobustFollowerAbortsAfterFastDecision");
  expect_deterministic("KvFastRobustShardFollowerCrashPanics");
}

TEST(Determinism, KvProtectedMemoryPaxosLeaderCrashLongRunSameSeedSameRun) {
  const RunReport a =
      run_cluster(config("KvProtectedMemoryPaxosLeaderCrashLongRun"));
  EXPECT_EQ(a.kv_ops, 48u) << a.summary();
  EXPECT_GT(a.permission_changes, 0u) << a.summary();
  expect_deterministic("KvProtectedMemoryPaxosLeaderCrashLongRun");
}

TEST(Determinism, SmrProtectedMemoryPaxosChainedFailoverSameSeedSameRun) {
  const RunReport a =
      run_cluster(config("SmrProtectedMemoryPaxosChainedFailover"));
  EXPECT_FALSE(a.processes[1].log.empty()) << a.summary();
  EXPECT_FALSE(a.processes[2].log.empty()) << a.summary();
  expect_deterministic("SmrProtectedMemoryPaxosChainedFailover");
}

/// Different seeds may legitimately differ, but every seed must be
/// internally reproducible — a sweep catches order-dependent state leaking
/// between runs (e.g. a pool whose reuse pattern changed scheduling).
TEST(Determinism, SeedSweepIsReproducible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ClusterConfig c = config("SeedSweep" + std::to_string(seed));
    const RunReport a = run_cluster(c);
    const RunReport b = run_cluster(c);
    EXPECT_EQ(a.summary(), b.summary()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mnm::harness

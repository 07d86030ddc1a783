// End-to-end tests: every algorithm through the harness, common case first,
// then the paper's headline claims as assertions:
//   - delay counts (2-deciding / 4-delay baselines),
//   - resilience bounds (n ≥ fP+1 / 2fP+1, m ≥ 2fM+1, combined majority),
//   - Byzantine behaviour (silent / equivocating / garbage),
//   - partial synchrony (decisions after GST).

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/harness/cluster.hpp"
#include "src/sim/time.hpp"

namespace mnm::harness {
namespace {

ClusterConfig base(Algorithm algo, std::size_t n, std::size_t m) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  return c;
}

// ---------- Common case: correctness + the paper's delay numbers ----------

TEST(CommonCase, PaxosDecidesInFourDelays) {
  const RunReport r = run_cluster(base(Algorithm::kPaxos, 3, 0));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 4u) << r.summary();
}

TEST(CommonCase, FastPaxosDecidesInTwoDelays) {
  const RunReport r = run_cluster(base(Algorithm::kFastPaxos, 3, 0));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
}

TEST(CommonCase, DiskPaxosDecidesInFourDelays) {
  // §1: "Disk Paxos ... takes at least four delays" — write + verifying read.
  const RunReport r = run_cluster(base(Algorithm::kDiskPaxos, 2, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 4u) << r.summary();
}

TEST(CommonCase, ProtectedMemoryPaxosIsTwoDeciding) {
  // Theorem 5.1: 2-deciding with n ≥ fP+1, m ≥ 2fM+1.
  const RunReport r = run_cluster(base(Algorithm::kProtectedMemoryPaxos, 2, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
}

TEST(CommonCase, FastRobustIsTwoDeciding) {
  // Theorem 4.9 / Lemma B.6: the leader decides after one replicated write.
  const RunReport r = run_cluster(base(Algorithm::kFastRobust, 3, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
  // And the leader's decision came via the fast path.
  EXPECT_TRUE(r.processes[0].fast_path);
}

TEST(CommonCase, RobustBackupDecides) {
  const RunReport r = run_cluster(base(Algorithm::kRobustBackup, 3, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // The slow path costs at least one non-equivocating broadcast round trip
  // (≥ 6 delays, §4 footnote 2).
  EXPECT_GE(r.first_decision_delay, 6u) << r.summary();
}

TEST(CommonCase, AlignedPaxosDecides) {
  const RunReport r = run_cluster(base(Algorithm::kAlignedPaxos, 3, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CommonCase, VerbsBackendMatchesMemBackendOnDelays) {
  for (Algorithm a : {Algorithm::kProtectedMemoryPaxos, Algorithm::kDiskPaxos}) {
    ClusterConfig c = base(a, 2, 3);
    const RunReport plain = run_cluster(c);
    c.verbs_backend = true;
    const RunReport rdma = run_cluster(c);
    EXPECT_TRUE(rdma.all_ok()) << rdma.summary();
    EXPECT_EQ(plain.first_decision_delay, rdma.first_decision_delay)
        << algorithm_name(a);
  }
}

TEST(CommonCase, FastRobustOnVerbsBackend) {
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.verbs_backend = true;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
}

// ---------- Crash resilience at the paper's bounds ----------

TEST(CrashResilience, PmpSurvivesAllButOneProcess) {
  // n ≥ fP + 1: with n = 3, crash p1 and p2 right away; p3 must decide.
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 3, 3);
  c.faults.process_crashes[1] = 0;
  c.faults.process_crashes[2] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_TRUE(r.processes[2].decided);
}

TEST(CrashResilience, PmpSurvivesLeaderCrashMidRun) {
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 3, 3);
  c.faults.process_crashes[1] = 1;  // p1 dies right after starting
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, PmpSurvivesMinorityMemoryCrashes) {
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 2, 5);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[4] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u);  // fast path unaffected
}

TEST(CrashResilience, DiskPaxosSurvivesAllButOneProcess) {
  ClusterConfig c = base(Algorithm::kDiskPaxos, 3, 3);
  c.faults.process_crashes[1] = 0;
  c.faults.process_crashes[3] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, PaxosSurvivesMinorityCrash) {
  ClusterConfig c = base(Algorithm::kPaxos, 5, 0);
  c.faults.process_crashes[1] = 0;
  c.faults.process_crashes[5] = 3;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, AlignedPaxosSurvivesCombinedMinority) {
  // §5.2: any majority of processes+memories suffices. n=3, m=3, 6 agents;
  // crash 1 process + 1 memory (2 < majority needed to block).
  ClusterConfig c = base(Algorithm::kAlignedPaxos, 3, 3);
  c.faults.process_crashes[1] = 0;
  c.faults.memory_crashes[2] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, AlignedPaxosSurvivesMemoryMajorityIfProcessesAlive) {
  // The headline §5.2 case: MORE than half the memories die (2 of 3), yet
  // processes+memories still form a majority (3+1=4 of 6). PMP would be
  // stuck; Aligned Paxos decides.
  ClusterConfig c = base(Algorithm::kAlignedPaxos, 3, 3);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[3] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, PmpBlocksWithoutMemoryMajority) {
  // Negative control for the previous test: PMP cannot terminate when a
  // majority of memories is down (safety holds; termination does not).
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 3, 3);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[3] = 0;
  c.horizon = 3000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement);
  EXPECT_FALSE(r.termination);
}

// ---------- Byzantine failures at n = 2f+1 ----------

TEST(Byzantine, FastRobustToleratesSilentFollower) {
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[3] = ByzantineStrategy::kSilent;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, FastRobustToleratesSilentLeader) {
  // Leader never proposes: followers time out, panic, and the backup decides.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kSilent;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, FastRobustToleratesEquivocatingLeader) {
  // The leader plants different signed values on different memories — the
  // attack dynamic permissions + unanimity are designed to catch.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, RobustBackupToleratesNebEquivocator) {
  ClusterConfig c = base(Algorithm::kRobustBackup, 3, 3);
  c.faults.byzantine[2] = ByzantineStrategy::kNebEquivocate;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, RobustBackupToleratesGarbageWriter) {
  ClusterConfig c = base(Algorithm::kRobustBackup, 3, 3);
  c.faults.byzantine[3] = ByzantineStrategy::kGarbage;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, FastRobustWithFiveProcessesTwoByzantine) {
  // n = 5 = 2f+1 with f = 2.
  ClusterConfig c = base(Algorithm::kFastRobust, 5, 3);
  c.faults.byzantine[4] = ByzantineStrategy::kSilent;
  c.faults.byzantine[5] = ByzantineStrategy::kGarbage;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, SilentLeaderTakesNoPartInMemoryAlgorithms) {
  // kSilent participates in nothing. A silent p1 — the first leader, which
  // owns the memories' write permission from the start — must neither
  // decide nor touch the memories or the network: the run costs no more
  // than the same run with p1 crashed before it starts.
  for (Algorithm a : {Algorithm::kDiskPaxos, Algorithm::kProtectedMemoryPaxos,
                      Algorithm::kAlignedPaxos}) {
    SCOPED_TRACE(algorithm_name(a));
    ClusterConfig silent = base(a, 3, 3);
    silent.faults.byzantine[1] = ByzantineStrategy::kSilent;
    const RunReport r = run_cluster(silent);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_FALSE(r.processes[0].decided) << r.summary();

    ClusterConfig crashed = base(a, 3, 3);
    crashed.faults.process_crashes[1] = 0;
    const RunReport c = run_cluster(crashed);
    EXPECT_LE(r.mem_writes, c.mem_writes)
        << "silent: " << r.summary() << "\ncrashed: " << c.summary();
    EXPECT_LE(r.messages_sent, c.messages_sent)
        << "silent: " << r.summary() << "\ncrashed: " << c.summary();
  }
}

TEST(Modes, RobustBackupRunsSingleShotOnly) {
  // Robust Backup has no ConsensusEngine adapter (Fast & Robust's engine
  // carries it as the backup path): both replicated modes refuse it.
  ClusterConfig smr = base(Algorithm::kRobustBackup, 3, 3);
  smr.smr.enabled = true;
  EXPECT_THROW(run_cluster(smr), std::invalid_argument);
  ClusterConfig kv = base(Algorithm::kRobustBackup, 3, 3);
  kv.kv.enabled = true;
  EXPECT_THROW(run_cluster(kv), std::invalid_argument);
}

// ---------- Partial synchrony ----------

TEST(Byzantine, StrategyWithoutATargetIsRejected) {
  // A strategy whose target the run lacks would do nothing and the run
  // would report exactly like a silent process; the harness must refuse.
  // RobustBackup has NEB slots but no Cheap Quorum leader region.
  ClusterConfig no_cq = base(Algorithm::kRobustBackup, 3, 3);
  no_cq.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  EXPECT_THROW(run_cluster(no_cq), std::invalid_argument);

  // Disk Paxos (either mode) has no NEB regions to write garbage into.
  ClusterConfig no_neb = base(Algorithm::kDiskPaxos, 3, 3);
  no_neb.smr.enabled = true;
  no_neb.smr.commands = 4;
  no_neb.faults.byzantine[3] = ByzantineStrategy::kGarbage;
  EXPECT_THROW(run_cluster(no_neb), std::invalid_argument);
  no_neb.faults.byzantine[3] = ByzantineStrategy::kNebEquivocate;
  EXPECT_THROW(run_cluster(no_neb), std::invalid_argument);

  // Forged client commands need KV sessions on Fast & Robust.
  ClusterConfig no_sessions = base(Algorithm::kFastRobust, 3, 3);
  no_sessions.smr.enabled = true;
  no_sessions.smr.commands = 4;
  no_sessions.faults.byzantine[1] = ByzantineStrategy::kForgeClientCommands;
  EXPECT_THROW(run_cluster(no_sessions), std::invalid_argument);
  ClusterConfig no_cq_leader = base(Algorithm::kFastPaxos, 3, 0);
  no_cq_leader.kv.enabled = true;
  no_cq_leader.faults.byzantine[1] = ByzantineStrategy::kForgeClientCommands;
  EXPECT_THROW(run_cluster(no_cq_leader), std::invalid_argument);

  // Every strategy still runs where its target exists.
  ClusterConfig ok = base(Algorithm::kFastRobust, 3, 3);
  ok.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  ok.faults.byzantine[3] = ByzantineStrategy::kGarbage;
  EXPECT_NO_THROW(run_cluster(ok));
}

TEST(PartialSynchrony, FastRobustSafeBeforeGstLiveAfter) {
  // Slow network until GST: the fast path may abort, but agreement holds and
  // everyone decides after GST.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.gst = 400;
  c.pre_gst_delay = 50;
  c.horizon = 120000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(PartialSynchrony, PaxosWithLateGst) {
  ClusterConfig c = base(Algorithm::kPaxos, 3, 0);
  c.gst = 300;
  c.pre_gst_delay = 40;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_GE(r.first_decision_delay, 300u);  // no decision before GST here
}

// ---------- Identical inputs / validity shapes ----------

TEST(Validity, IdenticalInputsDecideThatValue) {
  for (Algorithm a : {Algorithm::kPaxos, Algorithm::kProtectedMemoryPaxos,
                      Algorithm::kFastRobust}) {
    ClusterConfig c = base(a, 3, 3);
    c.identical_inputs = true;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << algorithm_name(a) << ": " << r.summary();
    ASSERT_TRUE(r.decided_value.has_value());
    EXPECT_EQ(*r.decided_value, "value-all");
  }
}

}  // namespace
}  // namespace mnm::harness

// Byzantine ledger: weak Byzantine agreement with n = 2f+1 on a multi-round
// asset-transfer ledger, under three adversaries.
//
// Three banks replicate a ledger of transfer rounds (a multi-slot log on the
// Fast & Robust engine — §4.3): for every round, each bank proposes its own
// candidate order and exactly one wins the slot. With f = 1 Byzantine
// participant out of n = 3, message-passing BFT would need n ≥ 3f+1 = 4
// banks — the paper's Fast & Robust does it with 3 (plus 3 fail-prone
// memories), deciding each slot in 2 delays when nobody misbehaves.
//
// Scenarios: (a) everyone honest — fast-path slots end to end; (b) a silent
// Byzantine bank; (c) a Byzantine *leader* that plants conflicting signed
// orders on different memories (the equivocation attack the paper's dynamic
// permissions + unanimity proofs suppress — it lands on slot 0, which must
// fall back to the robust backup while later slots keep committing);
// (d) a bank flooding garbage.

#include <cstdio>

#include "src/harness/cluster.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

constexpr std::size_t kRounds = 6;  // ledger length in transfer rounds

void run_scenario(const char* title, ClusterConfig config) {
  std::printf("== %s ==\n", title);
  const RunReport r = run_cluster(config);
  for (const auto& p : r.processes) {
    if (p.byzantine) {
      std::printf("  bank%u: BYZANTINE\n", p.id);
    } else if (p.decided) {
      std::printf("  bank%u: ledger of %zu entries, settled at t=%llu%s\n",
                  p.id, p.log.size(),
                  static_cast<unsigned long long>(p.decided_at),
                  p.fast_path ? " (all fast path)" : " (used backup path)");
    } else {
      std::printf("  bank%u: no ledger\n", p.id);
    }
  }
  std::printf(
      "  rounds committed: %llu (fast: %llu)  commit p50/p99: %llu/%llu\n",
      static_cast<unsigned long long>(r.slots_applied),
      static_cast<unsigned long long>(r.fast_slots),
      static_cast<unsigned long long>(r.commit_p50),
      static_cast<unsigned long long>(r.commit_p99));
  std::printf("  ledgers identical across honest banks: %s; everyone settled: %s\n\n",
              r.agreement ? "yes" : "NO — DOUBLE SPEND",
              r.termination ? "yes" : "no");
}

ClusterConfig base() {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;   // 2f+1 with f=1 — below the classic 3f+1 bound
  c.m = 3;   // 2fM+1 fail-prone memories
  c.smr.enabled = true;        // multi-slot: one slot per transfer round
  c.smr.commands = kRounds;    // each bank proposes one order per round
  c.log.batch = 1;
  c.log.window = 2;            // two rounds pipelined
  return c;
}

}  // namespace

int main() {
  std::printf(
      "byzantine_ledger: 3 banks, 1 may be Byzantine (n = 2f+1, §4)\n"
      "a %zu-round ledger on the Fast & Robust engine; each bank proposes\n"
      "its own transfer order per round, exactly one wins each round.\n\n",
      kRounds);

  run_scenario("scenario A: all banks honest", base());

  {
    ClusterConfig c = base();
    c.faults.byzantine[3] = ByzantineStrategy::kSilent;
    run_scenario("scenario B: bank3 Byzantine (silent)", c);
  }
  {
    ClusterConfig c = base();
    c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
    run_scenario(
        "scenario C: bank1 (the leader) equivocates across memories", c);
  }
  {
    ClusterConfig c = base();
    c.faults.byzantine[2] = ByzantineStrategy::kGarbage;
    run_scenario("scenario D: bank2 floods garbage", c);
  }

  std::printf(
      "Note: with plain message passing this would require 4 banks\n"
      "(n >= 3f+1, [43]); RDMA's dynamic permissions + signatures get the\n"
      "same guarantee from 3 (paper Theorem 4.9).\n");
  return 0;
}

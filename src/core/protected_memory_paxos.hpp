// Protected Memory Paxos (paper §5.1, Algorithm 7, Theorem 5.1).
//
// Disk Paxos with dynamic permissions: each memory has a single region whose
// write permission is held *exclusively* by the current leader. Because a
// new leader must seize the permission before writing, a leader whose
// phase-2 write is acknowledged knows no other leader intervened — the
// "uncontended instantaneous guarantee" (§1) — and can decide immediately,
// without Disk Paxos's verifying read. That removes two delays:
//
//   crash consensus, n ≥ fP+1 processes, m ≥ 2fM+1 memories, 2-deciding
//   (p1's first attempt is a single parallel write across the memories).
//
// Memory layout: one region per memory covering "pmp/"; registers
// "pmp/slot/<p>" hold (minProposal, accProposal, value) triples —
// BallotRecords, whose per-memory phase 1 (seize → write1 → read_many) and
// phase-2 write are BallotRegisters' (ballot.hpp). legalChange
// permits exactly one kind of change: a process taking exclusive
// write-ownership for itself (pmp_legal_change) — this is a crash-failure
// algorithm, so the rule only needs to encode the protocol, not defend
// against Byzantine behaviour.
//
// Leader terms. In a log (PmpEngine), every slot has its own regions, and
// each starts with p1 as its writer, so a leader other than p1 would pay
// seize → write1 → read_many → phase-2 write, 8 delays, on every slot. A
// process's slot instances therefore share one LeaderTerm (ballot.hpp):
// the first proposal that cannot take p1's ballot-0 path runs phase 1 at
// one term ballot for its slot, the open slots past it and a look-ahead
// window, all in parallel (6 delays). Each later slot then costs one
// phase-2 write, 2 delays, while the term refills the window behind it.
// Prepared state cannot go stale undetected: phase 1 seized the slot's
// regions, so an acked phase-2 write proves nobody seized them since our
// phase 1, and the write is as safe as one right after it. (The term never
// re-seizes a slot while its phase-2 write is outstanding, so the
// permission the write used is the one that phase 1 took.) A nak (someone
// seized since), or a phase-1 read of a promise above the term ballot,
// ends the term; the slot re-runs phase 1 at a fresh ballot. A process
// that has run a term takes no further ballot-0 attempts: having
// re-seized a region, its ballot-0 write could land over a rival's
// accepted value. Nor does a term ever prepare a slot that took a ballot-0
// attempt: that value sits in p1's register alone, so a phase-1 write
// there could erase a decided value. A directly built instance has no term
// and runs phase 1 per attempt, as in Alg. 7.
//
// Decisions are disseminated with a DECIDE broadcast so every correct
// process decides (the standard extension the paper notes after Alg. 7).

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/core/ballot.hpp"
#include "src/core/decision_latch.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

/// legalChange for PMP regions: the only legal change is `requester` taking
/// exclusive writership (R: Π−{requester}, RW: {requester}).
mem::LegalChangeFn pmp_legal_change(std::vector<ProcessId> all);

/// Create the single PMP region on one memory. Initial exclusive writer is
/// the fixed first leader p1. Multi-slot engines namespace the prefix per
/// slot ("s<slot>/pmp") so one memory serves a whole log.
template <typename MemoryT>
RegionId make_pmp_region(MemoryT& memory, std::size_t n,
                         ProcessId first_leader = kLeaderP1,
                         const std::string& prefix = "pmp") {
  const auto all = all_processes(n);
  return memory.create_region({prefix + "/"},
                              mem::Permission::exclusive_writer(first_leader, all),
                              pmp_legal_change(all));
}

struct PmpConfig {
  std::size_t n = 2;
  /// Register-name namespace; must match the region's make_pmp_region prefix.
  std::string prefix = "pmp";
};

/// One process's PMP slots at the memories: BallotRegisters named
/// "<prefix>/slot/<p>" whose phase 1 seizes exclusive write permission.
/// Protected Memory Paxos and Aligned Paxos's memory agents both use it.
BallotRegisters pmp_slots(sim::Executor& exec,
                          std::vector<mem::MemoryIface*> memories,
                          RegionId region, ProcessId self, std::size_t n,
                          const std::string& prefix);

class ProtectedMemoryPaxos : public DecisionLatch {
 public:
  /// `region` must be the PMP region id, identical across `memories`.
  /// `transport` carries the DECIDE dissemination; `transport.self()` is this
  /// process's identity. With a `term`, the instance is slot `slot` of a log
  /// and runs phase 1 through the term, on the term's registers for it.
  ProtectedMemoryPaxos(sim::Executor& exec,
                       std::vector<mem::MemoryIface*> memories, RegionId region,
                       Transport& transport, Omega& omega, PmpConfig config,
                       std::shared_ptr<LeaderTerm> term = nullptr,
                       Slot slot = 0);

  /// Spawn the DECIDE listener.
  void start();

  sim::Task<Bytes> propose(Bytes v);

 private:
  Transport* transport_;
  Omega* omega_;
  ProcessId self_;
  std::shared_ptr<LeaderTerm> term_;  // null: phase 1 per attempt
  Slot slot_;
  std::optional<BallotRegisters> own_slots_;  // without a term
  BallotRegisters* slots_;  // own_slots_, or the term's for slot_
  Ballots ballots_;
};

}  // namespace mnm::core

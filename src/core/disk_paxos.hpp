// Disk Paxos (Gafni & Lamport [28]) — the static-permission baseline.
//
// Memory-only consensus with n ≥ fP+1 processes and m ≥ 2fM+1 memories, but
// *no* dynamic permissions: every memory exposes a single region that always
// permits all processes to read and write (the paper's "disk model", §3).
// Matching the paper's framing (§1, §6), a leader here cannot know its
// phase-2 write was uncontended, so after writing it must re-read all blocks
// to check that no higher ballot appeared — the verifying read that
// Protected Memory Paxos eliminates with permissions. Common case:
//
//   write block (2 delays) + verifying read (2 delays) = 4 delays,
//
// even when p1 skips phase 1 on its first attempt. Theorem 6.1 shows no
// static-permission shared-memory algorithm can do better than this 2-op
// structure (no 2-deciding algorithm exists); bench_lower_bound measures the
// gap.
//
// Registers: "<prefix>/block/<p>" holds p's block (mbal, bal, value) — Disk
// Paxos's dblock, a BallotRecord — replicated across the m memories by
// direct per-memory writes. The prefix defaults to "dp"; multi-slot engines
// namespace it per slot ("s<slot>/dp") so one memory serves a whole log.
//
// Shared steps (ballot.hpp): both phases are one
// BallotRegisters::majority_write_read — PMP's phase 1 without the seize —
// phase 1 adopting the highest accepted value, phase 2 as the verifying
// read. DECIDE dissemination is DecisionLatch's raw-value listener over the
// Transport abstraction: pass a NetTransport in a standalone setup or a slot
// sub-transport under core::ConsensusEngine.

#pragma once

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

/// Create the single open, static region of the disk model on one memory.
template <typename MemoryT>
RegionId make_disk_region(MemoryT& memory, std::size_t n,
                          const std::string& prefix = "dp") {
  return memory.create_region({prefix + "/"},
                              mem::Permission::open(all_processes(n)),
                              mem::static_permissions());
}

struct DiskPaxosConfig {
  std::size_t n = 2;
  /// Register-name namespace; must match the region's make_disk_region prefix.
  std::string prefix = "dp";
};

class DiskPaxos : public DecisionLatch {
 public:
  /// `transport` carries the DECIDE dissemination; `transport.self()` is this
  /// process's identity.
  DiskPaxos(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
            RegionId region, Transport& transport, Omega& omega,
            DiskPaxosConfig config);

  void start();
  sim::Task<Bytes> propose(Bytes v);

 private:
  Transport* transport_;
  Omega* omega_;
  ProcessId self_;
  BallotRegisters blocks_;
  Ballots ballots_;
};

}  // namespace mnm::core

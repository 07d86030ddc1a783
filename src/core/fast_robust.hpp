// Fast & Robust (paper §4.3, Theorem 4.9, Figure 6).
//
// The composition: run Cheap Quorum; on abort, feed each process's abort
// value — prioritized per Definition 3 — into Preferential Paxos, whose
// embedded consensus is Robust Backup(Paxos). The Composition Lemma (4.8)
// guarantees that a value decided on the fast path is the only value the
// backup can decide:
//
//   T (priority 2): abort values carrying a correct unanimity proof
//   M (priority 1): abort values signed by the leader p1
//   B (priority 0): everything else
//
// A process returns as soon as its own outcome is fixed: the Cheap Quorum
// value the moment Cheap Quorum decides (2 delays for p1), or the backup's
// decision after an abort.
//
// Safety of returning at the fast decision. By the Composition Lemma, once
// a correct process decides v on the fast path every abort value of a
// correct process carries v in class T or M, and the top fP+1 inputs
// Preferential Paxos can adopt (Lemma 4.7) are all v — so the backup can
// only decide v, whether or not the fast decider has taken part yet. A fast
// decider's backup input is its fast value with the same evidence either
// way; returning early changes only when the local caller is told.
//
// Liveness of joining the backup lazily. A slot's backup stack (NEB slots,
// trusted transport, mux, Paxos, Preferential Paxos) is built and started
// only when this process needs it: when it aborts, or — after a fast
// decision — when its panic watch sees some Panic[q] set. Every aborter
// writes Panic before it proposes to the backup (Algorithm 5 line 2), so
// once any correct process aborts, every correct fast decider eventually
// sees the panic and joins, and the backup gets the n − fP inputs it waits
// for. NEB messages live in memory registers, so a late joiner's delivery
// scan reads every earlier broadcast and misses none. In a run where nobody
// panics no backup is ever built.
//
// Weak Byzantine agreement with n ≥ 2fP+1, m ≥ 2fM+1; 2-deciding in the
// common case.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cheap_quorum.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/preferential_paxos.hpp"
#include "src/core/trusted_messaging.hpp"

namespace mnm::core {

/// The verifying priority function of Definition 3.
PriorityFn fast_robust_priority(const crypto::KeyStore& keystore, std::size_t n,
                                ProcessId leader = kLeaderP1);

struct FastRobustConfig {
  std::size_t n = 3;
  std::size_t f = 1;  // fP; requires n >= 2f+1
  CheapQuorumConfig cheap{};
  NebConfig neb{};
  PaxosConfig paxos{};
  /// Register namespace of the backup's NEB slots; must match the
  /// make_neb_regions prefix.
  std::string neb_prefix = "neb";
};

/// The memory regions of one Fast & Robust instance: Cheap Quorum's plus
/// NEB's. Both are created memory-side up front, whether or not the backup
/// ever runs.
struct FastRobustSlotRegions {
  CheapQuorumRegions cq;
  std::map<ProcessId, RegionId> neb;
};

struct FastRobustOutcome {
  Bytes value;
  bool fast = false;        // decided on the Cheap Quorum path
  sim::Time decided_at = 0; // virtual time of this process's decision
};

/// One process's Fast & Robust instance: Cheap Quorum up front, the backup
/// stack built on demand.
class FastRobustProcess {
 public:
  FastRobustProcess(sim::Executor& exec,
                    std::vector<mem::MemoryIface*> memories,
                    FastRobustSlotRegions regions,
                    const crypto::KeyStore& keystore, crypto::Signer signer,
                    Omega& omega, FastRobustConfig config);
  ~FastRobustProcess();

  sim::Task<FastRobustOutcome> propose(Bytes v);

  CheapQuorum& cheap_quorum() { return cheap_; }
  /// Backup-path t-send decode accounting (suffix-only decode proof); zero
  /// while the backup was never joined.
  trusted::TsendStats tsend_stats() const;

 private:
  struct Backup;

  /// Build and start the backup stack, then propose `input` to it.
  sim::Task<PrioInput> run_backup(PrioInput input);
  /// After a fast decision: join the backup once some process panics.
  sim::Task<void> join_on_panic(PrioInput input);

  sim::Executor* exec_;
  std::vector<mem::MemoryIface*> memories_;
  std::map<ProcessId, RegionId> neb_regions_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  Omega* omega_;
  FastRobustConfig config_;
  CheapQuorum cheap_;
  std::unique_ptr<Backup> backup_;
};

}  // namespace mnm::core

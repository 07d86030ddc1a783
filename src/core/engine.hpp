// core::ConsensusEngine — the uniform multi-slot consensus surface.
//
// The paper positions its protocols as drop-in engines for log replication
// systems (DARE, APUS — §1/§2), but each protocol grew its own single-shot
// propose() signature, config type, and transport/region plumbing. This
// header unifies them: an engine exposes
//
//   propose(slot, value) → Task<Decision>      (value, fast/slow path, time)
//
// for an open-ended space of slots, multiplexed over ONE base transport per
// replica (SlotTransportHub's slot-tag namespace) and ONE set of memories
// whose per-slot regions live under "s<slot>/..." name prefixes
// (SlotRegions). Adapters exist for all seven protocols: Paxos, Fast Paxos,
// Disk Paxos, Protected Memory Paxos, Aligned Paxos, Cheap Quorum, and
// Fast & Robust. smr::Log builds pipelined replication on top.
//
// Contract:
//  * propose(slot, v) resolves with the slot's decision (which may be
//    another proposer's value). Calling propose for an already-decided slot
//    resolves immediately. Cheap Quorum — not a full consensus — throws
//    ProposeAborted when it aborts (its abort outcome seeds Fast & Robust's
//    backup; use FastRobustEngine for totality).
//  * open_slot(slot) makes this replica participate passively (acceptor /
//    learner roles) without proposing. Message-routed engines discover and
//    open slots automatically from inbound traffic (the hub's horizon);
//    all-propose engines (Cheap Quorum, Fast & Robust, whose traffic runs
//    through memories) require every correct replica to propose each slot —
//    smr::Log's all_propose mode does exactly that.
//  * decisions() streams every locally decided slot exactly once, in local
//    decision order (slot order NOT guaranteed — that is the pipelining).
//    Single consumer.
//  * slot_horizon()/horizon_signal(): one past the highest slot this
//    replica knows of; grows on open/propose/inbound traffic. smr::Log's
//    leader hand-off re-proposes the open suffix [applied, horizon).
//
// Hot-path invariants preserved: engines add no per-message work beyond one
// slot-id frame (encoded into the same single broadcast buffer) and one
// FlatMap probe; per-slot instance setup allocates, steady-state message
// flow does not.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common.hpp"
#include "src/core/aligned_paxos.hpp"
#include "src/core/cheap_quorum.hpp"
#include "src/core/decision_latch.hpp"
#include "src/core/disk_paxos.hpp"
#include "src/core/fast_robust.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/slot_hub.hpp"
#include "src/core/transport.hpp"
#include "src/crypto/signature.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

/// What a slot decided: the value, whether the local process took a fast
/// (2-delay) path to it, and the virtual time of the local decision.
struct Decision {
  Bytes value;
  bool fast = false;
  sim::Time decided_at = 0;
};

struct SlotDecision {
  Slot slot = 0;
  Decision decision;
};

/// Thrown by engines whose protocol may terminate without deciding
/// (Cheap Quorum's abort, §4.2).
struct ProposeAborted : std::runtime_error {
  explicit ProposeAborted(const std::string& what) : std::runtime_error(what) {}
};

/// Per-slot memory-region namespace: "s<slot>/<base>". All per-slot
/// register names and region prefixes live under it. Memory-backed engines
/// take `base` as a constructor parameter (default "dp"/"pmp"/"cq"/"neb")
/// so several engine instances — e.g. one per KV shard, base
/// kv::shard_ns(g, ...) — can share one set of memories with disjoint
/// region namespaces.
inline std::string slot_ns(Slot s, const std::string& base) {
  std::string out;
  out.reserve(base.size() + 22);
  out += 's';
  out += std::to_string(s);
  out += '/';
  out += base;
  return out;
}

/// Shared, lazily-populated slot → regions table. `make(slot)` must create
/// the slot's regions identically (same order) on EVERY backing memory so
/// region ids agree; it runs exactly once per slot, on first touch by any
/// replica's engine. One SlotRegions instance is shared by all replicas of
/// a cluster.
template <typename Regions>
class SlotRegions {
 public:
  explicit SlotRegions(std::function<Regions(Slot)> make)
      : make_(std::move(make)) {}

  const Regions& get(Slot s) {
    auto it = cache_.find(s);
    if (it == cache_.end()) it = cache_.emplace(s, make_(s)).first;
    return it->second;
  }

 private:
  std::function<Regions(Slot)> make_;
  std::map<Slot, Regions> cache_;
};

class ConsensusEngine {
 public:
  explicit ConsensusEngine(sim::Executor& exec)
      : exec_(&exec), decisions_(exec), horizon_signal_(exec) {}
  ConsensusEngine(const ConsensusEngine&) = delete;
  ConsensusEngine& operator=(const ConsensusEngine&) = delete;
  virtual ~ConsensusEngine() = default;

  virtual ProcessId self() const = 0;
  virtual std::size_t process_count() const = 0;

  /// Spawn the engine's background loops (demux, discovery). Call exactly
  /// once before the first propose/open_slot.
  virtual void start() = 0;

  /// Ensure the slot's instance exists and participates passively.
  virtual void open_slot(Slot slot) = 0;

  /// Propose `value` for `slot`; resolves with the slot's decision.
  virtual sim::Task<Decision> propose(Slot slot, Bytes value) = 0;

  /// Locally decided slots, exactly once each, in local decision order.
  sim::Channel<SlotDecision>& decisions() { return decisions_; }

  /// The replica-to-replica control channel (snapshot catch-up requests and
  /// responses), or nullptr when the engine has no message path for it.
  /// Hub-routed engines expose the hub's reserved control frame; memory-
  /// routed Byzantine engines (Cheap Quorum, Fast & Robust) return nullptr —
  /// replica recovery is not supported on those backends.
  virtual Transport* control_transport() { return nullptr; }

  /// One past the highest slot this replica knows of.
  Slot slot_horizon() const { return horizon_; }
  sim::VersionSignal& horizon_signal() { return horizon_signal_; }

 protected:
  void note_slot(Slot s) {
    if (s + 1 > horizon_) {
      horizon_ = s + 1;
      horizon_signal_.bump();
    }
  }

  void push_decision(Slot s, Decision d) {
    decisions_.send(SlotDecision{s, std::move(d)});
  }

  /// Per-slot decision watcher: pushes into decisions() exactly once,
  /// whether the decision came from our own propose or a learned DECIDE.
  sim::Task<void> watch_decision(Slot s, DecisionLatch* inst) {
    co_await inst->decision_gate().wait();
    push_decision(
        s, Decision{inst->decision(), inst->decided_fast(), inst->decided_at()});
  }

  /// Follower-side slot discovery: open every slot the hub hears about.
  sim::Task<void> discover_from_hub(SlotTransportHub* hub) {
    while (true) {
      const std::uint64_t seen = hub->heard().version();
      while (slot_horizon() < hub->horizon()) open_slot(slot_horizon());
      sim::Select sel(*exec_);
      sel.on(hub->heard(), seen);
      (void)co_await sel;
    }
  }

  sim::Executor* exec_;
  sim::Channel<SlotDecision> decisions_;
  sim::VersionSignal horizon_signal_;
  Slot horizon_ = 0;
};

// ---------------------------------------------------------------------------
// Hub-routed engines (Paxos / Fast Paxos / Disk Paxos / PMP / Aligned) —
// per-slot protocol instances over the slot hub, differing only in how an
// instance is made. Every instance type derives from DecisionLatch
// (decision_latch.hpp: decision()/decided_fast()/decided_at() and
// decision_gate()) and adds start() and propose(Bytes).
// ---------------------------------------------------------------------------

/// Builds one process's protocol instance for a slot over a transport: the
/// one construction each hub-routed protocol has. HubEngine calls it for
/// every slot it opens, over the slot's hub sub-transport; a single-shot
/// run (the harness) calls it once, for slot 0, over a direct transport.
template <typename Inst>
using MakeInstanceFn = std::function<std::unique_ptr<Inst>(Slot, Transport&)>;

template <typename Inst>
class HubEngine : public ConsensusEngine {
 public:
  HubEngine(sim::Executor& exec, Transport& base, MakeInstanceFn<Inst> make)
      : ConsensusEngine(exec), hub_(exec, base), make_(std::move(make)) {}

  ProcessId self() const override { return hub_.self(); }
  std::size_t process_count() const override { return hub_.process_count(); }

  void start() override {
    hub_.start();
    exec_->spawn(discover_from_hub(&hub_));
  }

  void open_slot(Slot slot) override {
    if (slots_.contains(slot)) return;
    std::unique_ptr<Inst> inst = make_(slot, hub_.slot(slot));
    inst->start();
    exec_->spawn(watch_decision(slot, inst.get()));
    slots_.emplace(slot, std::move(inst));
    note_slot(slot);
  }

  sim::Task<Decision> propose(Slot slot, Bytes value) override {
    open_slot(slot);
    Inst* inst = slots_.at(slot).get();
    const Bytes decided = co_await inst->propose(std::move(value));
    co_return Decision{decided, inst->decided_fast(), inst->decided_at()};
  }

  Transport* control_transport() override { return &hub_.control(); }

 private:
  SlotTransportHub hub_;
  MakeInstanceFn<Inst> make_;
  std::map<Slot, std::unique_ptr<Inst>> slots_;
};

/// Paxos per slot over the slot hub. With config.skip_phase1_for_p1 this is
/// the Fast Paxos engine (2-delay steady state under a stable leader).
class PaxosEngine : public HubEngine<Paxos> {
 public:
  /// Slot s's instance (every slot alike).
  static MakeInstanceFn<Paxos> instances(sim::Executor& exec, Omega& omega,
                                         PaxosConfig config) {
    return [&exec, &omega, config](Slot, Transport& t) {
      return std::make_unique<Paxos>(exec, t, omega, config);
    };
  }

  PaxosEngine(sim::Executor& exec, Transport& base, Omega& omega,
              PaxosConfig config)
      : HubEngine(exec, base, instances(exec, omega, config)) {}
};

/// A memory-backed protocol per slot over the slot hub (Disk Paxos, PMP,
/// Aligned Paxos): slot s runs on `regions->get(s)`, which must create the
/// protocol's region (make_disk_region / make_pmp_region — Aligned reuses
/// the PMP format) named slot_ns(s, ns) on every backing memory.
template <typename Inst, typename Config>
class MemoryEngine : public HubEngine<Inst> {
 public:
  /// Slot s's instance, its registers named under slot_ns(s, ns). PMP
  /// instances share one LeaderTerm per maker (one process's engine),
  /// made at the first slot; it prepares slots ahead through `regions`.
  static MakeInstanceFn<Inst> instances(
      sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
      Omega& omega, std::shared_ptr<SlotRegions<RegionId>> regions,
      Config config, std::string ns) {
    return [&exec, &omega, memories = std::move(memories),
            regions = std::move(regions), config = std::move(config),
            ns = std::move(ns),
            term = std::shared_ptr<LeaderTerm>()](Slot s,
                                                  Transport& t) mutable {
      Config c = config;
      c.prefix = slot_ns(s, ns);
      if constexpr (std::is_same_v<Inst, ProtectedMemoryPaxos>) {
        if (term == nullptr) {
          term = std::make_shared<LeaderTerm>(
              exec, config.n, t.self(),
              [&exec, memories, regions, self = t.self(), n = config.n,
               ns](Slot slot) {
                return pmp_slots(exec, memories, regions->get(slot), self, n,
                                 slot_ns(slot, ns));
              });
        }
        term->note_opened(s);
        return std::make_unique<Inst>(exec, memories, regions->get(s), t, omega,
                                      std::move(c), term, s);
      } else {
        return std::make_unique<Inst>(exec, memories, regions->get(s), t, omega,
                                      std::move(c));
      }
    };
  }

  MemoryEngine(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
               Transport& base, Omega& omega,
               std::shared_ptr<SlotRegions<RegionId>> regions, Config config,
               std::string ns = Config{}.prefix)
      : HubEngine<Inst>(exec, base,
                        instances(exec, std::move(memories), omega,
                                  std::move(regions), std::move(config),
                                  std::move(ns))) {}
};

using DiskPaxosEngine = MemoryEngine<DiskPaxos, DiskPaxosConfig>;
using PmpEngine = MemoryEngine<ProtectedMemoryPaxos, PmpConfig>;
using AlignedEngine = MemoryEngine<AlignedPaxos, AlignedPaxosConfig>;

// ---------------------------------------------------------------------------
// Byzantine-model engines (Cheap Quorum / Fast & Robust) — all traffic runs
// through the memories; every correct replica must propose each slot.
// ---------------------------------------------------------------------------

class CheapQuorumEngine : public ConsensusEngine {
 public:
  /// `regions->get(s)` must create make_cq_regions(m, n, leader,
  /// slot_ns(s, ns)) on every backing memory.
  CheapQuorumEngine(sim::Executor& exec,
                    std::vector<mem::MemoryIface*> memories,
                    std::shared_ptr<SlotRegions<CheapQuorumRegions>> regions,
                    const crypto::KeyStore& keystore, crypto::Signer signer,
                    CheapQuorumConfig config, std::string ns = "cq");

  ProcessId self() const override;
  std::size_t process_count() const override { return config_.n; }
  void start() override {}
  void open_slot(Slot slot) override;
  /// Throws ProposeAborted when Cheap Quorum aborts (§4.2): the fast half
  /// alone is not a consensus.
  sim::Task<Decision> propose(Slot slot, Bytes value) override;

 private:
  std::vector<mem::MemoryIface*> memories_;
  std::shared_ptr<SlotRegions<CheapQuorumRegions>> regions_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  CheapQuorumConfig config_;
  std::string ns_;
  std::map<Slot, std::unique_ptr<CheapQuorum>> slots_;
};

class FastRobustEngine : public ConsensusEngine {
 public:
  /// `regions->get(s)` must create make_cq_regions(m, n, leader,
  /// slot_ns(s, cq_ns)) then make_neb_regions(m, n, slot_ns(s, neb_ns)) on
  /// every backing memory, in that order.
  FastRobustEngine(sim::Executor& exec,
                   std::vector<mem::MemoryIface*> memories,
                   std::shared_ptr<SlotRegions<FastRobustSlotRegions>> regions,
                   const crypto::KeyStore& keystore, crypto::Signer signer,
                   Omega& omega, FastRobustConfig config,
                   std::string cq_ns = "cq", std::string neb_ns = "neb");

  ProcessId self() const override;
  std::size_t process_count() const override { return config_.n; }
  void start() override {}
  void open_slot(Slot slot) override;
  sim::Task<Decision> propose(Slot slot, Bytes value) override;

  /// Slot s's instance for this replica: what open_slot adds, and what a
  /// single-shot run (the harness) drives directly for slot 0.
  std::unique_ptr<FastRobustProcess> make_slot(Slot s) const;

  /// Aggregate t-send decode accounting across this replica's backup stacks
  /// (slots that never needed the backup add nothing) — the per-delivery
  /// suffix-only-decode counters bench_log_pipeline and the harness
  /// RunReport surface.
  trusted::TsendStats tsend_stats() const;

 private:
  std::vector<mem::MemoryIface*> memories_;
  std::shared_ptr<SlotRegions<FastRobustSlotRegions>> regions_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  Omega* omega_;
  FastRobustConfig config_;
  std::string cq_ns_;
  std::string neb_ns_;
  std::map<Slot, std::unique_ptr<FastRobustProcess>> slots_;
};

}  // namespace mnm::core

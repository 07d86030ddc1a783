#include "src/core/protected_memory_paxos.hpp"

#include "src/sim/fanout.hpp"

namespace mnm::core {

mem::LegalChangeFn pmp_legal_change(std::vector<ProcessId> all) {
  // Precompute each process's exclusive-writer permission: the memory
  // evaluates legalChange on every change_permission, and rebuilding the
  // target permission there allocated three sets per call.
  std::vector<mem::Permission> targets;
  targets.reserve(all.size());
  for (ProcessId p : all) {
    targets.push_back(mem::Permission::exclusive_writer(p, all));
  }
  return [all = std::move(all), targets = std::move(targets)](
             ProcessId requester, RegionId, const mem::Permission&,
             const mem::Permission& proposed) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i] == requester) return proposed == targets[i];
    }
    return proposed == mem::Permission::exclusive_writer(requester, all);
  };
}

BallotRegisters pmp_slots(sim::Executor& exec,
                          std::vector<mem::MemoryIface*> memories,
                          RegionId region, ProcessId self, std::size_t n,
                          const std::string& prefix) {
  return BallotRegisters(exec, std::move(memories), region, self, n,
                         prefix + "/slot", /*seize=*/true);
}

ProtectedMemoryPaxos::ProtectedMemoryPaxos(
    sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
    RegionId region, Transport& transport, Omega& omega, PmpConfig config,
    std::shared_ptr<LeaderTerm> term, Slot slot)
    : DecisionLatch(exec),
      transport_(&transport),
      omega_(&omega),
      self_(transport.self()),
      term_(std::move(term)),
      slot_(slot),
      ballots_(config.n, self_) {
  if (term_ != nullptr) {
    slots_ = &term_->registers(slot_);
  } else {
    slots_ = &own_slots_.emplace(pmp_slots(exec, std::move(memories), region,
                                           self_, config.n, config.prefix));
  }
}

void ProtectedMemoryPaxos::start() {
  exec_->spawn(decide_listener(*transport_));
}

sim::Task<Bytes> ProtectedMemoryPaxos::propose(Bytes v) {
  while (!decided()) {
    // Wait to become leader (line 9), but wake up if a DECIDE arrives.
    co_await omega_->wait_leadership_or(self_, decision_gate());
    if (decided()) break;

    // p1's first attempt: it already holds every permission, and no slot
    // can contain anything yet — skip straight to phase 2 (the 2-delay
    // fast path). Proposal number 0 is owned by p1. Under a term, only
    // while no term has run phase 1 (see the header).
    std::uint64_t prop_nr = ballots_.attempt(/*skip_phase1=*/true);
    const bool fast_attempt =
        prop_nr == 0 && (term_ == nullptr || term_->begin_fast(slot_));
    Adoption choice(v);

    // Phase 1 on all memories in parallel; continue after a majority of
    // iterations complete (lines 12–16); restart if write1 failed or a
    // higher proposal showed up (lines 17–18), else adopt (line 20). Under
    // a term the slot may already be prepared, and then this is free.
    bool ok = true;
    std::optional<LeaderTerm::Lease> lease;
    if (!fast_attempt && term_ != nullptr) {
      lease = co_await term_->prepare(slot_, &choice);
      ok = lease.has_value();
      if (ok) prop_nr = lease->ballot;
    } else if (!fast_attempt) {
      const BallotRecord write1{prop_nr, 0, false, {}};
      ok = co_await slots_->majority_write_read(write1, ballots_, &choice);
    }
    if (!ok) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    // Phase 2: write (propNr, propNr, value) to all memories; a majority of
    // acks decides — no verifying read needed, because an acked write proves
    // the permission was still ours at that memory (lines 21–24).
    sim::Fanout<mem::Status> fanout(*exec_);
    for (std::size_t i = 0; i < slots_->size(); ++i) {
      fanout.add(i, slots_->write(i, BallotRecord{prop_nr, prop_nr, true,
                                                  choice.value()}));
    }
    const auto acks = co_await fanout.collect(majority(slots_->size()));
    for (const auto& [idx, st] : acks) {
      if (st != mem::Status::kAck) ok = false;
    }
    if (!ok) {
      if (lease.has_value()) term_->end(*lease);
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    decide_locally(choice.value(), fast_attempt);
    transport_->send_all(choice.value(), /*include_self=*/false);
  }

  co_return decision();
}

}  // namespace mnm::core

#include "src/core/disk_paxos.hpp"

namespace mnm::core {

DiskPaxos::DiskPaxos(sim::Executor& exec,
                     std::vector<mem::MemoryIface*> memories, RegionId region,
                     Transport& transport, Omega& omega, DiskPaxosConfig config)
    : DecisionLatch(exec),
      transport_(&transport),
      omega_(&omega),
      self_(transport.self()),
      blocks_(exec, std::move(memories), region, self_, config.n,
              config.prefix + "/block", /*seize=*/false),
      ballots_(config.n, self_) {}

void DiskPaxos::start() { exec_->spawn(decide_listener(*transport_)); }

sim::Task<Bytes> DiskPaxos::propose(Bytes v) {
  while (!decided()) {
    co_await omega_->wait_leadership_or(self_, decision_gate());
    if (decided()) break;

    // p1's first attempt runs at ballot 0 with an implicit phase 1: blocks
    // are all ⊥ initially, so there is nothing to adopt. Unlike Protected
    // Memory Paxos, Disk Paxos must still pay the verifying read below.
    const std::uint64_t mbal = ballots_.attempt(/*skip_phase1=*/true);
    Adoption choice(v);

    // Phase 1: announce mbal, read everyone's blocks from a majority.
    bool ok = true;
    if (mbal != 0) {
      const BallotRecord announce{mbal, 0, false, {}};
      ok = co_await blocks_.majority_write_read(announce, ballots_, &choice);
    }
    // Phase 2: write the chosen value, then *verify* by re-reading all
    // blocks — with static permissions an acked write proves nothing about
    // contention, so the extra read (2 more delays) is unavoidable (§6).
    if (ok) {
      const BallotRecord commit{mbal, mbal, true, choice.value()};
      ok = co_await blocks_.majority_write_read(commit, ballots_, nullptr);
    }
    if (!ok) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    decide_locally(choice.value());
    transport_->send_all(choice.value(), /*include_self=*/false);
  }

  co_return decision();
}

}  // namespace mnm::core

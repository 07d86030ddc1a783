#include "src/core/fast_robust.hpp"

#include "src/core/paxos_validator.hpp"
#include "src/core/transport_mux.hpp"

namespace mnm::core {

PriorityFn fast_robust_priority(const crypto::KeyStore& keystore, std::size_t n,
                                ProcessId leader) {
  return [&keystore, n, leader](const PrioInput& input) -> int {
    // T: contains a correct unanimity proof *for this value*.
    LeaderBlob lb;
    if (verify_unanimity_proof(keystore, n, leader, input.proof, &lb) &&
        lb.value == input.value) {
      return 2;
    }
    // M: contains the leader's signature over the value.
    if (!input.leader_sig.empty()) {
      try {
        util::Reader r(input.leader_sig);
        const crypto::Signature sig = crypto::Signature::decode(r);
        r.expect_end();
        if (keystore.valid_from(leader, cq_value_signing_bytes(input.value), sig)) {
          return 1;
        }
      } catch (const util::SerdeError&) {
        // fall through to B
      }
    }
    return 0;  // B
  };
}

/// The backup path: Preferential Paxos over Robust Backup(Paxos), i.e.
/// Paxos and the set-up exchange muxed over trusted messaging over NEB.
/// Constructing it starts every loop.
struct FastRobustProcess::Backup {
  explicit Backup(FastRobustProcess& p)
      : neb_slots(*p.exec_, p.memories_, p.neb_regions_, p.config_.neb_prefix),
        neb(*p.exec_, neb_slots, *p.keystore_, p.signer_, p.config_.neb),
        trusted(*p.exec_, neb, *p.keystore_, p.signer_,
                trusted::TrustedConfig{p.config_.n},
                paxos_validator(*p.keystore_, p.config_.n)),
        mux(*p.exec_, trusted),
        paxos(*p.exec_, mux.sub(kMuxPaxos), *p.omega_, p.config_.paxos),
        preferential(*p.exec_, mux.sub(kMuxSetup), paxos,
                     PreferentialPaxosConfig{p.config_.n, p.config_.f},
                     fast_robust_priority(*p.keystore_, p.config_.n,
                                          p.config_.cheap.leader)) {
    neb.start();
    trusted.start();
    mux.start();
    paxos.start();
  }

  NebSlots neb_slots;
  NonEquivBroadcast neb;
  trusted::TrustedTransport trusted;
  TransportMux mux;
  Paxos paxos;
  PreferentialPaxos preferential;
};

FastRobustProcess::FastRobustProcess(sim::Executor& exec,
                                     std::vector<mem::MemoryIface*> memories,
                                     FastRobustSlotRegions regions,
                                     const crypto::KeyStore& keystore,
                                     crypto::Signer signer, Omega& omega,
                                     FastRobustConfig config)
    : exec_(&exec),
      memories_(memories),
      neb_regions_(std::move(regions.neb)),
      keystore_(&keystore),
      signer_(signer),
      omega_(&omega),
      config_(std::move(config)),
      cheap_(exec, std::move(memories), regions.cq, keystore, signer,
             config_.cheap) {}

FastRobustProcess::~FastRobustProcess() = default;

trusted::TsendStats FastRobustProcess::tsend_stats() const {
  return backup_ ? backup_->trusted.tsend_stats() : trusted::TsendStats{};
}

sim::Task<FastRobustOutcome> FastRobustProcess::propose(Bytes v) {
  // Fast path.
  const CqOutcome cq = co_await cheap_.propose(std::move(v));

  // The outcome becomes this process's Preferential Paxos input, with
  // Definition 3 priorities computed by verification at each receiver.
  PrioInput input{cq.value, cq.proof, cq.leader_sig};
  if (cq.decided) {
    exec_->spawn(join_on_panic(std::move(input)));
    co_return FastRobustOutcome{cq.value, true, cq.at};
  }
  const PrioInput decided = co_await run_backup(std::move(input));
  co_return FastRobustOutcome{decided.value, false, backup_->paxos.decided_at()};
}

sim::Task<void> FastRobustProcess::join_on_panic(PrioInput input) {
  co_await cheap_.wait_for_panic();
  (void)co_await run_backup(std::move(input));
}

sim::Task<PrioInput> FastRobustProcess::run_backup(PrioInput input) {
  backup_ = std::make_unique<Backup>(*this);
  co_return co_await backup_->preferential.propose(std::move(input));
}

}  // namespace mnm::core

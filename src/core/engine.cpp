#include "src/core/engine.hpp"

namespace mnm::core {

// ---------------------------------------------------------------------------
// CheapQuorumEngine
// ---------------------------------------------------------------------------

CheapQuorumEngine::CheapQuorumEngine(
    sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
    std::shared_ptr<SlotRegions<CheapQuorumRegions>> regions,
    const crypto::KeyStore& keystore, crypto::Signer signer,
    CheapQuorumConfig config, std::string ns)
    : ConsensusEngine(exec),
      memories_(std::move(memories)),
      regions_(std::move(regions)),
      keystore_(&keystore),
      signer_(signer),
      config_(std::move(config)),
      ns_(std::move(ns)) {}

ProcessId CheapQuorumEngine::self() const { return signer_.id(); }

void CheapQuorumEngine::open_slot(Slot slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) return;
  CheapQuorumConfig c = config_;
  c.prefix = slot_ns(slot, ns_);
  slots_.emplace(slot, std::make_unique<CheapQuorum>(*exec_, memories_,
                                                     regions_->get(slot),
                                                     *keystore_, signer_,
                                                     std::move(c)));
  note_slot(slot);
}

sim::Task<Decision> CheapQuorumEngine::propose(Slot slot, Bytes value) {
  open_slot(slot);
  CheapQuorum* inst = slots_.at(slot).get();
  const CqOutcome out = co_await inst->propose(std::move(value));
  if (!out.decided) {
    throw ProposeAborted("cheap quorum aborted at slot " +
                         std::to_string(slot));
  }
  Decision d{out.value, /*fast=*/true, out.at};
  push_decision(slot, d);
  co_return d;
}

// ---------------------------------------------------------------------------
// FastRobustEngine
// ---------------------------------------------------------------------------

FastRobustEngine::FastRobustEngine(
    sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
    std::shared_ptr<SlotRegions<FastRobustSlotRegions>> regions,
    const crypto::KeyStore& keystore, crypto::Signer signer, Omega& omega,
    FastRobustConfig config, std::string cq_ns, std::string neb_ns)
    : ConsensusEngine(exec),
      memories_(std::move(memories)),
      regions_(std::move(regions)),
      keystore_(&keystore),
      signer_(signer),
      omega_(&omega),
      config_(config),
      cq_ns_(std::move(cq_ns)),
      neb_ns_(std::move(neb_ns)) {}

ProcessId FastRobustEngine::self() const { return signer_.id(); }

FastRobustSlot FastRobustEngine::make_slot(Slot s) const {
  const FastRobustSlotRegions& r = regions_->get(s);
  FastRobustConfig c = config_;
  c.cheap.prefix = slot_ns(s, cq_ns_);
  FastRobustSlot out;
  out.neb_slots = std::make_unique<NebSlots>(*exec_, memories_, r.neb,
                                             slot_ns(s, neb_ns_));
  out.process = std::make_unique<FastRobustProcess>(
      *exec_, memories_, r.cq, *out.neb_slots, *keystore_, signer_, *omega_, c);
  return out;
}

void FastRobustEngine::open_slot(Slot slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) return;
  FastRobustSlot stack = make_slot(slot);
  stack.process->start();
  slots_.emplace(slot, std::move(stack));
  note_slot(slot);
}

trusted::TsendStats FastRobustEngine::tsend_stats() const {
  trusted::TsendStats out;
  for (const auto& [slot, stack] : slots_) out += stack.process->tsend_stats();
  return out;
}

sim::Task<Decision> FastRobustEngine::propose(Slot slot, Bytes value) {
  open_slot(slot);
  FastRobustProcess* inst = slots_.at(slot).process.get();
  const FastRobustOutcome out = co_await inst->propose(std::move(value));
  Decision d{out.value, out.fast, out.decided_at};
  push_decision(slot, d);
  co_return d;
}

}  // namespace mnm::core

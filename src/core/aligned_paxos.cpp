#include "src/core/aligned_paxos.hpp"

#include "src/sim/fanout.hpp"
#include "src/sim/select.hpp"

namespace mnm::core {

namespace {

/// How long a proposer waits for a combined majority of agents.
constexpr sim::Time kRoundTimeout = 40;

}  // namespace

AlignedPaxos::AlignedPaxos(sim::Executor& exec,
                           std::vector<mem::MemoryIface*> memories,
                           RegionId region, Transport& transport, Omega& omega,
                           AlignedPaxosConfig config)
    : DecisionLatch(exec),
      transport_(&transport),
      omega_(&omega),
      self_(transport.self()),
      n_(config.n),
      replies_(exec),
      slots_(pmp_slots(exec, std::move(memories), region, self_, config.n,
                       config.prefix)),
      ballots_(config.n, self_) {}

void AlignedPaxos::start() { exec_->spawn(dispatch_loop()); }

sim::Task<void> AlignedPaxos::dispatch_loop() {
  while (true) {
    const TMsg raw = co_await transport_->incoming().recv();
    if (raw.payload.empty()) continue;
    if (raw.payload[0] == kMuxDecide) {
      decide_locally(util::ByteView(raw.payload).subspan(1));
      continue;
    }
    const auto msg = PaxosMsg::decode(raw.payload);
    if (!msg.has_value()) continue;  // malformed — drop
    switch (msg->kind) {
      case PaxosKind::kPrepare:
      case PaxosKind::kAccept:
        ballots_.see(msg->ballot);
        transport_->send(raw.src, acceptor_.reply(*msg).encode());
        break;
      case PaxosKind::kPromise:
      case PaxosKind::kAccepted:
      case PaxosKind::kNack:
        replies_.send({raw.src, *msg});
        break;
      case PaxosKind::kDecide:
        break;  // not part of Aligned's wire protocol
    }
  }
}

sim::Task<Bytes> AlignedPaxos::propose(Bytes v) {
  const std::size_t quorum = majority(n_ + slots_.size());

  while (!decided()) {
    co_await omega_->wait_leadership_or(self_, decision_gate());
    if (decided()) break;

    const std::uint64_t prop_nr = ballots_.next();
    Adoption choice(v);

    // ---- Phase 1 against every agent (communicate1 / hearback1). ----
    // Memory agents.
    sim::Fanout<BallotRegisters::Read> mem_fan(*exec_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      mem_fan.add(i, slots_.write_read(i, {prop_nr, 0, false, {}}));
    }
    // Process agents.
    transport_->send_all(
        PaxosMsg{PaxosKind::kPrepare, prop_nr, 0, false, {}}.encode());

    std::size_t responses = 0;
    bool reject = false;
    const sim::Time deadline = exec_->now() + kRoundTimeout;

    // Collect from both sources until a combined majority answers. One
    // suspension per wait, woken by whichever source signals first in
    // executor (time, seq) order — a round costs O(responses) events, not
    // one timer tick per polling period. Queued memory answers drain
    // before process replies, mirroring the old memory-first alternation.
    auto& proc_ch = replies_;
    auto& mem_ch = mem_fan.results();
    while (responses < quorum && !reject) {
      if (auto batch = mem_ch.try_recv()) {
        ++responses;
        const BallotRegisters::Read& answer = batch->second;
        if (!answer.ok || !ballots_.admit(answer.records, prop_nr)) {
          reject = true;
          break;
        }
        choice.offer(answer.records);
        continue;
      }
      if (auto reply = proc_ch.try_recv()) {
        const PaxosMsg& msg = reply->second;
        if (msg.ballot != prop_nr) continue;
        if (msg.kind == PaxosKind::kNack) {
          ballots_.see(msg.acc_ballot);
          reject = true;
          break;
        }
        if (msg.kind != PaxosKind::kPromise) continue;
        ++responses;
        choice.offer(msg.has_value, msg.acc_ballot, msg.value);
        continue;
      }
      sim::Select sel(*exec_);
      sel.on(mem_ch).on(proc_ch).until(deadline);
      if (co_await sel == sim::Select::kTimedOut) break;
    }
    if (reject || responses < quorum) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    // ---- Phase 2 against every agent (communicate2 / analyze2). ----
    sim::Fanout<mem::Status> mem2_fan(*exec_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      mem2_fan.add(i, slots_.write(i, BallotRecord{prop_nr, prop_nr, true,
                                                   choice.value()}));
    }
    transport_->send_all(
        PaxosMsg{PaxosKind::kAccept, prop_nr, 0, true, choice.value()}.encode());

    std::size_t acks = 0;
    bool reject2 = false;
    const sim::Time deadline2 = exec_->now() + kRoundTimeout;
    auto& mem2_ch = mem2_fan.results();
    while (acks < quorum && !reject2) {
      if (auto batch = mem2_ch.try_recv()) {
        if (batch->second == mem::Status::kAck) {
          ++acks;
        } else {
          reject2 = true;
        }
        continue;
      }
      if (auto reply = proc_ch.try_recv()) {
        const PaxosMsg& msg = reply->second;
        if (msg.ballot != prop_nr) continue;
        if (msg.kind == PaxosKind::kNack) {
          ballots_.see(msg.acc_ballot);
          reject2 = true;
          break;
        }
        if (msg.kind == PaxosKind::kAccepted) ++acks;
        continue;
      }
      sim::Select sel(*exec_);
      sel.on(mem2_ch).on(proc_ch).until(deadline2);
      if (co_await sel == sim::Select::kTimedOut) break;
    }
    if (reject2 || acks < quorum) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    decide_locally(choice.value());
    transport_->send_all(TransportMux::frame(kMuxDecide, choice.value()),
                         /*include_self=*/false);
  }

  co_return decision();
}

}  // namespace mnm::core

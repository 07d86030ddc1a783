#include "src/core/paxos.hpp"

#include <cassert>

namespace mnm::core {

Bytes PaxosMsg::encode() const {
  util::Writer w(1 + 8 + 8 + 1 + 4 + value.size());
  w.u8(static_cast<std::uint8_t>(kind))
      .u64(ballot)
      .u64(acc_ballot)
      .boolean(has_value)
      .bytes(value);
  return std::move(w).take();
}

std::optional<PaxosMsg> PaxosMsg::decode(util::ByteView raw) {
  try {
    util::Reader r(raw);
    PaxosMsg m;
    const std::uint8_t kind = r.u8();
    if (kind < 1 || kind > 6) return std::nullopt;
    m.kind = static_cast<PaxosKind>(kind);
    m.ballot = r.u64();
    m.acc_ballot = r.u64();
    m.has_value = r.boolean();
    m.value = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

PaxosMsg Acceptor::reply(const PaxosMsg& msg) {
  if (msg.ballot < state_.promised) {
    return {PaxosKind::kNack, msg.ballot, state_.promised, false, {}};
  }
  state_.promised = msg.ballot;
  if (msg.kind == PaxosKind::kPrepare) {
    return {PaxosKind::kPromise, msg.ballot, state_.accepted, state_.has_value,
            state_.value};
  }
  state_.accepted = msg.ballot;
  state_.has_value = true;
  state_.value = msg.value;
  return {PaxosKind::kAccepted, msg.ballot, 0, false, {}};
}

Paxos::Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
             PaxosConfig config)
    : DecisionLatch(exec),
      transport_(&transport),
      omega_(&omega),
      config_(config),
      ballots_(config.n, transport.self()),
      replies_(exec) {}

void Paxos::start() {
  assert(!started_ && "Paxos::start called twice");
  started_ = true;
  exec_->spawn(dispatch_loop());
}

sim::Task<void> Paxos::dispatch_loop() {
  while (true) {
    TMsg raw = co_await transport_->incoming().recv();
    const auto msg = PaxosMsg::decode(raw.payload);
    if (!msg.has_value()) continue;  // malformed (possibly Byzantine) — drop
    switch (msg->kind) {
      case PaxosKind::kPrepare:
      case PaxosKind::kAccept:
        ballots_.see(msg->ballot);
        transport_->send(raw.src, acceptor_.reply(*msg).encode());
        break;
      case PaxosKind::kDecide:
        decide_locally(msg->value);
        break;
      case PaxosKind::kPromise:
      case PaxosKind::kAccepted:
      case PaxosKind::kNack:
        replies_.send({raw.src, *msg});
        break;
    }
  }
}

sim::Task<bool> Paxos::run_round(const Bytes& input, std::uint64_t ballot) {
  const std::size_t quorum = majority(config_.n);
  const bool fast = ballot == 0;  // p1's implicit phase 1
  Adoption choice(input);

  if (!fast) {
    // Phase 1: prepare / promise.
    transport_->send_all(PaxosMsg{PaxosKind::kPrepare, ballot, 0, false, {}}
                             .encode());
    std::size_t promises = 0;
    const sim::Time deadline = exec_->now() + config_.round_timeout;
    while (promises < quorum) {
      auto reply = co_await replies_.recv_until(deadline);
      if (!reply.has_value()) co_return false;  // timeout
      const PaxosMsg& m = reply->second;
      if (m.ballot != ballot) continue;  // stale round
      if (m.kind == PaxosKind::kNack) co_return false;
      if (m.kind != PaxosKind::kPromise) continue;
      ++promises;
      choice.offer(m.has_value, m.acc_ballot, m.value);
    }
  }
  const Bytes& value = choice.value();

  // Phase 2: accept / accepted.
  transport_->send_all(
      PaxosMsg{PaxosKind::kAccept, ballot, 0, true, value}.encode());
  std::size_t accepts = 0;
  const sim::Time deadline = exec_->now() + config_.round_timeout;
  while (accepts < quorum) {
    auto reply = co_await replies_.recv_until(deadline);
    if (!reply.has_value()) co_return false;
    const PaxosMsg& m = reply->second;
    if (m.ballot != ballot) continue;
    if (m.kind == PaxosKind::kNack) co_return false;
    if (m.kind != PaxosKind::kAccepted) continue;
    ++accepts;
  }

  // Chosen. Decide and tell everyone.
  decide_locally(value, fast);
  transport_->send_all(
      PaxosMsg{PaxosKind::kDecide, ballot, 0, true, value}.encode(),
      /*include_self=*/false);
  co_return true;
}

sim::Task<Bytes> Paxos::propose(Bytes value) {
  assert(started_ && "Paxos::propose before start()");
  const ProcessId self = transport_->self();
  while (!decided()) {
    if (omega_->trusts(self)) {
      const bool ok = co_await run_round(
          value, ballots_.attempt(config_.skip_phase1_for_p1));
      if (ok) break;
      co_await exec_->sleep(config_.retry_backoff);
    } else {
      // Event-driven: woken by an Ω poke or by our own DECIDE.
      co_await omega_->wait_leadership_or(self, decision_gate());
    }
  }
  co_return decision();
}

}  // namespace mnm::core

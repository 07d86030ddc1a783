// The decide-once latch of a single-decree consensus instance. Paxos, Disk
// Paxos, Protected Memory Paxos and Aligned Paxos derive from it (non-
// virtually) for the uniform decision surface HubEngine reads:
// decided() / decision() / decided_at() / decided_fast() / decision_gate().

#pragma once

#include <optional>

#include "src/common.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

class DecisionLatch {
 public:
  bool decided() const { return decision_.has_value(); }
  const Bytes& decision() const { return *decision_; }
  sim::Time decided_at() const { return decided_at_; }
  /// True iff this process decided as the proposer of a 2-delay fast path
  /// (a phase-1 skip at ballot 0). Learners report false.
  bool decided_fast() const { return decided_fast_; }
  sim::Gate& decision_gate() { return gate_; }

 protected:
  explicit DecisionLatch(sim::Executor& exec) : exec_(&exec), gate_(exec) {}

  /// Latch `value` as the decision; later calls are no-ops.
  void decide_locally(util::ByteView value, bool fast = false) {
    if (decided()) return;
    decision_ = util::to_bytes(value);
    decided_at_ = exec_->now();
    decided_fast_ = fast;
    gate_.open();
  }

  /// Decide on every payload `transport` delivers: the raw-value DECIDE of
  /// Disk Paxos and PMP, whose transport carries nothing else.
  sim::Task<void> decide_listener(Transport& transport) {
    while (true) {
      const TMsg m = co_await transport.incoming().recv();
      decide_locally(m.payload);
    }
  }

  sim::Executor* exec_;

 private:
  std::optional<Bytes> decision_;
  sim::Time decided_at_ = 0;
  bool decided_fast_ = false;
  sim::Gate gate_;
};

}  // namespace mnm::core

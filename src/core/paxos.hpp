// Classic single-decree Paxos (Lamport, "The Part-Time Parliament") over the
// Transport abstraction, tolerating fP < n/2 crash failures.
//
// Roles in the paper's uses:
//  * It is the crash-tolerant algorithm A that Robust Backup(A) transforms
//    into a Byzantine-tolerant one (§4.1, Definition 2) — run it over
//    trusted::TrustedTransport and the transformation is literal.
//  * With `skip_phase1_for_p1` it becomes the message-passing baseline that
//    decides in 2 delays with n ≥ 2fP+1 (the steady-state/fast path the
//    paper contrasts with Protected Memory Paxos in §1); without it, the
//    conservative 4-delay two-phase baseline.
//
// Ballot numbering: ballot b is owned by process (b mod n) + 1; p1's first
// ballot is 0, which acceptors implicitly pre-promise (minBallot starts
// at 0), making the phase-1 skip safe.

#pragma once

#include <cstdint>
#include <optional>

#include "src/common.hpp"
#include "src/core/ballot.hpp"
#include "src/core/decision_latch.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

// Wire format shared with the trusted-history validator
// (trusted_messaging.*), which replays Paxos messages.
enum class PaxosKind : std::uint8_t {
  kPrepare = 1,
  kPromise = 2,
  kAccept = 3,
  kAccepted = 4,
  kNack = 5,
  kDecide = 6,
};

struct PaxosMsg {
  PaxosKind kind = PaxosKind::kNack;
  std::uint64_t ballot = 0;
  // For kPromise: the highest ballot at which the acceptor accepted a value
  // (meaningful when has_value). For kAccept/kDecide: `value` carries data.
  std::uint64_t acc_ballot = 0;
  bool has_value = false;
  Bytes value;

  Bytes encode() const;
  static std::optional<PaxosMsg> decode(util::ByteView raw);
};

struct PaxosConfig {
  std::size_t n = 3;
  /// How long a proposer waits for a quorum of replies before retrying.
  sim::Time round_timeout = 40;
  /// Backoff between failed rounds.
  sim::Time retry_backoff = 10;
  /// Allow p1 to skip phase 1 at ballot 0 (2-delay fast path).
  bool skip_phase1_for_p1 = false;
};

/// Paxos's acceptor: the promised/accepted state and its replies. Paxos
/// processes and Aligned Paxos's process agents each hold one.
class Acceptor {
 public:
  /// The promise, accepted or nack answering a kPrepare or kAccept.
  PaxosMsg reply(const PaxosMsg& msg);

 private:
  BallotRecord state_;
};

class Paxos : public DecisionLatch {
 public:
  Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
        PaxosConfig config);

  /// Spawn the message-handling loop. Call exactly once before propose.
  void start();

  /// Propose `value`; resolves with the decided value (§3 consensus:
  /// uniform agreement, validity; termination under Ω).
  sim::Task<Bytes> propose(Bytes value);

 private:
  sim::Task<void> dispatch_loop();
  sim::Task<bool> run_round(const Bytes& input, std::uint64_t ballot);

  Transport* transport_;
  Omega* omega_;
  PaxosConfig config_;
  Acceptor acceptor_;

  // Proposer state.
  Ballots ballots_;
  sim::Channel<std::pair<ProcessId, PaxosMsg>> replies_;
  bool started_ = false;
};

}  // namespace mnm::core

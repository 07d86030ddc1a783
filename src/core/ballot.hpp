// The ballot pieces every Paxos in this repo shares.
//
//  * BallotRecord: one process's (promised, accepted, value) register — Disk
//    Paxos's dblock (mbal, bal, inp), PMP's slot (minProposal, accProposal,
//    value; Alg. 7 line 4) and a Paxos acceptor's state are the same record.
//  * Ballots: ballot numbering. Ballot b is owned by process (b mod n) + 1.
//  * Adoption: phase 1's "adopt the value accepted at the highest ballot".
//  * BallotRegisters: one process's records at the memories, and the
//    per-memory steps over them — write own record then read every record
//    (a Disk Paxos phase; PMP's phase 1 after seizing write permission,
//    Alg. 7 lines 13–15) and the plain phase-2 write (lines 21–22).

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

/// Pause before a memory-backed proposer retries a failed round.
inline constexpr sim::Time kRetryBackoff = 8;

struct BallotRecord {
  std::uint64_t promised = 0;  // the ballot being attempted / promised
  std::uint64_t accepted = 0;  // ballot of the accepted value
  bool has_value = false;
  Bytes value;

  Bytes encode() const;
  /// ⊥ (never written) decodes to the all-zero record.
  static std::optional<BallotRecord> decode(util::ByteView raw);
};

class Ballots {
 public:
  Ballots(std::size_t n, ProcessId self) : n_(n), self_(self) {}

  /// A fresh ballot owned by this process, above every ballot seen:
  /// (max/n + 1)·n + (self − 1). Never 0.
  std::uint64_t next() {
    max_seen_ = (max_seen_ / n_ + 1) * n_ + (self_ - 1);
    return max_seen_;
  }
  /// The ballot of this process's next attempt: 0 for p1's first attempt
  /// when `skip_phase1` — acceptors start promised to ballot 0, so its
  /// phase 1 is implicit (the 2-delay fast path) — else next().
  std::uint64_t attempt(bool skip_phase1) {
    const bool fast = skip_phase1 && self_ == kLeaderP1 && !attempted_;
    attempted_ = true;
    return fast ? 0 : next();
  }
  void see(std::uint64_t ballot) { max_seen_ = std::max(max_seen_, ballot); }
  /// Phase 1's check of one acceptor's records: notes every promise, and is
  /// false if any record promised a ballot above `ballot`.
  bool admit(const std::vector<BallotRecord>& records, std::uint64_t ballot);

 private:
  std::size_t n_;
  ProcessId self_;
  std::uint64_t max_seen_ = 0;
  bool attempted_ = false;
};

/// The value phase 2 proposes: the one accepted at the highest ballot any
/// phase-1 answer reports (the first such answer wins a tie), else the
/// proposer's own.
class Adoption {
 public:
  explicit Adoption(Bytes own) : value_(std::move(own)) {}

  void offer(bool has_value, std::uint64_t ballot, const Bytes& value) {
    if (!has_value || (adopted_ && ballot <= ballot_)) return;
    adopted_ = true;
    ballot_ = ballot;
    value_ = value;
  }
  void offer(const std::vector<BallotRecord>& records) {
    for (const BallotRecord& r : records) offer(r.has_value, r.accepted, r.value);
  }
  const Bytes& value() const { return value_; }

 private:
  Bytes value_;
  bool adopted_ = false;
  std::uint64_t ballot_ = 0;
};

class BallotRegisters {
 public:
  /// Registers "<names>/<p>" for p in 1..n in `region`, identical across
  /// `memories`. With `seize`, write_read first takes exclusive write
  /// permission (PMP's regions); without, the region is open (Disk Paxos).
  BallotRegisters(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
                  RegionId region, ProcessId self, std::size_t n,
                  const std::string& names, bool seize);

  struct Read {
    bool ok = false;  // every step was acked
    std::vector<BallotRecord> records;  // index p - 1
  };

  std::size_t size() const { return memories_.size(); }

  /// At memory `idx`: [seize,] write `own` into this process's register,
  /// then read every register in one batched read_many.
  sim::Task<Read> write_read(std::size_t idx, BallotRecord own);
  /// At memory `idx`: write `own` into this process's register.
  sim::Task<mem::Status> write(std::size_t idx, BallotRecord own);

  /// write_read at every memory; true iff the first majority of answers all
  /// succeeded and admit `own.promised`. `adopt` (if set) sees their records.
  /// Pass `own` as a named record: GCC 12 destroys a temporary argument of
  /// a co_await-ed call twice.
  sim::Task<bool> majority_write_read(BallotRecord own, Ballots& ballots,
                                      Adoption* adopt);

 private:
  sim::Executor* exec_;
  std::vector<mem::MemoryIface*> memories_;
  RegionId region_;
  ProcessId self_;
  std::vector<std::string> names_;  // index p - 1
  std::optional<mem::Permission> seize_;  // exclusive_writer(self, all)
};

}  // namespace mnm::core

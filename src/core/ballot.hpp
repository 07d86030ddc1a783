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
//  * LeaderTerm: one proposer's phase 1 across many slots at one ballot
//    (Multi-Paxos terms, as in Mu), built from the three pieces above.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
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
  /// What another fold adopted, if it adopted anything.
  void offer(const Adoption& other) {
    offer(other.adopted_, other.ballot_, other.value_);
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

/// One proposer's leader term over a log of slots, each slot its own
/// BallotRegisters. A term picks one ballot and runs phase 1
/// (majority_write_read) at it once per slot: for the slot being proposed,
/// for every slot the process has opened past it, and for a look-ahead
/// window beyond — all in parallel, the proposer's own slot inline and the
/// others as background rounds. Each slot's adopted value is kept as
/// prepared state, so a later proposal there goes straight to phase 2.
/// Every proposal slides the window, so it is refilled before it runs out.
///
/// A phase-1 round that fails (a nak, or a promise above the term's
/// ballot) ends the term, and so does the caller's report of a phase-2
/// nak (end()). The next proposal starts a new term at a fresh ballot. A
/// ballot carries at most one value per slot: each prepared slot is
/// claimed once, and a second proposal for a claimed slot moves to a new
/// term. (As without a term, callers keep one proposal per slot in
/// flight: a process's own phase 1 must not seize a slot's regions while
/// its phase-2 write there is outstanding.)
///
/// A process that has opened only slot 0 (a single-shot run) prepares
/// nothing ahead: slot 0 alone has nothing to amortise, and its phase 1
/// is then exactly a term-less attempt's.
class LeaderTerm : public std::enable_shared_from_this<LeaderTerm> {
 public:
  /// Slots a term keeps prepared past every slot the process has opened:
  /// smr::Log's default window.
  static constexpr Slot kLookAhead = 8;

  /// Slot s's registers at the memories (creating its regions if needed).
  using RegistersFn = std::function<BallotRegisters(Slot)>;

  /// A claimed slot's phase-2 ballot, and the term it was prepared in.
  struct Lease {
    std::uint64_t ballot = 0;
    std::uint64_t term = 0;
  };

  LeaderTerm(sim::Executor& exec, std::size_t n, ProcessId self,
             RegistersFn registers);

  /// Slot s's registers, shared by the term and the slot's instance.
  BallotRegisters& registers(Slot s) { return entry(s).regs; }
  /// The process opened slot s (its instance exists).
  void note_opened(Slot s) { opened_ = std::max(opened_, s + 1); }

  /// p1's ballot-0 attempt at slot s: allowed only while no term has run
  /// phase 1 (a process that re-seized a slot's regions could otherwise
  /// overwrite a value a rival accepted there). While allowed, the slot is
  /// claimed, so no term prepares it ahead: its ballot-0 value sits in
  /// p1's register alone, and a term's phase-1 write there would erase it.
  bool begin_fast(Slot s);

  /// Phase 1 for slot s under the current term (starting one if needed):
  /// returns the lease phase 2 must write at, after offering `choice` the
  /// value phase 1 adopted there — or nullopt if phase 1 failed, which
  /// ends the term.
  sim::Task<std::optional<Lease>> prepare(Slot s, Adoption* choice);
  /// A phase-2 write under `lease` naked: end its term.
  void end(const Lease& lease) { end_term(lease.term); }

 private:
  /// A background phase-1 round for one slot.
  struct Round {
    explicit Round(sim::Executor& exec) : done(exec) {}
    sim::Gate done;
    bool ok = false;
    Adoption adoption{Bytes{}};
  };
  struct Entry {
    explicit Entry(BallotRegisters r) : regs(std::move(r)) {}
    BallotRegisters regs;
    std::uint64_t term = kNoTerm;  // the term that last prepared the slot
    bool claimed = false;          // a proposal took the slot's lease
    std::shared_ptr<Round> round;  // the unclaimed background round
  };
  static constexpr std::uint64_t kNoTerm = ~std::uint64_t{0};

  Entry& entry(Slot s);
  void end_term(std::uint64_t term);
  /// Start background rounds for every unprepared slot after s in the
  /// window.
  void prepare_ahead(Slot s);
  static sim::Task<void> run_round(std::shared_ptr<LeaderTerm> self,
                                   Entry* entry, std::shared_ptr<Round> round,
                                   Lease lease);

  sim::Executor* exec_;
  RegistersFn registers_;
  Ballots ballots_;
  std::map<Slot, Entry> entries_;
  Slot opened_ = 0;         // one past the highest slot opened
  bool started_ = false;    // some term has run phase 1
  bool active_ = false;     // term_ has a ballot and has not ended
  std::uint64_t term_ = 0;
  std::uint64_t ballot_ = 0;
};

}  // namespace mnm::core

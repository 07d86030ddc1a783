#include "src/core/ballot.hpp"

#include "src/sim/fanout.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

Bytes BallotRecord::encode() const {
  util::Writer w(8 + 8 + 1 + 4 + value.size());
  w.u64(promised).u64(accepted).boolean(has_value).bytes(value);
  return std::move(w).take();
}

std::optional<BallotRecord> BallotRecord::decode(util::ByteView raw) {
  if (util::is_bottom(raw)) return BallotRecord{};
  try {
    util::Reader r(raw);
    BallotRecord b;
    b.promised = r.u64();
    b.accepted = r.u64();
    b.has_value = r.boolean();
    b.value = r.bytes();
    r.expect_end();
    return b;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

bool Ballots::admit(const std::vector<BallotRecord>& records,
                    std::uint64_t ballot) {
  bool ok = true;
  for (const BallotRecord& r : records) {
    see(r.promised);
    if (r.promised > ballot) ok = false;
  }
  return ok;
}

BallotRegisters::BallotRegisters(sim::Executor& exec,
                                 std::vector<mem::MemoryIface*> memories,
                                 RegionId region, ProcessId self, std::size_t n,
                                 const std::string& names, bool seize)
    : exec_(&exec), memories_(std::move(memories)), region_(region), self_(self) {
  const auto all = all_processes(n);
  for (ProcessId p : all) names_.push_back(names + "/" + std::to_string(p));
  if (seize) seize_ = mem::Permission::exclusive_writer(self, all);
}

sim::Task<BallotRegisters::Read> BallotRegisters::write_read(std::size_t idx,
                                                             BallotRecord own) {
  mem::MemoryIface* m = memories_[idx];
  Read out;
  if (seize_.has_value()) {
    const mem::Status grabbed = co_await m->change_permission(self_, region_, *seize_);
    if (grabbed != mem::Status::kAck) co_return out;
  }
  const mem::Status wrote =
      co_await m->write(self_, region_, names_[self_ - 1], own.encode());
  if (wrote != mem::Status::kAck) co_return out;

  // One batched scatter-gather read of every register: a single completion
  // and one permission evaluation (a lost permission fails the phase).
  auto reads = co_await m->read_many(self_, region_, names_);
  out.records.resize(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (!reads[i].ok()) co_return out;
    auto record = BallotRecord::decode(reads[i].value);
    if (!record.has_value()) co_return out;
    out.records[i] = std::move(*record);
  }
  out.ok = true;
  co_return out;
}

sim::Task<mem::Status> BallotRegisters::write(std::size_t idx,
                                              BallotRecord own) {
  co_return co_await memories_[idx]->write(self_, region_, names_[self_ - 1],
                                           own.encode());
}

sim::Task<bool> BallotRegisters::majority_write_read(BallotRecord own,
                                                     Ballots& ballots,
                                                     Adoption* adopt) {
  // Crashed memories never answer; continue after a majority do.
  sim::Fanout<Read> fanout(*exec_);
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    fanout.add(i, write_read(i, own));
  }
  auto answers = co_await fanout.collect(majority(memories_.size()));
  for (auto& [idx, answer] : answers) {
    if (!answer.ok || !ballots.admit(answer.records, own.promised)) {
      co_return false;
    }
    if (adopt != nullptr) adopt->offer(answer.records);
  }
  co_return true;
}

LeaderTerm::LeaderTerm(sim::Executor& exec, std::size_t n, ProcessId self,
                       RegistersFn registers)
    : exec_(&exec), registers_(std::move(registers)), ballots_(n, self) {}

LeaderTerm::Entry& LeaderTerm::entry(Slot s) {
  auto it = entries_.find(s);
  if (it == entries_.end()) it = entries_.emplace(s, Entry(registers_(s))).first;
  return it->second;
}

bool LeaderTerm::begin_fast(Slot s) {
  if (started_) return false;
  entry(s).claimed = true;
  return true;
}

void LeaderTerm::end_term(std::uint64_t term) {
  if (!active_ || term != term_) return;
  active_ = false;
  ++term_;
}

sim::Task<std::optional<LeaderTerm::Lease>> LeaderTerm::prepare(
    Slot s, Adoption* choice) {
  while (true) {
    Entry& e = entry(s);  // map nodes are stable across suspensions
    if (active_ && e.term == term_) {
      if (!e.claimed) {
        // Prepared ahead by this term, or being prepared.
        const std::shared_ptr<Round> round = e.round;
        if (!round->done.is_open()) {
          co_await round->done.wait();
          continue;  // the round may have failed and ended the term
        }
        e.claimed = true;
        e.round.reset();
        choice->offer(round->adoption);
        prepare_ahead(s);
        co_return Lease{ballot_, term_};
      }
      // A second proposal for a claimed slot.
      end_term(term_);
    }
    if (!active_) {
      ballot_ = ballots_.next();
      active_ = true;
      started_ = true;
    }
    e.term = term_;
    e.claimed = true;
    e.round.reset();
    prepare_ahead(s);
    const Lease lease{ballot_, term_};
    const BallotRecord write1{lease.ballot, 0, false, {}};
    if (co_await e.regs.majority_write_read(write1, ballots_, choice)) {
      co_return lease;
    }
    end_term(lease.term);
    co_return std::nullopt;
  }
}

void LeaderTerm::prepare_ahead(Slot s) {
  if (opened_ <= 1) return;  // slot 0 alone: nothing to amortise
  const Slot end = std::max(s + 1, opened_) + kLookAhead;
  for (Slot t = s + 1; t < end; ++t) {
    Entry& e = entry(t);
    // A claimed slot is re-prepared only by its own proposer, once its
    // phase-2 write has completed: seizing the regions while that write is
    // in flight could let it land under a permission a rival's decision
    // had revoked in between. A ballot-0 slot stays claimed for good: its
    // phase-1 write would erase the value p1 may have decided there.
    if (e.claimed || e.term == term_) continue;
    e.term = term_;
    e.round = std::make_shared<Round>(*exec_);
    exec_->spawn(run_round(shared_from_this(), &e, e.round, {ballot_, term_}));
  }
}

sim::Task<void> LeaderTerm::run_round(std::shared_ptr<LeaderTerm> self,
                                      Entry* entry,
                                      std::shared_ptr<Round> round,
                                      Lease lease) {
  const BallotRecord write1{lease.ballot, 0, false, {}};
  round->ok = co_await entry->regs.majority_write_read(write1, self->ballots_,
                                                       &round->adoption);
  if (!round->ok) self->end_term(lease.term);
  round->done.open();
}

}  // namespace mnm::core

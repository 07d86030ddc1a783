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

}  // namespace mnm::core

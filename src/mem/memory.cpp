#include "src/mem/memory.hpp"

#include <stdexcept>

namespace mnm::mem {

sim::VersionSignal& WriteVersions::region(RegionId r) {
  if (r >= regions_.size()) regions_.resize(r + 1);
  if (regions_[r] == nullptr) {
    regions_[r] = std::make_unique<sim::VersionSignal>(*exec_);
  }
  return *regions_[r];
}

void WriteVersions::bump(RegionId r) {
  VersionSignal::bump();
  if (r < regions_.size() && regions_[r] != nullptr) regions_[r]->bump();
}

void WriteVersions::bump_all() {
  VersionSignal::bump();
  for (const auto& s : regions_) {
    if (s != nullptr) s->bump();
  }
}

Memory::Memory(sim::Executor& exec, MemoryId id, sim::Time op_delay)
    : exec_(&exec), id_(id), op_delay_(op_delay), write_version_(exec) {}

bool Memory::Region::contains(const std::string& reg) const {
  for (const auto& p : prefixes) {
    if (reg.size() >= p.size() && reg.compare(0, p.size(), p) == 0) return true;
  }
  for (const auto& e : exact) {
    if (reg == e) return true;
  }
  return false;
}

RegionId Memory::create_region(std::vector<std::string> prefixes,
                               Permission perm, LegalChangeFn legal,
                               std::vector<std::string> exact) {
  if (!perm.disjoint()) {
    throw std::invalid_argument("Memory::create_region: R/W/RW must be disjoint");
  }
  regions_.push_back(Region{std::move(prefixes), std::move(exact),
                            std::move(perm), std::move(legal)});
  return static_cast<RegionId>(regions_.size());
}

const Memory::Region* Memory::find_region(RegionId id) const {
  if (id < 1 || id > regions_.size()) return nullptr;
  return &regions_[id - 1];
}

sim::Task<Status> Memory::write(ProcessId caller, RegionId region,
                                std::string reg, Bytes value) {
  sim::OneShot<Status> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;  // arrival at the memory
  // Op state lives in one pooled node so the two scheduled callbacks below
  // capture a pointer, not the register name and value (keeps every event
  // inside InlineFn's inline budget).
  struct Op {
    ProcessId caller;
    RegionId region;
    std::string reg;
    Bytes value;
    std::optional<Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(reg),
                                 std::move(value), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;  // request lost inside the dead memory
    const Region* r = find_region(op->region);
    if (r == nullptr || !r->contains(op->reg) || !r->perm.can_write(op->caller)) {
      ++naks_;
      op->outcome = Status::kNak;
      return;
    }
    ++writes_;
    registers_[op->reg] = std::move(op->value);
    op->outcome = Status::kAck;
    write_version_.bump(op->region);
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;  // response never leaves
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

sim::Task<ReadResult> Memory::read(ProcessId caller, RegionId region,
                                   std::string reg) {
  sim::OneShot<ReadResult> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    std::string reg;
    std::optional<ReadResult> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(reg), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    const Region* r = find_region(op->region);
    if (r == nullptr || !r->contains(op->reg) || !r->perm.can_read(op->caller)) {
      ++naks_;
      op->outcome = ReadResult{Status::kNak, {}};
      return;
    }
    ++reads_;
    const auto it = registers_.find(op->reg);
    op->outcome = ReadResult{Status::kAck,
                             it == registers_.end() ? util::bottom() : it->second};
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

sim::Task<std::vector<ReadResult>> Memory::read_many(
    ProcessId caller, RegionId region, std::vector<std::string> regs) {
  sim::OneShot<std::vector<ReadResult>> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    std::vector<std::string> regs;
    std::optional<std::vector<ReadResult>> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(regs), std::nullopt});

  // One effect point for the whole batch: every slot is evaluated against
  // the region permission at the same instant, and the caller pays one
  // round trip instead of regs.size() of them.
  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    ++read_batches_;
    const Region* r = find_region(op->region);
    std::vector<ReadResult> out;
    out.reserve(op->regs.size());
    const bool readable = r != nullptr && r->perm.can_read(op->caller);
    for (const auto& reg : op->regs) {
      if (!readable || !r->contains(reg)) {
        ++naks_;
        out.push_back(ReadResult{Status::kNak, {}});
        continue;
      }
      ++reads_;
      const auto it = registers_.find(reg);
      out.push_back(ReadResult{
          Status::kAck, it == registers_.end() ? util::bottom() : it->second});
    }
    op->outcome = std::move(out);
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

sim::Task<Status> Memory::change_permission(ProcessId caller, RegionId region,
                                            Permission proposed) {
  sim::OneShot<Status> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    Permission proposed;
    std::optional<Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(proposed), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    if (op->region < 1 || op->region > regions_.size() || !op->proposed.disjoint()) {
      ++naks_;
      op->outcome = Status::kNak;
      return;
    }
    Region& r = regions_[op->region - 1];
    // §3: the system evaluates legalChange to decide whether the change
    // takes effect or becomes a no-op. A refused change still *returns* (it
    // is a no-op, not a hang) — we report it as nak so callers can tell.
    if (!r.legal(op->caller, op->region, r.perm, op->proposed)) {
      ++naks_;
      op->outcome = Status::kNak;
      return;
    }
    ++perm_changes_;
    r.perm = std::move(op->proposed);
    op->outcome = Status::kAck;
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

std::optional<Bytes> Memory::peek(const std::string& reg) const {
  const auto it = registers_.find(reg);
  if (it == registers_.end()) return std::nullopt;
  return it->second;
}

void Memory::poke(const std::string& reg, Bytes value) {
  registers_[reg] = std::move(value);
  write_version_.bump_all();  // injected state counts as a write for watchers
}

const Permission& Memory::region_permission(RegionId region) const {
  const Region* r = find_region(region);
  if (r == nullptr) throw std::out_of_range("Memory::region_permission");
  return r->perm;
}

bool Memory::region_contains(RegionId region, const std::string& reg) const {
  const Region* r = find_region(region);
  return r != nullptr && r->contains(reg);
}

}  // namespace mnm::mem

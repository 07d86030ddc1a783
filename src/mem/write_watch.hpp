// Write-change watch over some regions of a set of memories.
//
// Pollers that re-read registers "until something shows up" (NEB's delivery
// scan, Cheap Quorum's follower loops and panic watch) turn into waiters with
// this helper: snapshot() the write versions of the regions they read, do
// one read pass, and if nothing useful surfaced, wait_change() — it resumes
// as soon as any memory applies a write through one of those regions past
// the snapshot. Because the snapshot is taken *before* the read pass, a
// write that lands mid-pass makes the wait return immediately: no lost
// wakeups, no poll ticks. Writes to other regions — another slot's, another
// shard's — never wake the watch, so a waiter's cost does not grow with the
// number of slots sharing the memories.
//
// A watch is itself a sim::Select source (select_ready / select_watch), one
// source however many (memory, region) signals it covers.

#pragma once

#include <cstdint>
#include <vector>

#include "src/mem/memory.hpp"
#include "src/sim/pool.hpp"
#include "src/sim/select.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"
#include "src/sim/wait_node.hpp"

namespace mnm::mem {

class WriteWatch {
 public:
  WriteWatch(const std::vector<MemoryIface*>& memories,
             const std::vector<RegionId>& regions) {
    signals_.reserve(memories.size() * regions.size());
    for (MemoryIface* m : memories) {
      for (RegionId r : regions) signals_.push_back(m->write_version(r));
    }
    seen_.assign(signals_.size(), 0);
  }

  /// Record the current write versions; call before the read pass.
  void snapshot() {
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      seen_[i] = signals_[i]->version();
    }
  }

  /// Select source: ready once some watched region's version has moved
  /// past the last snapshot.
  bool select_ready() const {
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      if (signals_[i]->version() > seen_[i]) return true;
    }
    return false;
  }

  void select_watch(const sim::Rc<sim::SelectNode>& node,
                    std::uint32_t idx) const {
    for (sim::VersionSignal* s : signals_) s->select_watch(node, idx);
  }

  /// The whole wait in one call: suspend until a write lands past the last
  /// snapshot, or `deadline` passes; pass sim::kTimeInfinity as the deadline
  /// for a pure change wait.
  sim::Task<void> wait_change(sim::Executor& exec, sim::Time deadline) {
    sim::Select sel(exec);
    sel.on(*this);
    if (deadline != sim::kTimeInfinity) sel.until(deadline);
    (void)co_await sel;
  }

 private:
  std::vector<sim::VersionSignal*> signals_;
  std::vector<std::uint64_t> seen_;
};

}  // namespace mnm::mem

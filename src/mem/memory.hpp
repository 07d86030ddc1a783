// Shared memories of the M&M model (paper §3, Figure 1).
//
// A memory is a set of named registers grouped into (possibly overlapping)
// regions, each region guarded by a permission. Operations:
//
//   write(mr, r, v) → ack | nak       (nak when r ∉ mr or no write permission)
//   read(mr, r)     → value | nak     (nak when r ∉ mr or no read permission)
//   changePermission(mr, perm)        (filtered through legalChange, §3)
//
// Timing: every operation costs kMemoryOpDelay (2 units — the round trip the
// paper charges memory operations). The request *takes effect* at the
// midpoint (arrival at the memory) and the response lands at the full delay;
// this models RDMA's NIC-side execution and gives per-memory linearizable
// registers, from which the SWMR layer (src/swmr) builds the regular
// registers the algorithms need.
//
// Failures: a crashed memory never executes or answers anything again —
// callers hang (§3: "operations ... hang without returning a response").
// A crash between the effect point and the response leaves the write applied
// but unacknowledged, exactly the ambiguity real systems face.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/mem/permissions.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/oneshot.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace mnm::mem {

enum class Status : std::uint8_t { kAck, kNak };

struct ReadResult {
  Status status = Status::kNak;
  Bytes value;  // meaningful only when status == kAck

  bool ok() const { return status == Status::kAck; }
};

/// One memory's write versions. The signal itself counts every applied
/// write; region(r) counts only the writes applied through region r, so a
/// waiter that reads one slot's registers (mem::WriteWatch) wakes on that
/// slot's writes alone, however many other slots share the memory.
class WriteVersions : public sim::VersionSignal {
 public:
  explicit WriteVersions(sim::Executor& exec)
      : VersionSignal(exec), exec_(&exec) {}

  /// Region r's signal, created on first use; it counts the writes applied
  /// from then on (a watcher snapshots it before reading, so that is enough).
  sim::VersionSignal& region(RegionId r);

  /// A write applied through region r (0: through none).
  void bump(RegionId r);

  /// State injected outside the operation surface (test pokes): every
  /// signal moves.
  void bump_all();

 private:
  sim::Executor* exec_;
  std::vector<std::unique_ptr<sim::VersionSignal>> regions_;  // index r
};

/// Abstract memory surface. `mem::Memory` implements it directly;
/// `verbs::VerbsMemory` implements it through the RDMA-like layer (§7
/// mapping). Algorithms are written against this interface so they run on
/// either backend.
class MemoryIface {
 public:
  virtual ~MemoryIface() = default;

  virtual MemoryId id() const = 0;

  virtual sim::Task<Status> write(ProcessId caller, RegionId region,
                                  std::string reg, Bytes value) = 0;
  virtual sim::Task<ReadResult> read(ProcessId caller, RegionId region,
                                     std::string reg) = 0;
  /// Scatter-gather read: all of `regs` in one request / one response (the
  /// RDMA doorbell-batched read, §7). Costs a single op round trip and a
  /// single permission evaluation per slot at the same instant, so an
  /// n-slot scan is one completion event instead of n. Results are in
  /// `regs` order; a crashed memory hangs the whole batch, like read().
  virtual sim::Task<std::vector<ReadResult>> read_many(
      ProcessId caller, RegionId region, std::vector<std::string> regs) = 0;
  virtual sim::Task<Status> change_permission(ProcessId caller, RegionId region,
                                              Permission proposed) = 0;

  /// The memory's WriteVersions, never null: every backend supplies write
  /// versions, so no waiter needs a poll fallback. Declared as the
  /// memory-wide base signal: a decorator forwards the whole table by
  /// forwarding this one pointer.
  virtual sim::VersionSignal* write_version() = 0;

  /// Bumped at the effect point of every write applied through `region`
  /// (never for naks). Pollers turned waiters (Cheap Quorum's follower
  /// loops, NEB's delivery scan) select on their own regions' signals
  /// instead of sleeping.
  sim::VersionSignal* write_version(RegionId region) {
    return &static_cast<WriteVersions*>(write_version())->region(region);
  }
};

class Memory : public MemoryIface {
 public:
  Memory(sim::Executor& exec, MemoryId id,
         sim::Time op_delay = sim::kMemoryOpDelay);

  MemoryId id() const override { return id_; }

  /// Define a region. Registers belong to it if their name starts with any
  /// of `prefixes` (an empty prefix list with `exact` names is also
  /// supported). Regions may overlap (§3) though the shipped algorithms
  /// keep them disjoint.
  RegionId create_region(std::vector<std::string> prefixes, Permission perm,
                         LegalChangeFn legal = static_permissions(),
                         std::vector<std::string> exact = {});

  sim::Task<Status> write(ProcessId caller, RegionId region,
                          std::string reg, Bytes value) override;
  sim::Task<ReadResult> read(ProcessId caller, RegionId region,
                             std::string reg) override;
  sim::Task<std::vector<ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override;
  sim::Task<Status> change_permission(ProcessId caller, RegionId region,
                                      Permission proposed) override;

  using MemoryIface::write_version;
  WriteVersions* write_version() override { return &write_version_; }

  /// Crash the memory: all in-flight and future operations hang forever.
  void crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  // --- Introspection for tests and the harness (no delay, no permission
  // checks; not part of the model's operation surface). ---
  std::optional<Bytes> peek(const std::string& reg) const;
  void poke(const std::string& reg, Bytes value);
  const Permission& region_permission(RegionId region) const;
  bool region_contains(RegionId region, const std::string& reg) const;

  // Metrics. `reads` counts per-slot detail (a read_many of n slots adds n);
  // `read_batches` counts one per read_many call.
  std::uint64_t reads() const { return reads_; }
  std::uint64_t read_batches() const { return read_batches_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t permission_changes() const { return perm_changes_; }
  std::uint64_t naks() const { return naks_; }

 private:
  struct Region {
    std::vector<std::string> prefixes;
    std::vector<std::string> exact;
    Permission perm;
    LegalChangeFn legal;

    bool contains(const std::string& reg) const;
  };

  const Region* find_region(RegionId id) const;

  sim::Executor* exec_;
  MemoryId id_;
  sim::Time op_delay_;
  bool crashed_ = false;
  std::vector<Region> regions_;  // region id r lives at index r - 1
  std::map<std::string, Bytes> registers_;
  WriteVersions write_version_;

  std::uint64_t reads_ = 0;
  std::uint64_t read_batches_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t perm_changes_ = 0;
  std::uint64_t naks_ = 0;
};

}  // namespace mnm::mem

// Tests for the shared-memory substrate (src/mem): regions, permissions,
// legalChange, operation timing, crash semantics.

#include <gtest/gtest.h>

#include <optional>

#include "src/mem/memory.hpp"
#include "src/mem/write_watch.hpp"
#include "src/sim/executor.hpp"
#include "src/util/bytes.hpp"

namespace mnm::mem {
namespace {

using sim::Executor;
using sim::Task;
using sim::Time;
using util::to_bytes;
using util::to_string;

std::vector<ProcessId> procs(std::size_t n) { return all_processes(n); }

TEST(Permission, DisjointnessChecked) {
  Permission p;
  p.read = {1, 2};
  p.write = {3};
  p.read_write = {4};
  EXPECT_TRUE(p.disjoint());
  p.write.insert(1);
  EXPECT_FALSE(p.disjoint());
}

TEST(Permission, SwmrShape) {
  const Permission p = Permission::swmr(2, procs(3));
  EXPECT_TRUE(p.can_write(2));
  EXPECT_TRUE(p.can_read(2));
  EXPECT_FALSE(p.can_write(1));
  EXPECT_TRUE(p.can_read(1));
  EXPECT_TRUE(p.can_read(3));
  EXPECT_TRUE(p.disjoint());
}

TEST(Permission, OpenAndReadOnly) {
  const Permission open = Permission::open(procs(2));
  EXPECT_TRUE(open.can_write(1));
  EXPECT_TRUE(open.can_write(2));
  const Permission ro = Permission::read_only(procs(2));
  EXPECT_TRUE(ro.can_read(1));
  EXPECT_FALSE(ro.can_write(1));
}

// Helper: run one write then read, return (status, value, finish time).
struct RunResult {
  Status wstatus = Status::kNak;
  ReadResult rresult;
  Time wdone = 0, rdone = 0;
};

RunResult write_then_read(ProcessId writer, ProcessId reader) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r =
      memory.create_region({"slot/"}, Permission::swmr(writer, procs(3)));
  RunResult out;
  exec.spawn([](Executor& e, Memory& m, RegionId r, ProcessId w, ProcessId rd,
                RunResult& out) -> Task<void> {
    out.wstatus = co_await m.write(w, r, "slot/a", to_bytes("v1"));
    out.wdone = e.now();
    out.rresult = co_await m.read(rd, r, "slot/a");
    out.rdone = e.now();
  }(exec, memory, r, writer, reader, out));
  exec.run();
  return out;
}

TEST(Memory, WriteThenReadHappyPath) {
  const RunResult out = write_then_read(/*writer=*/1, /*reader=*/2);
  EXPECT_EQ(out.wstatus, Status::kAck);
  ASSERT_TRUE(out.rresult.ok());
  EXPECT_EQ(to_string(out.rresult.value), "v1");
}

TEST(Memory, EachOpCostsTwoDelays) {
  const RunResult out = write_then_read(1, 2);
  EXPECT_EQ(out.wdone, sim::kMemoryOpDelay);
  EXPECT_EQ(out.rdone, 2 * sim::kMemoryOpDelay);
}

TEST(Memory, WriteWithoutPermissionNaks) {
  const RunResult out = write_then_read(/*writer=*/2, /*reader=*/2);
  // Region is SWMR(2) here, so writing as 2 works; use a fresh scenario where
  // a non-writer tries.
  EXPECT_EQ(out.wstatus, Status::kAck);

  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"slot/"}, Permission::swmr(1, procs(3)));
  Status status = Status::kAck;
  exec.spawn([](Memory& m, RegionId r, Status& status) -> Task<void> {
    status = co_await m.write(3, r, "slot/a", to_bytes("intruder"));
  }(memory, r, status));
  exec.run();
  EXPECT_EQ(status, Status::kNak);
  EXPECT_EQ(memory.naks(), 1u);
  EXPECT_EQ(memory.peek("slot/a"), std::nullopt);  // nothing written
}

TEST(Memory, ReadUnwrittenRegisterReturnsBottom) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"x/"}, Permission::open(procs(1)));
  ReadResult rr;
  exec.spawn([](Memory& m, RegionId r, ReadResult& rr) -> Task<void> {
    rr = co_await m.read(1, r, "x/fresh");
  }(memory, r, rr));
  exec.run();
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(util::is_bottom(rr.value));
}

TEST(Memory, RegisterOutsideRegionNaks) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"a/"}, Permission::open(procs(1)));
  ReadResult rr;
  exec.spawn([](Memory& m, RegionId r, ReadResult& rr) -> Task<void> {
    rr = co_await m.read(1, r, "b/elsewhere");
  }(memory, r, rr));
  exec.run();
  EXPECT_FALSE(rr.ok());
}

TEST(Memory, UnknownRegionNaks) {
  Executor exec;
  Memory memory(exec, 1);
  Status st = Status::kAck;
  exec.spawn([](Memory& m, Status& st) -> Task<void> {
    st = co_await m.write(1, /*region=*/77, "r", to_bytes("x"));
  }(memory, st));
  exec.run();
  EXPECT_EQ(st, Status::kNak);
}

TEST(Memory, StaticPermissionsRefuseChange) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::swmr(1, procs(2)),
                                          static_permissions());
  Status st = Status::kAck;
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.change_permission(2, r, Permission::open(procs(2)));
  }(memory, r, st));
  exec.run();
  EXPECT_EQ(st, Status::kNak);
  EXPECT_EQ(memory.region_permission(r), Permission::swmr(1, procs(2)));
}

TEST(Memory, DynamicPermissionChangeApplies) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::swmr(1, procs(2)),
                                          dynamic_permissions());
  Status st = Status::kNak;
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.change_permission(2, r, Permission::swmr(2, procs(2)));
  }(memory, r, st));
  exec.run();
  EXPECT_EQ(st, Status::kAck);
  EXPECT_TRUE(memory.region_permission(r).can_write(2));
  EXPECT_FALSE(memory.region_permission(r).can_write(1));
  EXPECT_EQ(memory.permission_changes(), 1u);
}

TEST(Memory, LegalChangePredicateIsConsulted) {
  // Cheap Quorum's rule: the only legal change removes the leader's write
  // permission (§4.2).
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(3);
  const auto only_revoke_leader = [](ProcessId, RegionId, const Permission&,
                                     const Permission& proposed) {
    return proposed.write.empty() && proposed.read_write.empty();
  };
  const RegionId r = memory.create_region({"L/"}, Permission::swmr(1, all),
                                          only_revoke_leader);

  Status grab = Status::kAck, revoke = Status::kNak;
  exec.spawn([](Memory& m, RegionId r, const std::vector<ProcessId>& all,
                Status& grab, Status& revoke) -> Task<void> {
    // Illegal: p2 tries to take write permission for itself.
    grab = co_await m.change_permission(2, r, Permission::swmr(2, all));
    // Legal: p2 revokes the leader's write permission.
    revoke = co_await m.change_permission(2, r, Permission::read_only(all));
  }(memory, r, all, grab, revoke));
  exec.run();
  EXPECT_EQ(grab, Status::kNak);
  EXPECT_EQ(revoke, Status::kAck);
  EXPECT_FALSE(memory.region_permission(r).can_write(1));
}

TEST(Memory, RevocationInFlightBeatsWrite) {
  // A write issued before, but arriving after, a permission revocation must
  // nak — the "uncontended instantaneous guarantee" race (§1, §4.2).
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(2);
  const RegionId r = memory.create_region({"L/"}, Permission::swmr(1, all),
                                          dynamic_permissions());
  Status wstatus = Status::kAck;

  // p2's revocation is issued at t=0, taking effect at t=1.
  exec.spawn([](Memory& m, RegionId r, const std::vector<ProcessId>& all) -> Task<void> {
    (void)co_await m.change_permission(2, r, Permission::read_only(all));
  }(memory, r, all));
  // p1's write is also issued at t=0, arriving at t=1 — after the
  // revocation's effect (FIFO tie-break puts the earlier-scheduled effect
  // first).
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.write(1, r, "L/value", to_bytes("v"));
  }(memory, r, wstatus));
  exec.run();
  EXPECT_EQ(wstatus, Status::kNak);
  EXPECT_EQ(memory.peek("L/value"), std::nullopt);
}

TEST(Memory, CrashedMemoryHangsOperations) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  memory.crash();
  bool completed = false;
  exec.spawn([](Memory& m, RegionId r, bool& completed) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("x"));
    completed = true;
  }(memory, r, completed));
  exec.run();
  EXPECT_FALSE(completed);  // hangs forever (§3), never naks
}

TEST(Memory, CrashBetweenEffectAndResponseAppliesButHangs) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  bool completed = false;
  exec.spawn([](Memory& m, RegionId r, bool& completed) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("persisted"));
    completed = true;
  }(memory, r, completed));
  // Write effect lands at t=1; the crash is scheduled at t=2 and — having
  // been registered before the coroutine ran — fires ahead of the response
  // event at the same instant, so the response is swallowed.
  exec.call_at(2, [&] { memory.crash(); });
  exec.run();
  EXPECT_FALSE(completed);
  ASSERT_TRUE(memory.peek("s/a").has_value());
  EXPECT_EQ(to_string(*memory.peek("s/a")), "persisted");
}

TEST(Memory, OverlappingRegionsGrantIndependentAccess) {
  // §3: "a register may belong to several regions, and a process may have
  // access to the register on one region but not another".
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(2);
  const RegionId ro = memory.create_region({"arr/"}, Permission::read_only(all));
  Permission writer_only;
  writer_only.read_write = {1};
  const RegionId rw1 = memory.create_region({"arr/row1/"}, writer_only);

  Status via_ro = Status::kAck, via_rw = Status::kNak;
  ReadResult read_back;
  exec.spawn([](Memory& m, RegionId ro, RegionId rw1, Status& via_ro,
                Status& via_rw, ReadResult& rb) -> Task<void> {
    via_ro = co_await m.write(1, ro, "arr/row1/c3", to_bytes("x"));   // denied
    via_rw = co_await m.write(1, rw1, "arr/row1/c3", to_bytes("x"));  // allowed
    rb = co_await m.read(2, ro, "arr/row1/c3");                       // read via other region
  }(memory, ro, rw1, via_ro, via_rw, read_back));
  exec.run();
  EXPECT_EQ(via_ro, Status::kNak);
  EXPECT_EQ(via_rw, Status::kAck);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(to_string(read_back.value), "x");
}

TEST(Memory, ExactRegisterRegions) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({}, Permission::open(procs(1)),
                                          static_permissions(), {"only_this"});
  EXPECT_TRUE(memory.region_contains(r, "only_this"));
  EXPECT_FALSE(memory.region_contains(r, "only_this_not"));
  EXPECT_FALSE(memory.region_contains(r, "other"));
}

TEST(Memory, NonDisjointRegionRejected) {
  Executor exec;
  Memory memory(exec, 1);
  Permission bad;
  bad.read = {1};
  bad.read_write = {1};
  EXPECT_THROW(memory.create_region({"x/"}, bad), std::invalid_argument);
}

TEST(Memory, CountersTrackOperations) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  exec.spawn([](Memory& m, RegionId r) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("1"));
    (void)co_await m.read(1, r, "s/a");
    (void)co_await m.read(1, r, "s/a");
  }(memory, r));
  exec.run();
  EXPECT_EQ(memory.writes(), 1u);
  EXPECT_EQ(memory.reads(), 2u);
}

// ---------- Per-region write versions (mem::WriteWatch) ----------

/// One watcher pass: snapshot region `watched`, read `regs` one after the
/// other (the pass), then wait for a write. `*woke` records when it resumed.
Task<void> watch_pass(Executor& e, MemoryIface& m, RegionId watched,
                      std::vector<std::pair<RegionId, std::string>> regs,
                      Time* woke) {
  WriteWatch w({&m}, {watched});
  w.snapshot();
  for (auto& [r, reg] : regs) (void)co_await m.read(1, r, reg);
  co_await w.wait_change(e, sim::kTimeInfinity);
  *woke = e.now();
}

Task<void> write_after(Executor& e, MemoryIface& m, Time delay, RegionId r,
                       std::string reg) {
  co_await e.sleep(delay);
  (void)co_await m.write(1, r, std::move(reg), to_bytes("v"));
}

TEST(WriteWatch, WriteToAnotherRegionDoesNotWake) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId a = memory.create_region({"a/"}, Permission::open(procs(2)));
  const RegionId b = memory.create_region({"b/"}, Permission::open(procs(2)));
  sim::VersionSignal* va = memory.write_version(a);
  sim::VersionSignal* vb = memory.write_version(b);
  Time woke = sim::kTimeInfinity;
  exec.spawn(watch_pass(exec, memory, b, {{b, "b/x"}}, &woke));
  exec.spawn(write_after(exec, memory, 0, a, "a/x"));
  exec.run(50);
  EXPECT_EQ(woke, sim::kTimeInfinity);  // A's write moved A's version only
  EXPECT_EQ(va->version(), 1u);
  EXPECT_EQ(vb->version(), 0u);

  const Time b_write_at = exec.now() + 10;
  exec.spawn(write_after(exec, memory, 10, b, "b/x"));
  exec.run();
  EXPECT_EQ(woke, b_write_at + 1);  // B's write takes effect mid-op
}

TEST(WriteWatch, WriteLandingMidPassStillWakes) {
  // The pass reads b/x (effect t=1) then a/y (t=2..4); the write to b/x
  // takes effect at t=3, after the pass looked at it but before the watch
  // arms. The snapshot predates it, so the wait returns at once.
  Executor exec;
  Memory memory(exec, 1);
  const RegionId a = memory.create_region({"a/"}, Permission::open(procs(2)));
  const RegionId b = memory.create_region({"b/"}, Permission::open(procs(2)));
  Time woke = sim::kTimeInfinity;
  exec.spawn(watch_pass(exec, memory, b, {{b, "b/x"}, {a, "a/y"}}, &woke));
  exec.spawn(write_after(exec, memory, 2, b, "b/x"));
  exec.run();
  EXPECT_EQ(woke, 4u);
}

}  // namespace
}  // namespace mnm::mem

// Batched scatter-gather reads (MemoryIface::read_many) on both backends:
// one round trip, one batch counter tick, per-slot results and naks, crash
// semantics, and write-version signals for poll-free watchers.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/harness/process_view.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::mem {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;

Task<void> write_reg(Memory* m, ProcessId p, RegionId r, std::string reg,
                     Bytes v) {
  (void)co_await m->write(p, r, std::move(reg), std::move(v));
}

TEST(ReadMany, OneRoundTripPerSlotResultsInOrder) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all));
  exec.spawn(write_reg(&m, 1, r, "slot/a", to_bytes("A")));
  exec.spawn(write_reg(&m, 1, r, "slot/c", to_bytes("C")));
  exec.run();

  std::vector<ReadResult> out;
  sim::Time completed_at = 0;
  std::vector<std::string> regs{"slot/a", "slot/b", "slot/c"};
  exec.spawn([](Executor* e, Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out, sim::Time* at) -> Task<void> {
    *out = co_await m->read_many(1, r, std::move(regs));
    *at = e->now();
  }(&exec, &m, r, std::move(regs), &out, &completed_at));
  const sim::Time start = exec.now();
  exec.run();

  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, to_bytes("A"));
  EXPECT_TRUE(util::is_bottom(out[1].value));  // unwritten slot reads ⊥
  EXPECT_EQ(out[2].value, to_bytes("C"));
  for (const auto& rr : out) EXPECT_TRUE(rr.ok());
  // The whole batch costs exactly one memory round trip.
  EXPECT_EQ(completed_at - start, sim::kMemoryOpDelay);
  // Counters: one batch, per-slot read detail.
  EXPECT_EQ(m.read_batches(), 1u);
  EXPECT_EQ(m.reads(), 3u);
}

TEST(ReadMany, PerSlotNaksForSlotsOutsideRegion) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all));
  std::vector<ReadResult> out;
  std::vector<std::string> regs{"slot/a", "other/x"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await m->read_many(1, r, std::move(regs));
  }(&m, r, std::move(regs), &out));
  exec.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_FALSE(out[1].ok());  // outside the region: per-slot nak
}

TEST(ReadMany, NoReadPermissionNaksEverySlot) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  // p1 is exclusive writer; p2 can read, p3 is a stranger with no rights.
  const RegionId r = m.create_region({"slot/"}, Permission::exclusive_writer(1, all));
  std::vector<ReadResult> out;
  std::vector<std::string> regs{"slot/a", "slot/b"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await m->read_many(3, r, std::move(regs));
  }(&m, r, std::move(regs), &out));
  exec.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_EQ(m.reads(), 0u);
  EXPECT_EQ(m.read_batches(), 1u);  // the batch arrived; every slot nak'd
}

TEST(ReadMany, CrashedMemoryHangsTheWholeBatch) {
  Executor exec;
  Memory m(exec, 1);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all_processes(2)));
  m.crash();
  bool completed = false;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                bool* done) -> Task<void> {
    (void)co_await m->read_many(1, r, std::move(regs));
    *done = true;
  }(&m, r, std::move(regs), &completed));
  exec.run(1000);
  EXPECT_FALSE(completed);  // §3: operations on crashed memories hang
}

TEST(ReadMany, VerbsBackendMatchesModelBackend) {
  Executor exec;
  const auto all = all_processes(2);
  verbs::VerbsMemory vm(exec,
                        std::make_unique<verbs::RdmaDevice>(exec, 1, 0xfeed),
                        all);
  const RegionId r = vm.create_region({"slot/"}, Permission::open(all));
  exec.spawn([](verbs::VerbsMemory* vm, RegionId r) -> Task<void> {
    (void)co_await vm->write(1, r, "slot/a", to_bytes("A"));
  }(&vm, r));
  exec.run();

  std::vector<ReadResult> out;
  sim::Time completed_at = 0;
  std::vector<std::string> regs{"slot/a", "slot/b"};
  exec.spawn([](Executor* e, verbs::VerbsMemory* vm, RegionId r,
                std::vector<std::string> regs, std::vector<ReadResult>* out,
                sim::Time* at) -> Task<void> {
    *out = co_await vm->read_many(1, r, std::move(regs));
    *at = e->now();
  }(&exec, &vm, r, std::move(regs), &out, &completed_at));
  const sim::Time start = exec.now();
  exec.run();

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, to_bytes("A"));
  EXPECT_TRUE(out[1].ok());
  EXPECT_TRUE(util::is_bottom(out[1].value));
  EXPECT_EQ(completed_at - start, sim::kMemoryOpDelay);
  EXPECT_EQ(vm.device().posted_read_batches(), 1u);
  EXPECT_EQ(vm.device().posted_reads(), 2u);
}

TEST(ReadMany, VerbsRevokedRkeyNaksAtTheNic) {
  Executor exec;
  const auto all = all_processes(2);
  verbs::VerbsMemory vm(exec,
                        std::make_unique<verbs::RdmaDevice>(exec, 1, 0xbeef),
                        all);
  // p1 exclusive writer: p2 may read; nobody else registered.
  const RegionId r = vm.create_region({"slot/"}, Permission::exclusive_writer(1, all));
  std::vector<ReadResult> p2;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](verbs::VerbsMemory* vm, RegionId r,
                std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await vm->read_many(2, r, std::move(regs));
  }(&vm, r, std::move(regs), &p2));
  exec.run();
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_TRUE(p2[0].ok());  // reader registration present

  // An unknown region naks immediately without touching the device,
  // mirroring read().
  std::vector<ReadResult> bad;
  sim::Time at = 0;
  std::vector<std::string> regs2{"slot/a"};
  exec.spawn([](Executor* e, verbs::VerbsMemory* vm,
                std::vector<std::string> regs, std::vector<ReadResult>* out,
                sim::Time* at) -> Task<void> {
    *out = co_await vm->read_many(2, RegionId{99}, std::move(regs));
    *at = e->now();
  }(&exec, &vm, std::move(regs2), &bad, &at));
  const sim::Time start = exec.now();
  exec.run();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_FALSE(bad[0].ok());
  EXPECT_EQ(at, start);  // no device round trip for an unknown region
}

TEST(ReadMany, ProcessViewHangsBatchAfterCrash) {
  Executor exec;
  Memory m(exec, 1);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all_processes(2)));
  auto alive = std::make_shared<bool>(true);
  harness::ProcessView view(exec, m, alive);
  *alive = false;
  bool completed = false;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](harness::ProcessView* v, RegionId r,
                std::vector<std::string> regs, bool* done) -> Task<void> {
    (void)co_await v->read_many(1, r, std::move(regs));
    *done = true;
  }(&view, r, std::move(regs), &completed));
  exec.run(1000);
  EXPECT_FALSE(completed);
}

TEST(WriteVersion, BumpsOnAppliedWritesOnly) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  const RegionId r = m.create_region({"slot/"}, Permission::exclusive_writer(1, all));
  ASSERT_NE(m.write_version(), nullptr);
  const std::uint64_t v0 = m.write_version()->version();

  exec.spawn(write_reg(&m, 1, r, "slot/a", to_bytes("A")));  // applied
  exec.spawn(write_reg(&m, 2, r, "slot/a", to_bytes("B")));  // nak'd (no perm)
  exec.run();
  EXPECT_EQ(m.write_version()->version(), v0 + 1);  // only the ack bumped

  // ProcessView forwards the inner memory's signal.
  auto alive = std::make_shared<bool>(true);
  harness::ProcessView view(exec, m, alive);
  EXPECT_EQ(view.write_version(), m.write_version());
  EXPECT_EQ(view.write_version(r), m.write_version(r));
}

}  // namespace
}  // namespace mnm::mem

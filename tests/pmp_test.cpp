// Unit tests for Protected Memory Paxos (Algorithm 7) and Disk Paxos,
// exercised directly (not through the harness): the ballot-record wire
// format both share, the permission-transfer mechanics (Lemma D.3), value
// adoption, and the 2-vs-4-delay structural difference.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/disk_paxos.hpp"
#include "src/core/omega.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

// PMP slots and Disk Paxos blocks share one codec, core::BallotRecord:
// (promised, accepted, has_value, value) as u64, u64, bool, length-prefixed
// bytes.
TEST(PmpSlotWire, RoundTrip) {
  const BallotRecord r{7, 5, true, to_bytes("v")};
  const auto d = BallotRecord::decode(r.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->promised, 7u);
  EXPECT_EQ(d->accepted, 5u);
  EXPECT_TRUE(d->has_value);
  EXPECT_EQ(to_string(d->value), "v");
  EXPECT_EQ(r.encode().size(), 8u + 8u + 1u + 4u + 1u);
}

TEST(PmpSlotWire, BottomDecodesToEmptySlot) {
  // ⊥ (a register never written) is the all-zero record.
  const auto d = BallotRecord::decode({});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->promised, 0u);
  EXPECT_EQ(d->accepted, 0u);
  EXPECT_FALSE(d->has_value);
}

TEST(PmpSlotWire, GarbageRejected) {
  EXPECT_FALSE(BallotRecord::decode(to_bytes("xx")).has_value());
  Bytes trailing = BallotRecord{7, 5, true, to_bytes("v")}.encode();
  trailing.push_back(0);
  EXPECT_FALSE(BallotRecord::decode(trailing).has_value());
}

TEST(PmpLegalChange, OnlyExclusiveSelfGrabAllowed) {
  const auto all = all_processes(3);
  const auto legal = pmp_legal_change(all);
  // p2 taking exclusive writership for itself: legal.
  EXPECT_TRUE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                    mem::Permission::exclusive_writer(2, all)));
  // p2 granting writership to p3: illegal.
  EXPECT_FALSE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                     mem::Permission::exclusive_writer(3, all)));
  // p2 opening the region: illegal.
  EXPECT_FALSE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                     mem::Permission::open(all)));
}

struct PmpWorld {
  explicit PmpWorld(std::size_t n, std::size_t m, ProcessId leader = kLeaderP1)
      : n(n), network(exec, n), omega(Omega::fixed(exec, leader)) {
    for (std::size_t i = 0; i < m; ++i) {
      memories.push_back(std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      region = make_pmp_region(*memories.back(), n);
      ifc.push_back(memories.back().get());
    }
    PmpConfig pc;
    pc.n = n;
    for (ProcessId p : all_processes(n)) {
      transports.push_back(
          std::make_unique<NetTransport>(exec, network, p, /*tag=*/900));
      pmps.push_back(std::make_unique<ProtectedMemoryPaxos>(
          exec, ifc, region, *transports.back(), omega, pc));
      pmps.back()->start();
    }
  }

  void propose(ProcessId p, const std::string& v) {
    exec.spawn([](ProtectedMemoryPaxos* pmp, Bytes value) -> Task<void> {
      (void)co_await pmp->propose(std::move(value));
    }(pmps[p - 1].get(), to_bytes(v)));
  }

  std::size_t n;
  Executor exec;
  net::Network network;
  Omega omega;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  RegionId region = 0;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<ProtectedMemoryPaxos>> pmps;
};

TEST(ProtectedMemoryPaxos, LeaderFastPathIsOneWrite) {
  PmpWorld w(2, 3);
  w.propose(1, "fast");
  w.propose(2, "slow");
  w.exec.run_until([&] { return w.pmps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[0]->decided());
  EXPECT_EQ(w.pmps[0]->decided_at(), 2u);
  EXPECT_EQ(to_string(w.pmps[0]->decision()), "fast");
  // The fast path did zero permission changes (p1 owns them initially).
  std::uint64_t changes = 0;
  for (auto& m : w.memories) changes += m->permission_changes();
  EXPECT_EQ(changes, 0u);
}

TEST(ProtectedMemoryPaxos, NonP1LeaderRunsFullPhase) {
  PmpWorld w(3, 3, /*leader=*/2);
  w.propose(2, "from-p2");
  w.exec.run_until([&] { return w.pmps[1]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[1]->decided());
  EXPECT_EQ(to_string(w.pmps[1]->decision()), "from-p2");
  // Phase 1 grabbed permissions on the memories.
  std::uint64_t changes = 0;
  for (auto& m : w.memories) changes += m->permission_changes();
  EXPECT_GE(changes, majority(3));
  // Full phase costs more than the fast path: grab(2)+write(2)+read(2)+write(2).
  EXPECT_GE(w.pmps[1]->decided_at(), 8u);
}

TEST(ProtectedMemoryPaxos, LateLeaderAdoptsDecidedValue) {
  // p1 decides; then Ω moves to p2 (simulated by a fresh oracle): p2's
  // phase-1 reads must adopt p1's value (agreement, Theorem D.2).
  PmpWorld w(2, 3);
  w.propose(1, "first");
  w.exec.run_until([&] { return w.pmps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[0]->decided());

  // New world state: p2 becomes leader and proposes a different value. Use
  // a second PMP instance bound to the same memories (decide broadcast off:
  // fresh network tag).
  Omega omega2 = Omega::fixed(w.exec, 2);
  PmpConfig pc;
  pc.n = 2;
  NetTransport late_transport(w.exec, w.network, 2, /*tag=*/990);
  ProtectedMemoryPaxos late(w.exec, w.ifc, w.region, late_transport, omega2, pc);
  late.start();
  w.exec.spawn([](ProtectedMemoryPaxos* pmp) -> Task<void> {
    (void)co_await pmp->propose(to_bytes("second"));
  }(&late));
  w.exec.run_until([&] { return late.decided(); }, 10000);
  ASSERT_TRUE(late.decided());
  EXPECT_EQ(to_string(late.decision()), "first");  // adopted, not its own
}

TEST(ProtectedMemoryPaxos, StolenPermissionNaksOldLeaderWrite) {
  // Lemma D.3's mechanism in isolation: after p2 grabs a memory, p1's
  // phase-2 write naks there.
  PmpWorld w(2, 1);
  mem::Status p1_write = mem::Status::kAck;
  w.exec.spawn([](PmpWorld* w, mem::Status* out) -> Task<void> {
    // p2 seizes the permission.
    (void)co_await w->ifc[0]->change_permission(
        2, w->region, mem::Permission::exclusive_writer(2, all_processes(2)));
    // p1's write now fails.
    BallotRecord s{0, 0, true, to_bytes("stale")};
    *out = co_await w->ifc[0]->write(1, w->region, "pmp/slot/1", s.encode());
  }(&w, &p1_write));
  w.exec.run(100);
  EXPECT_EQ(p1_write, mem::Status::kNak);
}

struct DiskWorld {
  explicit DiskWorld(std::size_t n, std::size_t m)
      : n(n), network(exec, n), omega(Omega::fixed(exec, kLeaderP1)) {
    for (std::size_t i = 0; i < m; ++i) {
      memories.push_back(std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      region = make_disk_region(*memories.back(), n);
      ifc.push_back(memories.back().get());
    }
    DiskPaxosConfig dc;
    dc.n = n;
    for (ProcessId p : all_processes(n)) {
      transports.push_back(
          std::make_unique<NetTransport>(exec, network, p, /*tag=*/910));
      dps.push_back(std::make_unique<DiskPaxos>(exec, ifc, region,
                                                *transports.back(), omega, dc));
      dps.back()->start();
    }
  }

  std::size_t n;
  Executor exec;
  net::Network network;
  Omega omega;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  RegionId region = 0;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<DiskPaxos>> dps;
};

TEST(DiskPaxos, FourDelaysBecauseOfVerifyingRead) {
  DiskWorld w(2, 3);
  w.exec.spawn([](DiskPaxos* dp) -> Task<void> {
    (void)co_await dp->propose(to_bytes("v"));
  }(w.dps[0].get()));
  w.exec.run_until([&] { return w.dps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.dps[0]->decided());
  EXPECT_EQ(w.dps[0]->decided_at(), 4u);
  // And it truly read back: every memory served reads, not just writes.
  for (auto& m : w.memories) EXPECT_GT(m->reads(), 0u);
}

TEST(DiskPaxos, StaticPermissionsNeverChange) {
  DiskWorld w(2, 3);
  mem::Status st = mem::Status::kAck;
  w.exec.spawn([](DiskWorld* w, mem::Status* out) -> Task<void> {
    *out = co_await w->ifc[0]->change_permission(
        1, w->region, mem::Permission::exclusive_writer(1, all_processes(2)));
  }(&w, &st));
  w.exec.run(100);
  EXPECT_EQ(st, mem::Status::kNak);  // the disk model has no changePermission
}

TEST(DiskPaxos, BothProposersAgreeUnderContention) {
  DiskWorld w(2, 3);
  Bytes d1, d2;
  w.exec.spawn([](DiskPaxos* dp, Bytes* out) -> Task<void> {
    *out = co_await dp->propose(to_bytes("a"));
  }(w.dps[0].get(), &d1));
  w.exec.spawn([](DiskPaxos* dp, Bytes* out) -> Task<void> {
    *out = co_await dp->propose(to_bytes("b"));
  }(w.dps[1].get(), &d2));
  w.exec.run_until([&] { return !d1.empty() && !d2.empty(); }, 20000);
  ASSERT_TRUE(w.dps[0]->decided());
  ASSERT_TRUE(w.dps[1]->decided());
  EXPECT_EQ(to_string(d1), to_string(d2));
}

TEST(DiskBlockWire, RoundTripAndBottom) {
  const BallotRecord b{9, 3, true, to_bytes("x")};
  const auto d = BallotRecord::decode(b.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->promised, 9u);
  EXPECT_EQ(d->accepted, 3u);
  EXPECT_EQ(to_string(d->value), "x");
  const auto bot = BallotRecord::decode({});
  ASSERT_TRUE(bot.has_value());
  EXPECT_FALSE(bot->has_value);
  EXPECT_FALSE(BallotRecord::decode(to_bytes("?")).has_value());
}

// One process's leader term over PMP slots at three memories. Each slot's
// regions are created on first use, with p1 as their writer.
struct TermWorld {
  explicit TermWorld(ProcessId self) {
    for (std::size_t i = 0; i < 3; ++i) {
      memories.push_back(
          std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      ifc.push_back(memories.back().get());
    }
    term = std::make_shared<LeaderTerm>(exec, 2, self, [this, self](Slot s) {
      return registers(s, self);
    });
  }

  static std::string prefix(Slot s) { return "s" + std::to_string(s) + "/pmp"; }

  RegionId region(Slot s) {
    while (regions.size() <= s) {
      RegionId id = 0;
      for (auto& m : memories) {
        id = make_pmp_region(*m, 2, kLeaderP1, prefix(regions.size()));
      }
      regions.push_back(id);
    }
    return regions[s];
  }

  /// Process p's registers at slot s.
  BallotRegisters registers(Slot s, ProcessId p) {
    return pmp_slots(exec, ifc, region(s), p, 2, prefix(s));
  }

  /// The term's phase 1 for slot s, run to completion along with the
  /// background rounds it starts.
  std::optional<LeaderTerm::Lease> prepare(Slot s) {
    std::optional<LeaderTerm::Lease> lease;
    bool done = false;
    exec.spawn([](LeaderTerm* t, Slot s, std::optional<LeaderTerm::Lease>* out,
                  bool* done) -> Task<void> {
      Adoption choice(to_bytes("mine"));
      *out = co_await t->prepare(s, &choice);
      *done = true;
    }(term.get(), s, &lease, &done));
    exec.run_until([&] { return done; }, exec.now() + 1000);
    exec.run();
    return lease;
  }

  /// Writes `record` into each memory's copy of `regs`' own register; the
  /// number of acks.
  int write_all(BallotRegisters& regs, const BallotRecord& record) {
    int acks = 0;
    for (std::size_t i = 0; i < regs.size(); ++i) {
      exec.spawn([](BallotRegisters* r, std::size_t i, BallotRecord rec,
                    int* acks) -> Task<void> {
        if (co_await r->write(i, rec) == mem::Status::kAck) ++*acks;
      }(&regs, i, record, &acks));
    }
    exec.run();
    return acks;
  }

  Executor exec;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  std::vector<RegionId> regions;  // index: slot
  std::shared_ptr<LeaderTerm> term;
};

// A leader term's lease must stay safe while its phase-2 write is slow: a
// rival seizes the slot and decides there, and a new term of the lease
// holder starts meanwhile. That term must not seize the claimed slot
// again, or the late write would land under the regained permission and
// overwrite the rival's decision.
TEST(LeaderTerm, NewTermLeavesClaimedSlotsToTheirProposer) {
  TermWorld w(/*self=*/2);
  for (Slot s = 0; s < 3; ++s) w.term->note_opened(s);

  auto lease1 = w.prepare(1);  // p2's term: slot 1 inline, slots 2.. ahead
  const auto lease2 = w.prepare(2);  // slot 2's lease; its write is slow
  ASSERT_TRUE(lease1.has_value());
  ASSERT_TRUE(lease2.has_value());
  EXPECT_EQ(lease2->term, lease1->term);

  // p1 seizes slot 2 and decides "rival" there at a higher ballot.
  BallotRegisters p1_regs = w.registers(2, kLeaderP1);
  for (auto* m : w.ifc) {
    w.exec.spawn([](mem::MemoryIface* m, RegionId r) -> Task<void> {
      (void)co_await m->change_permission(
          1, r, mem::Permission::exclusive_writer(1, all_processes(2)));
    }(m, w.region(2)));
  }
  w.exec.run();
  ASSERT_EQ(w.write_all(p1_regs, BallotRecord{9, 9, true, to_bytes("rival")}),
            3);

  // Slot 1's write naked: the term ends, and slot 1 re-prepares in a new
  // term, which prepares the slots after it again — but not slot 2.
  w.term->end(*lease1);
  lease1 = w.prepare(1);
  ASSERT_TRUE(lease1.has_value());
  EXPECT_NE(lease1->term, lease2->term);

  // The slow write under slot 2's lease lands now and must not be acked
  // at a majority.
  EXPECT_LT(w.write_all(w.term->registers(2),
                        BallotRecord{lease2->ballot, lease2->ballot, true,
                                     to_bytes("mine")}),
            2);
}

// p1's ballot-0 value lives in p1's register alone. If p1's fast write at
// slot 2 decides but the one at slot 1 naks (asynchrony lets the writes
// land out of order), the term p1 then starts at slot 1 must not prepare
// slot 2 ahead: its phase-1 write would erase the decided value, and a
// rival's phase 1 there would adopt nothing.
TEST(LeaderTerm, NewTermLeavesFastPathSlotsAlone) {
  TermWorld w(kLeaderP1);
  for (Slot s = 0; s < 3; ++s) w.term->note_opened(s);

  ASSERT_TRUE(w.term->begin_fast(2));
  ASSERT_EQ(w.write_all(w.term->registers(2),
                        BallotRecord{0, 0, true, to_bytes("fast")}),
            3);
  ASSERT_TRUE(w.prepare(1).has_value());

  // p2's phase 1 at slot 2 must still find p1's decided value.
  BallotRegisters rival = w.registers(2, 2);
  Ballots ballots(2, 2);
  Adoption choice(to_bytes("rival"));
  bool ok = false;
  w.exec.spawn([](BallotRegisters* r, Ballots* b, Adoption* choice,
                  bool* ok) -> Task<void> {
    const BallotRecord write1{b->next(), 0, false, {}};
    *ok = co_await r->majority_write_read(write1, *b, choice);
  }(&rival, &ballots, &choice, &ok));
  w.exec.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(to_string(choice.value()), "fast");
}

}  // namespace
}  // namespace mnm::core

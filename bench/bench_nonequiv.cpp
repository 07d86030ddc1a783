// Experiment F7 — non-equivocating broadcast (Algorithm 2): delivery
// latency (≥ 6 delays, §4 footnote 2), scaling with n and payload size,
// memory-crash tolerance, and equivocation suppression rate. Wall-clock
// throughput of the simulator is measured with google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "src/core/nonequiv_broadcast.hpp"
#include "src/harness/table.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

using namespace mnm;
using namespace mnm::core;

namespace {

struct NebWorld {
  NebWorld(std::size_t n, std::size_t m) : n(n), keystore(7) {
    for (std::size_t i = 0; i < m; ++i) {
      auto mp = std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1));
      regions = make_neb_regions(*mp, n);
      memories.push_back(std::move(mp));
      ifc.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
      slots.push_back(std::make_unique<NebSlots>(exec, ifc, regions));
      nebs.push_back(std::make_unique<NonEquivBroadcast>(
          exec, *slots.back(), keystore, signers.back(), NebConfig{n}));
      nebs.back()->start();
    }
  }

  std::size_t n;
  sim::Executor exec;
  crypto::KeyStore keystore;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  std::map<ProcessId, RegionId> regions;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<NebSlots>> slots;
  std::vector<std::unique_ptr<NonEquivBroadcast>> nebs;
};

void latency_table() {
  std::printf("\n== F7: delivery latency (virtual delays) vs n, payload ==\n");
  harness::Table t({"n", "m", "payload bytes", "first delivery (delays)",
                    "all deliver (delays)"});
  for (std::size_t n : {3u, 5u, 7u}) {
    for (std::size_t payload : {16u, 1024u}) {
      NebWorld w(n, 3);
      std::map<ProcessId, bool> got;
      sim::Time first = 0, all_done = 0;
      for (ProcessId p : all_processes(n)) {
        w.exec.spawn([](sim::Executor* e, NonEquivBroadcast* neb, ProcessId p,
                        std::map<ProcessId, bool>* got, sim::Time* first,
                        sim::Time* all_done, std::size_t n) -> sim::Task<void> {
          (void)co_await neb->deliveries().recv();
          if (*first == 0) *first = e->now();
          (*got)[p] = true;
          if (got->size() == n) *all_done = e->now();
        }(&w.exec, w.nebs[p - 1].get(), p, &got, &first, &all_done, n));
      }
      w.exec.spawn([](NonEquivBroadcast* neb, std::size_t bytes) -> sim::Task<void> {
        (void)co_await neb->broadcast(Bytes(bytes, 0xAB));
      }(w.nebs[0].get(), payload));
      w.exec.run_until([&] { return all_done != 0; }, 5000);
      t.row({std::to_string(n), "3", std::to_string(payload),
             std::to_string(first), std::to_string(all_done)});
    }
  }
  t.print();
  std::printf("(lower bound from the paper: 6 delays after the broadcast\n"
              " write completes — read + copy-write + cross-check read)\n");
}

void equivocation_table() {
  std::printf("\n== F7b: equivocation suppression (1000 randomized attacks) ==\n");
  harness::Table t({"attack shape", "trials", "split deliveries (must be 0)",
                    "any delivery"});
  for (const bool partial_write : {false, true}) {
    int split = 0, delivered = 0;
    const int trials = 500;
    for (int trial = 0; trial < trials; ++trial) {
      NebWorld w(3, 3);
      sim::Rng rng(static_cast<std::uint64_t>(trial) * 31 + 7);
      // Byzantine p2 writes conflicting signed slot values directly;
      // `partial_write` leaves one memory untouched (the quorum-split shape
      // most likely to cause divergent reads).
      w.exec.spawn([](NebWorld* w, sim::Rng rng, bool partial) -> sim::Task<void> {
        for (std::size_t i = 0; i < w->ifc.size(); ++i) {
          if (partial && i == 2) continue;
          const Bytes msg = util::to_bytes("equiv-" + std::to_string(rng.below(2)));
          const crypto::Signature sig =
              w->signers[1].sign(neb_signing_bytes(1, msg));
          (void)co_await w->ifc[i]->write(2, w->regions.at(2), "neb/2/1/2",
                                          encode_neb_slot(1, msg, sig));
        }
      }(&w, rng.fork(), partial_write));

      std::map<ProcessId, std::string> got;
      for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
        w.exec.spawn([](NonEquivBroadcast* neb, std::string* sink) -> sim::Task<void> {
          const NebDelivery d = co_await neb->deliveries().recv();
          *sink = util::to_string(d.message);
        }(w.nebs[p - 1].get(), &got[p]));
      }
      w.exec.run(400);
      if (!got[1].empty() || !got[3].empty()) ++delivered;
      if (!got[1].empty() && !got[3].empty() && got[1] != got[3]) ++split;
    }
    t.row({partial_write ? "2-of-3 memories poisoned" : "all memories poisoned",
           std::to_string(trials), std::to_string(split),
           std::to_string(delivered)});
  }
  t.print();
}

void bm_broadcast_deliver(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t hashed = 0, skipped = 0;
  for (auto _ : state) {
    NebWorld w(n, 3);
    std::size_t delivered = 0;
    for (ProcessId p : all_processes(n)) {
      w.exec.spawn([](NonEquivBroadcast* neb, std::size_t* count) -> sim::Task<void> {
        while (true) {
          (void)co_await neb->deliveries().recv();
          ++*count;
        }
      }(w.nebs[p - 1].get(), &delivered));
    }
    w.exec.spawn([](NonEquivBroadcast* neb) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) (void)co_await neb->broadcast(Bytes(64, 1));
    }(w.nebs[0].get()));
    w.exec.run_until([&] { return delivered >= 10 * n; }, 100000);
    benchmark::DoNotOptimize(delivered);
    hashed = skipped = 0;
    for (const auto& neb : w.nebs) {
      hashed += neb->suffix_bytes_hashed();
      skipped += neb->prefix_bytes_skipped();
    }
  }
  state.counters["deliveries"] = static_cast<double>(10 * n);
  // Suffix-digest verification accounting (last iteration): identical 64-byte
  // payloads share their whole prefix, so per-delivery hashing stays O(new
  // bytes) — the skipped column dwarfs the hashed one as k grows.
  state.counters["suffix_bytes_hashed"] = static_cast<double>(hashed);
  state.counters["prefix_bytes_skipped"] = static_cast<double>(skipped);
}
BENCHMARK(bm_broadcast_deliver)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_nonequiv: non-equivocating broadcast (Algorithm 2)\n");
  latency_table();
  equivocation_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Hot-path microbenchmarks: the three layers every algorithm in this
// reproduction rides on (sim::Executor event dispatch, sim::Channel
// push/pop, net::Network broadcast fan-out) plus the util::Buffer sharing
// that makes broadcasts zero-copy.
//
// These exist as a regression guard for the per-event cost floor: the
// end-to-end guard is bench_smr_throughput, but when that moves, this file
// says which layer did it. scripts/bench.sh runs both with
// --benchmark_format=json and records the trajectory in BENCH_hotpath.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/kv/shard.hpp"
#include "src/net/network.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/util/buffer.hpp"

namespace {

using namespace mnm;

constexpr int kBatch = 1024;

/// Raw event dispatch: schedule a batch of non-cancellable callbacks and
/// drain them. Steady state allocates nothing (InlineFn inline storage,
/// reused queue capacity).
void bm_executor_dispatch(benchmark::State& state) {
  sim::Executor exec;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const sim::Time base = exec.now();
    for (int i = 0; i < kBatch; ++i) {
      exec.schedule_at(base + static_cast<sim::Time>(i % 7), [&sink] { ++sink; });
    }
    exec.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(bm_executor_dispatch);

/// Cancellable timers: acquire a cancel cell, cancel half of them, drain.
/// Exercises the cell free list (no allocation once warm).
void bm_executor_timer_cancel(benchmark::State& state) {
  sim::Executor exec;
  std::uint64_t sink = 0;
  std::vector<sim::TimerHandle> handles;
  handles.reserve(kBatch);
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(exec.call_after(1, [&sink] { ++sink; }));
    }
    for (int i = 0; i < kBatch; i += 2) handles[i].cancel();
    exec.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(bm_executor_timer_cancel);

sim::Task<void> drain(sim::Channel<std::uint64_t>* ch, std::uint64_t* sum) {
  while (true) {
    *sum += co_await ch->recv();
  }
}

/// Channel push/pop through a suspended receiver: every send wakes the
/// consumer coroutine via a scheduled resume (pooled waiter node).
void bm_channel_pushpop(benchmark::State& state) {
  sim::Executor exec;
  sim::Channel<std::uint64_t> ch(exec);
  std::uint64_t sum = 0;
  exec.spawn(drain(&ch, &sum));
  exec.run();
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ch.send(static_cast<std::uint64_t>(i));
      exec.run();
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(bm_channel_pushpop);

sim::Task<void> drain_msgs(sim::Channel<net::Message>* ch, std::uint64_t* count) {
  while (true) {
    net::Message m = co_await ch->recv();
    benchmark::DoNotOptimize(m.payload.data());
    ++*count;
  }
}

/// Broadcast fan-out: one serialize, n shared-buffer deliveries into n live
/// receivers. The payload is wrapped in a Buffer once; each recipient's
/// Message bumps a refcount instead of copying the bytes.
void bm_broadcast_fanout(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Executor exec;
  net::Network net(exec, n);
  std::uint64_t received = 0;
  for (ProcessId p = 1; p <= static_cast<ProcessId>(n); ++p) {
    exec.spawn(drain_msgs(&net.inbox(p).channel(7), &received));
  }
  exec.run();
  const util::Bytes payload(256, 0xAB);
  for (auto _ : state) {
    net.broadcast(1, 7, util::Buffer(payload));
    exec.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(bm_broadcast_fanout)->Arg(3)->Arg(16)->Arg(64);

/// Buffer sharing vs. copying: the n-recipient cost of a broadcast payload.
void bm_buffer_share(benchmark::State& state) {
  const util::Bytes payload(1024, 0x5C);
  for (auto _ : state) {
    util::Buffer buf(payload);  // one copy in
    for (int i = 0; i < 64; ++i) {
      util::Buffer share = buf;  // refcount bump only
      benchmark::DoNotOptimize(share.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(bm_buffer_share);

std::vector<util::Bytes> route_keys() {
  std::vector<util::Bytes> keys;
  keys.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    const std::string name = "key-" + std::to_string(i);
    keys.emplace_back(name.begin(), name.end());
  }
  return keys;
}

/// Static hash routing: the bare hash modulo the shard count — the cost
/// floor the versioned table is measured against.
void bm_shard_map_route(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::vector<util::Bytes> keys = route_keys();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const util::Bytes& k : keys) sink += kv::key_hash(k) % shards;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(bm_shard_map_route)->Arg(1)->Arg(8);

/// Versioned-table routing (src/reconfig/): hash → bucket → owning group
/// through a post-split bucket array, table taken by const reference — the
/// kv::Router's per-op lookup in a reconfiguration run. The delta against
/// bm_shard_map_route is the whole price of dynamic resharding on the hot
/// path (one extra indexed load).
void bm_shard_table_route(benchmark::State& state) {
  // state.range(0) groups after three splits' worth of doubling: the bucket
  // array is wider than the group count, as it is after live resharding.
  kv::ShardTable table(static_cast<std::size_t>(state.range(0)));
  while (table.buckets.size() < 8 * table.groups) {
    const std::size_t b = table.buckets.size();
    table.buckets.resize(2 * b);
    for (std::size_t i = 0; i < b; ++i) table.buckets[b + i] = table.buckets[i];
  }
  const std::vector<util::Bytes> keys = route_keys();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const util::Bytes& k : keys) sink += table.shard_of(k);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(bm_shard_table_route)->Arg(1)->Arg(8);

void bm_bytes_copy(benchmark::State& state) {
  const util::Bytes payload(1024, 0x5C);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      util::Bytes copy = payload;  // what the pre-Buffer fan-out paid
      benchmark::DoNotOptimize(copy.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(bm_bytes_copy);

}  // namespace

BENCHMARK_MAIN();

// Layer probes: decorators over the stack's public seams, plus the recorder
// they report into.
//
// The benchmark assembles every stack itself (see episode.cpp) and slips one
// decorator into each seam:
//
//   NetProbe     core::Transport        net   (under each process's mux)
//   MemProbe     mem::MemoryIface       mem   (over each backing memory)
//   EngineProbe  core::ConsensusEngine  core  (between smr::Log and engine)
//   ApplyProbe   smr::StateMachine      smr   (over each kv::StateMachine)
//
// The decorators are part of both the timed and the traced run; the
// recorder's `on` flag is the only difference. While it is off they only
// forward. While it is on they count, time and stamp, and none of that
// schedules an executor event, so a traced run replays the timed run's
// (time, seq) order exactly; main.cpp checks that on every traced episode.
//
// EngineProbe is the one decorator that adds events in both runs: the
// engine's decision stream is not virtual, so the probe re-queues every
// decision into its own stream (one zero-delay event per decided slot per
// replica) and mirrors the inner slot horizon.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/transport.hpp"
#include "src/kv/command.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/select.hpp"
#include "src/smr/log.hpp"

namespace perfbench {

using namespace mnm;

/// Wall-clock microseconds since `t0`.
inline double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// (client, seq) packed into one map key; client ids are dense and small,
/// seqs stay far below 2^40 in any episode.
inline std::uint64_t op_key(std::uint64_t client, std::uint64_t seq) {
  return (client << 40) | seq;
}
/// (shard, slot) and (shard, replica, slot) map keys.
inline std::uint64_t slot_key(std::size_t shard, Slot slot) {
  return (static_cast<std::uint64_t>(shard) << 48) | slot;
}
inline std::uint64_t replica_slot_key(std::size_t shard, ProcessId p,
                                      Slot slot) {
  return (static_cast<std::uint64_t>(shard) << 56) |
         (static_cast<std::uint64_t>(p) << 48) | slot;
}

struct ProposeStamp {
  ProcessId replica = 0;
  sim::Time start = 0;
};
struct DecisionStamp {
  sim::Time decided_at = 0;  // Decision::decided_at
  sim::Time handed_up = 0;   // when the engine released it to smr
};
struct ApplyStamp {
  ProcessId replica = 0;
  Slot slot = 0;
  sim::Time at = 0;
};

/// One Chrome trace "complete" event. Times are in delays.
struct Span {
  std::string name;
  int pid = 0;
  std::uint64_t tid = 0;
  double start = 0;
  double dur = 0;
  std::uint64_t op = 0;  // shared by every span of one op (0 = none)
  Slot slot = 0;
};

/// Everything the probes of one episode report. Counters and stamps are
/// written only while `on`.
struct Recorder {
  bool on = false;
  bool keep_spans = false;

  // net
  std::uint64_t msgs = 0;
  std::uint64_t msg_bytes = 0;
  double send_us = 0;
  // mem
  std::uint64_t mem_ops = 0;  // calls: read, read_many, write, perm change
  std::uint64_t mem_failed = 0;
  std::uint64_t mem_reads = 0;  // per-slot detail
  std::uint64_t mem_read_batches = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t mem_perm_changes = 0;
  std::uint64_t mem_bytes = 0;
  std::vector<sim::Time> mem_latencies;
  // core
  std::uint64_t proposals = 0;
  std::uint64_t fast = 0;
  std::uint64_t aborts = 0;
  std::uint64_t decided_slots = 0;  // summed over replicas
  std::uint64_t decided_cmds = 0;
  std::unordered_map<std::uint64_t, std::vector<ProposeStamp>> proposes;
  std::unordered_map<std::uint64_t, DecisionStamp> decisions;
  // smr
  std::uint64_t applies = 0;
  double apply_us = 0;
  std::unordered_map<std::uint64_t, ApplyStamp> first_apply;
  std::unordered_map<std::uint64_t, std::uint8_t> apply_ops;  // kv::Op
  // spans (first traced episode only)
  std::vector<Span> spans;
};

/// net: counts and times every send on one process's base transport.
class NetProbe final : public core::Transport {
 public:
  NetProbe(core::Transport& inner, Recorder& rec)
      : inner_(&inner), rec_(&rec) {}

  ProcessId self() const override { return inner_->self(); }
  std::size_t process_count() const override {
    return inner_->process_count();
  }
  sim::Channel<core::TMsg>& incoming() override { return inner_->incoming(); }

  void send(ProcessId dst, util::Buffer payload) override {
    if (!rec_->on) return inner_->send(dst, std::move(payload));
    const auto t0 = std::chrono::steady_clock::now();
    ++rec_->msgs;
    rec_->msg_bytes += payload.size();
    inner_->send(dst, std::move(payload));
    rec_->send_us += us_since(t0);
  }

  void send_all(util::Buffer payload, bool include_self = true) override {
    if (!rec_->on) return inner_->send_all(std::move(payload), include_self);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t copies = process_count() - (include_self ? 0 : 1);
    rec_->msgs += copies;
    rec_->msg_bytes += copies * payload.size();
    inner_->send_all(std::move(payload), include_self);
    rec_->send_us += us_since(t0);
  }

 private:
  core::Transport* inner_;
  Recorder* rec_;
};

/// mem: counts every operation on one backing memory, its bytes, its
/// outcome and its virtual latency.
class MemProbe final : public mem::MemoryIface {
 public:
  MemProbe(sim::Executor& exec, mem::MemoryIface& inner, Recorder& rec)
      : exec_(&exec), inner_(&inner), rec_(&rec) {}

  MemoryId id() const override { return inner_->id(); }
  sim::VersionSignal* write_version() override {
    return inner_->write_version();
  }

  sim::Task<mem::Status> write(ProcessId caller, RegionId region,
                               std::string reg, Bytes value) override {
    if (!rec_->on) {
      co_return co_await inner_->write(caller, region, std::move(reg),
                                       std::move(value));
    }
    const sim::Time t0 = exec_->now();
    ++rec_->mem_writes;
    rec_->mem_bytes += value.size();
    const mem::Status s = co_await inner_->write(caller, region,
                                                 std::move(reg),
                                                 std::move(value));
    finish(t0, s == mem::Status::kAck);
    co_return s;
  }

  sim::Task<mem::ReadResult> read(ProcessId caller, RegionId region,
                                  std::string reg) override {
    if (!rec_->on) co_return co_await inner_->read(caller, region, std::move(reg));
    const sim::Time t0 = exec_->now();
    ++rec_->mem_reads;
    mem::ReadResult r = co_await inner_->read(caller, region, std::move(reg));
    rec_->mem_bytes += r.value.size();
    finish(t0, r.ok());
    co_return r;
  }

  sim::Task<std::vector<mem::ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override {
    if (!rec_->on) {
      co_return co_await inner_->read_many(caller, region, std::move(regs));
    }
    const sim::Time t0 = exec_->now();
    rec_->mem_reads += regs.size();
    ++rec_->mem_read_batches;
    std::vector<mem::ReadResult> rs =
        co_await inner_->read_many(caller, region, std::move(regs));
    bool ok = true;
    for (const mem::ReadResult& r : rs) {
      rec_->mem_bytes += r.value.size();
      ok = ok && r.ok();
    }
    finish(t0, ok);
    co_return rs;
  }

  sim::Task<mem::Status> change_permission(ProcessId caller, RegionId region,
                                           mem::Permission proposed) override {
    if (!rec_->on) {
      co_return co_await inner_->change_permission(caller, region,
                                                   std::move(proposed));
    }
    const sim::Time t0 = exec_->now();
    ++rec_->mem_perm_changes;
    const mem::Status s =
        co_await inner_->change_permission(caller, region, std::move(proposed));
    finish(t0, s == mem::Status::kAck);
    co_return s;
  }

 private:
  void finish(sim::Time t0, bool ok) {
    ++rec_->mem_ops;
    if (!ok) ++rec_->mem_failed;
    rec_->mem_latencies.push_back(exec_->now() - t0);
  }

  sim::Executor* exec_;
  mem::MemoryIface* inner_;
  Recorder* rec_;
};

/// core: stamps the start of every propose (and its span, its fast path,
/// its abort), and every decision the engine hands up to smr::Log with its
/// Decision.at.
class EngineProbe final : public core::ConsensusEngine {
 public:
  EngineProbe(sim::Executor& exec, core::ConsensusEngine& inner,
              std::size_t shard, Recorder& rec)
      : ConsensusEngine(exec), inner_(&inner), shard_(shard), rec_(&rec) {}

  ProcessId self() const override { return inner_->self(); }
  std::size_t process_count() const override {
    return inner_->process_count();
  }
  core::Transport* control_transport() override {
    return inner_->control_transport();
  }

  void start() override {
    inner_->start();
    exec_->spawn(relay_decisions(this));
    exec_->spawn(mirror_horizon(this));
  }

  void open_slot(Slot slot) override {
    inner_->open_slot(slot);
    sync_horizon();
  }

  sim::Task<core::Decision> propose(Slot slot, Bytes value) override {
    if (!rec_->on) co_return co_await inner_->propose(slot, std::move(value));
    const sim::Time start = exec_->now();
    ++rec_->proposals;
    rec_->proposes[slot_key(shard_, slot)].push_back({self(), start});
    try {
      core::Decision d = co_await inner_->propose(slot, std::move(value));
      if (d.fast) ++rec_->fast;
      if (rec_->keep_spans) {
        rec_->spans.push_back(
            {"propose g" + std::to_string(shard_), static_cast<int>(self()),
             shard_ * 1000 + slot % 64, static_cast<double>(start),
             static_cast<double>(exec_->now() - start), 0, slot});
      }
      co_return d;
    } catch (const core::ProposeAborted&) {
      ++rec_->aborts;
      throw;
    }
  }

 private:
  static sim::Task<void> relay_decisions(EngineProbe* self) {
    while (true) {
      core::SlotDecision sd = co_await self->inner_->decisions().recv();
      self->sync_horizon();
      Recorder& rec = *self->rec_;
      if (rec.on) {
        ++rec.decided_slots;
        rec.decided_cmds += smr::decode_batch(sd.decision.value).size();
        rec.decisions[replica_slot_key(self->shard_, self->self(), sd.slot)] =
            {sd.decision.decided_at, self->exec_->now()};
      }
      self->push_decision(sd.slot, std::move(sd.decision));
    }
  }

  static sim::Task<void> mirror_horizon(EngineProbe* self) {
    while (true) {
      const std::uint64_t seen = self->inner_->horizon_signal().version();
      self->sync_horizon();
      sim::Select sel(*self->exec_);
      sel.on(self->inner_->horizon_signal(), seen);
      (void)co_await sel;
    }
  }

  void sync_horizon() {
    if (inner_->slot_horizon() > slot_horizon()) {
      note_slot(inner_->slot_horizon() - 1);
    }
  }

  core::ConsensusEngine* inner_;
  std::size_t shard_;
  Recorder* rec_;
};

/// smr: counts and times every apply, and stamps the first apply of each
/// (client, seq) in the shard — the apply whose reply the client receives.
class ApplyProbe final : public smr::StateMachine {
 public:
  ApplyProbe(sim::Executor& exec, smr::StateMachine& inner, ProcessId replica,
             Recorder& rec)
      : exec_(&exec), inner_(&inner), replica_(replica), rec_(&rec) {}

  void apply(Slot slot, util::ByteView command) override {
    if (!rec_->on) return inner_->apply(slot, command);
    const auto t0 = std::chrono::steady_clock::now();
    inner_->apply(slot, command);
    rec_->apply_us += us_since(t0);
    ++rec_->applies;
    if (const auto sc = kv::decode_signed_command(command)) {
      const std::uint64_t key = op_key(sc->cmd.client, sc->cmd.seq);
      if (rec_->first_apply.try_emplace(key, ApplyStamp{replica_, slot,
                                                        exec_->now()})
              .second) {
        rec_->apply_ops[key] = static_cast<std::uint8_t>(sc->cmd.op);
      }
    }
  }

  Bytes snapshot() const override { return inner_->snapshot(); }
  bool restore(util::ByteView raw) override { return inner_->restore(raw); }
  Bytes export_range(util::ByteView request) const override {
    return inner_->export_range(request);
  }

 private:
  sim::Executor* exec_;
  smr::StateMachine* inner_;
  ProcessId replica_;
  Recorder* rec_;
};

}  // namespace perfbench

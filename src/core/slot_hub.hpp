// Slot-tag namespace over ONE Transport.
//
// A replicated log runs one consensus instance per slot. Before this hub,
// every instance needed its own network tag (examples hand-allocated
// kBaseTag + slot); now a replica owns a single base transport and the hub
// frames each payload with its 8-byte slot id, demultiplexing inbound
// messages to per-slot sub-transports. Sub-transports are created on demand
// on BOTH sides: a follower that has never heard of slot s gets a buffering
// sub the moment the first message for s arrives, and the `heard` signal +
// `horizon()` (or `heard_below()`, for a slot below the horizon) tell the
// engine's discovery loop to open the slot's instance, which then drains
// the buffered messages. That is what makes leader-driven pipelining work
// without any out-of-band slot announcement.
//
// Hot-path shape matches TransportMux: framing is one extra Writer into the
// shared broadcast buffer (still one serialize per broadcast), inbound
// stripping is a zero-copy Buffer slice, and the slot → sub table is a
// util::FlatMap (open-addressed, no erase).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/util/flat_map.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

class SlotTransportHub {
 public:
  /// Frames whose slot id is ≥ max_slot are dropped: malformed (or
  /// Byzantine) traffic must not inflate the horizon and trick learners
  /// into opening unbounded per-slot state.
  static constexpr Slot kDefaultMaxSlot = Slot{1} << 20;

  /// Reserved frame id for the control channel (catch-up requests and
  /// responses between replicas, and the range-snapshot transfer frames of
  /// live resharding — smr/catchup.hpp demuxes the kinds by leading tag
  /// byte). All-ones can never be a real slot — it is
  /// far above every max_slot guard — so the demux routes it to a dedicated
  /// sub-transport without advancing the horizon: control traffic must not
  /// look like slot activity to the discovery loop.
  static constexpr Slot kControlSlot = ~Slot{0};

  SlotTransportHub(sim::Executor& exec, Transport& base,
                   Slot max_slot = kDefaultMaxSlot)
      : exec_(&exec), base_(&base), max_slot_(max_slot), heard_(exec) {}

  ProcessId self() const { return base_->self(); }
  std::size_t process_count() const { return base_->process_count(); }

  /// The sub-transport for `slot` (created on first use; also advances the
  /// horizon, so opening a slot locally counts as hearing of it).
  Transport& slot(Slot s) {
    note(s);
    return sub(s);
  }

  /// Spawn the demux loop. Call exactly once, before messages flow.
  void start() { exec_->spawn(demux_loop(this)); }

  /// One past the highest slot with observed activity (local opens and
  /// inbound frames). `heard()` bumps whenever it grows, and whenever a
  /// frame arrives first for a slot below it.
  Slot horizon() const { return horizon_; }
  sim::VersionSignal& heard() { return heard_; }

  /// Slots below the horizon whose first frame arrived before anyone
  /// opened them, in arrival order. Opening slots up to the horizon does
  /// not reach them once a higher slot was opened, so the discovery loop
  /// opens these too and clears the list.
  std::vector<Slot>& heard_below() { return heard_below_; }

  /// The control channel: a sub-transport on the reserved kControlSlot
  /// frame id. Created on first use; its traffic never notes the horizon.
  Transport& control() { return sub(kControlSlot); }

  static Bytes frame(Slot s, util::ByteView payload) {
    util::Writer w(payload.size() + 8);
    w.u64(s).raw(payload);
    return std::move(w).take();
  }

 private:
  class Sub : public Transport {
   public:
    Sub(sim::Executor& exec, Transport& base, Slot s)
        : base_(&base), slot_(s), incoming_(exec) {}

    ProcessId self() const override { return base_->self(); }
    std::size_t process_count() const override {
      return base_->process_count();
    }
    void send(ProcessId dst, util::Buffer payload) override {
      base_->send(dst, frame(slot_, payload));
    }
    void send_all(util::Buffer payload, bool include_self = true) override {
      // Frame once; the framed buffer is shared across the fan-out.
      base_->send_all(frame(slot_, payload), include_self);
    }
    sim::Channel<TMsg>& incoming() override { return incoming_; }

   private:
    Transport* base_;
    Slot slot_;
    sim::Channel<TMsg> incoming_;
    friend class SlotTransportHub;
  };

  Sub& sub(Slot s) {
    std::unique_ptr<Sub>& cell = subs_[s];
    if (cell == nullptr) cell = std::make_unique<Sub>(*exec_, *base_, s);
    return *cell;
  }

  void note(Slot s) {
    if (s >= max_slot_) return;
    if (s + 1 > horizon_) {
      horizon_ = s + 1;
      heard_.bump();
    }
  }

  static sim::Task<void> demux_loop(SlotTransportHub* hub) {
    while (true) {
      TMsg m = co_await hub->base_->incoming().recv();
      if (m.payload.size() < 8) continue;  // malformed: drop
      std::uint64_t s = 0;
      try {
        util::Reader r(m.payload);
        s = r.u64();
      } catch (const util::SerdeError&) {
        continue;
      }
      if (s == kControlSlot) {  // control frame: route, never note
        Sub& ctl = hub->sub(kControlSlot);
        m.payload = m.payload.suffix(8);
        ctl.incoming_.send(std::move(m));
        continue;
      }
      if (s >= hub->max_slot_) continue;  // horizon guard: drop
      hub->note(s);
      std::unique_ptr<Sub>& cell = hub->subs_[s];
      if (cell == nullptr) {
        cell = std::make_unique<Sub>(*hub->exec_, *hub->base_, s);
        if (s + 1 < hub->horizon_) {
          hub->heard_below_.push_back(s);
          hub->heard_.bump();
        }
      }
      Sub& sub = *cell;
      m.payload = m.payload.suffix(8);  // strip the slot id, zero-copy
      sub.incoming_.send(std::move(m));
    }
  }

  sim::Executor* exec_;
  Transport* base_;
  Slot max_slot_;
  Slot horizon_ = 0;
  sim::VersionSignal heard_;
  std::vector<Slot> heard_below_;
  util::FlatMap<std::uint64_t, std::unique_ptr<Sub>> subs_;
};

}  // namespace mnm::core

#include "src/reconfig/table_machine.hpp"

#include <utility>

#include "src/util/fnv.hpp"
#include "src/util/serde.hpp"

namespace mnm::reconfig {

void TableMachine::apply(Slot, util::ByteView command) {
  const std::optional<ConfigChange> c = decode_config_change(command);
  if (!c.has_value()) {
    ++malformed_;  // no-op, deterministically, on every correct replica
    return;
  }
  std::optional<kv::ShardTable> next = apply_change(table_, *c);
  if (!next.has_value()) {
    ++rejected_;  // stale (duplicate re-propose) or invalid: no-op
    return;
  }
  table_ = *std::move(next);
  ++applied_;
  if (sink_) sink_(table_, *c);
}

std::uint64_t TableMachine::state_hash() const {
  std::uint64_t h = kv::shard_table_hash(table_);
  h = util::fnv1a_u64(h, applied_);
  h = util::fnv1a_u64(h, rejected_);
  h = util::fnv1a_u64(h, malformed_);
  return h;
}

Bytes TableMachine::snapshot() const {
  const Bytes table = encode_shard_table(table_);
  util::Writer w(4 + table.size() + 8 * 4);
  w.bytes(table).u64(applied_).u64(rejected_).u64(malformed_);
  // Trailing digest: the agreement fold, so any corruption fails closed on
  // restore.
  w.u64(state_hash());
  return std::move(w).take();
}

bool TableMachine::restore(util::ByteView raw) {
  // Decode into a scratch machine and check the digest with the same fold
  // snapshot() wrote; only then adopt its state (the sink is wiring).
  TableMachine decoded(kv::ShardTable{});
  std::uint64_t claimed = 0;
  try {
    util::Reader r(raw);
    const Bytes table_bytes = r.bytes();
    std::optional<kv::ShardTable> t = kv::decode_shard_table(table_bytes);
    if (!t.has_value()) return false;
    decoded.table_ = *std::move(t);
    decoded.applied_ = r.u64();
    decoded.rejected_ = r.u64();
    decoded.malformed_ = r.u64();
    claimed = r.u64();
    r.expect_end();
  } catch (const util::SerdeError&) {
    return false;
  }
  if (decoded.state_hash() != claimed) return false;
  decoded.sink_ = std::move(sink_);
  *this = std::move(decoded);
  // Deliberately no sink call: restore() runs on a rejoiner installing a
  // peer's snapshot — the cluster-level view already saw these epochs from
  // the replicas that applied them live.
  return true;
}

}  // namespace mnm::reconfig

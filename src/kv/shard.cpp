#include "src/kv/shard.hpp"

#include <algorithm>

#include "src/util/fnv.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

ShardTable::ShardTable(std::size_t shards) {
  const std::size_t n = std::clamp<std::size_t>(shards, 1, kMaxTableGroups);
  groups = static_cast<std::uint32_t>(n);
  buckets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    buckets[i] = static_cast<std::uint32_t>(i);
  }
}

bool valid_shard_table(const ShardTable& t) {
  if (t.buckets.empty() || t.buckets.size() > kMaxTableBuckets) return false;
  if (t.groups == 0 || t.groups > kMaxTableGroups) return false;
  for (const std::uint32_t g : t.buckets) {
    if (g >= t.groups) return false;
  }
  return true;
}

std::uint64_t shard_table_hash(const ShardTable& t) {
  std::uint64_t h = util::kFnvOffset;
  h = util::fnv1a_u64(h, t.epoch);
  h = util::fnv1a_u64(h, t.groups);
  h = util::fnv1a_u64(h, t.buckets.size());
  for (const std::uint32_t b : t.buckets) h = util::fnv1a_u64(h, b);
  return h;
}

Bytes encode_shard_table(const ShardTable& t) {
  util::Writer w(8 + 4 + 4 + 4 * t.buckets.size());
  w.u64(t.epoch).u32(t.groups).u32(
      static_cast<std::uint32_t>(t.buckets.size()));
  for (const std::uint32_t b : t.buckets) w.u32(b);
  return std::move(w).take();
}

std::optional<ShardTable> decode_shard_table(util::ByteView raw) {
  try {
    util::Reader r(raw);
    ShardTable t;
    t.epoch = r.u64();
    t.groups = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || count > kMaxTableBuckets) return std::nullopt;
    // The count is peer-controlled (tables travel through consensus slots a
    // Byzantine proposer can win): cap the pre-size by the bytes actually
    // present — each bucket costs 4 bytes — so a forged header cannot force
    // an allocation before parsing fails.
    t.buckets.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) t.buckets.push_back(r.u32());
    r.expect_end();
    if (!valid_shard_table(t)) return std::nullopt;
    return t;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace mnm::kv

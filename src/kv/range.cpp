#include "src/kv/range.hpp"

#include <algorithm>

#include "src/util/fnv.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

namespace {

/// The only statuses a TxnPrepare can produce — what a PrepareMark carries.
bool prepare_status_valid(std::uint8_t status) {
  const auto st = static_cast<Status>(status);
  return st == Status::kOk || st == Status::kTxnConflict ||
         st == Status::kTxnAborted;
}

bool valid_spec(const RangeSpec& spec) {
  if (spec.table_buckets == 0 || spec.table_buckets > kMaxTableBuckets) {
    return false;
  }
  if (spec.buckets.empty() || spec.buckets.size() > spec.table_buckets) {
    return false;
  }
  for (std::size_t i = 0; i < spec.buckets.size(); ++i) {
    if (spec.buckets[i] >= spec.table_buckets) return false;
    if (i > 0 && spec.buckets[i] <= spec.buckets[i - 1]) return false;
  }
  return true;
}

}  // namespace

Bytes encode_range_spec(const RangeSpec& spec) {
  util::Writer w(8 + 4 + 4 + 4 * spec.buckets.size());
  w.u64(spec.epoch).u32(spec.table_buckets).u32(
      static_cast<std::uint32_t>(spec.buckets.size()));
  for (const std::uint32_t b : spec.buckets) w.u32(b);
  return std::move(w).take();
}

std::optional<RangeSpec> decode_range_spec(util::ByteView raw) {
  try {
    util::Reader r(raw);
    RangeSpec spec;
    spec.epoch = r.u64();
    spec.table_buckets = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || count > kMaxTableBuckets) return std::nullopt;
    // Peer-controlled count: bound the pre-size by the bytes present.
    spec.buckets.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) spec.buckets.push_back(r.u32());
    r.expect_end();
    if (!valid_spec(spec)) return std::nullopt;
    return spec;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

void encode_records(util::Writer& w, const Records& recs) {
  w.u32(static_cast<std::uint32_t>(recs.pairs.size()));
  for (const auto& [k, v] : recs.pairs) w.bytes(k).bytes(v);
  w.u32(static_cast<std::uint32_t>(recs.sessions.size()));
  for (const SessionRecord& s : recs.sessions) {
    w.u64(s.client)
        .u64(s.last_seq)
        .u8(static_cast<std::uint8_t>(s.reply.status))
        .bytes(s.reply.value);
  }
  w.u32(static_cast<std::uint32_t>(recs.locks.size()));
  for (const auto& [k, l] : recs.locks) {
    w.bytes(k).u64(l.txn).u64(l.owner).u8(l.write).bytes(l.value);
    w.u8(l.has_expected ? 1 : 0).bytes(l.expected);
  }
  w.u32(static_cast<std::uint32_t>(recs.prepare_marks.size()));
  for (const PrepareMark& m : recs.prepare_marks) {
    w.u64(m.client).u64(m.seq).u8(m.status);
  }
}

bool decode_records(util::Reader& r, Records& out) {
  const std::uint32_t npairs = r.u32();
  // Every pair costs at least its two 4-byte length prefixes.
  out.pairs.reserve(std::min<std::size_t>(npairs, r.remaining() / 8));
  for (std::uint32_t i = 0; i < npairs; ++i) {
    Bytes k = r.bytes();
    Bytes v = r.bytes();
    // Map order is canonical: out-of-order or duplicate keys mean the bytes
    // were not produced by an honest encoder.
    if (i > 0 && k <= out.pairs.back().first) return false;
    out.pairs.emplace_back(std::move(k), std::move(v));
  }
  const std::uint32_t nsessions = r.u32();
  out.sessions.reserve(std::min<std::size_t>(nsessions, r.remaining() / 21));
  for (std::uint32_t i = 0; i < nsessions; ++i) {
    SessionRecord s;
    s.client = r.u64();
    s.last_seq = r.u64();
    const std::uint8_t status = r.u8();
    // Only committed outcomes are cacheable — see status_persistable.
    if (!status_persistable(status)) return false;
    s.reply.status = static_cast<Status>(status);
    s.reply.value = r.bytes();
    if (i > 0 && s.client <= out.sessions.back().client) return false;
    out.sessions.push_back(std::move(s));
  }
  const std::uint32_t nlocks = r.u32();
  // Each lock costs at least its three length prefixes + fixed fields.
  out.locks.reserve(std::min<std::size_t>(nlocks, r.remaining() / 30));
  for (std::uint32_t i = 0; i < nlocks; ++i) {
    Bytes k = r.bytes();
    Lock l;
    l.txn = r.u64();
    l.owner = r.u64();
    l.write = r.u8();
    if (l.write < 1 || l.write > 2) return false;
    l.value = r.bytes();
    const std::uint8_t guarded = r.u8();
    if (guarded > 1) return false;
    l.has_expected = guarded != 0;
    l.expected = r.bytes();
    // Canonical form: no guard ⇒ no guard bytes.
    if (!l.has_expected && !l.expected.empty()) return false;
    if (i > 0 && k <= out.locks.back().first) return false;
    out.locks.emplace_back(std::move(k), std::move(l));
  }
  const std::uint32_t nmarks = r.u32();
  out.prepare_marks.reserve(std::min<std::size_t>(nmarks, r.remaining() / 17));
  auto session = out.sessions.begin();
  for (std::uint32_t i = 0; i < nmarks; ++i) {
    PrepareMark m;
    m.client = r.u64();
    m.seq = r.u64();
    m.status = r.u8();
    if (m.seq == 0 || !prepare_status_valid(m.status)) return false;
    if (i > 0 && m.client <= out.prepare_marks.back().client) return false;
    // A mark extends its client's session record: both tables are in client
    // order, so one forward walk finds it.
    while (session != out.sessions.end() && session->client < m.client) {
      ++session;
    }
    if (session == out.sessions.end() || session->client != m.client) {
      return false;
    }
    out.prepare_marks.push_back(m);
  }
  return true;
}

Bytes encode_range_snapshot(const RangeSnapshot& snap) {
  util::Writer w;
  w.bytes(encode_range_spec(snap.spec));
  encode_records(w, snap);
  w.u64(util::fnv1a(util::kFnvOffset, w.data()));
  return std::move(w).take();
}

std::optional<RangeSnapshot> decode_range_snapshot(util::ByteView raw) {
  RangeSnapshot snap;
  try {
    util::Reader r(raw);
    const std::optional<RangeSpec> spec = decode_range_spec(r.bytes());
    if (!spec.has_value()) return std::nullopt;
    snap.spec = *spec;
    if (!decode_records(r, snap)) return std::nullopt;
    const std::size_t body = raw.size() - r.remaining();
    const std::uint64_t claimed = r.u64();
    r.expect_end();
    // The digest covers every byte before it: a corrupted or forged drain
    // fails closed here, before any import.
    if (util::fnv1a(util::kFnvOffset, raw.first(body)) != claimed) {
      return std::nullopt;
    }
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
  return snap;
}

}  // namespace mnm::kv

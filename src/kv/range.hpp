// Range migration codec — the payloads behind the reconfiguration admin
// operations (Op::kSeal / kInstall / kPurge) and the control-channel drain.
//
//  * RangeSpec names a set of hash buckets at a config epoch, against a
//    stated table size: the seal and purge payloads, and the range-snapshot
//    request a Migrator broadcasts on a source group's catch-up control
//    channel.
//  * Records are a KV state machine's record tables — store pairs,
//    sessions, transaction locks, prepare marks — with their one codec.
//    StateMachine::snapshot() and RangeSnapshot both use it, so canonical
//    order and field validity are checked in one place.
//  * RangeSnapshot is the drained state of a sealed range: the Records of
//    the moving buckets, with an embedded FNV-1a digest the decoder
//    recomputes — a corrupted or forged drain fails closed before any
//    import.
//
// Both decoders are strict and total, mirroring the catch-up decoder
// hygiene: these bytes travel through consensus slots (a Byzantine proposer
// can win a slot with arbitrary bytes) and over the control wire from
// unverified peers, so malformed input yields nullopt deterministically,
// counts are capped, pre-sizing is byte-bounded, and trailing garbage is
// rejected. Nothing here throws out of apply.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common.hpp"
#include "src/kv/command.hpp"
#include "src/kv/shard.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

/// A set of hash buckets under a table of `table_buckets` buckets, at
/// config epoch `epoch`. Bucket lists are strictly ascending (canonical
/// form; decoders reject anything else).
struct RangeSpec {
  std::uint64_t epoch = 0;
  std::uint32_t table_buckets = 1;  // bucket-array size the ids index into
  std::vector<std::uint32_t> buckets;

  bool operator==(const RangeSpec&) const = default;
};

Bytes encode_range_spec(const RangeSpec& spec);
/// Strict decode: nullopt on truncation, trailing bytes, zero/oversized
/// table, an empty / unsorted / out-of-range bucket list. Never throws.
std::optional<RangeSpec> decode_range_spec(util::ByteView raw);

/// One transaction lock: the pending write a TxnPrepare buffered on its
/// key, applied on commit, discarded on abort. The guard fields record the
/// prepare's full payload so a re-prepare by the same (txn, owner) is
/// idempotent only when byte-identical — an equivocating coordinator
/// re-preparing with different bytes is refused, never silently merged.
/// Locks migrate with their bucket, which is what lets a 2PC transaction
/// straddle a live reshard: the commit/abort record re-routes to the new
/// owner and finds the lock there.
struct Lock {
  std::uint64_t txn = 0;
  ClientId owner = 0;      // coordinator session that prepared it
  std::uint8_t write = 1;  // txn::WriteKind of the buffered mutation
  Bytes value;             // pending kPut payload (empty for kDel)
  bool has_expected = false;  // optimistic guard carried by the prepare
  Bytes expected;             // guard value (empty when !has_expected)

  bool operator==(const Lock&) const = default;
};

/// One client session record: last applied seq and its cached reply.
struct SessionRecord {
  ClientId client = 0;
  std::uint64_t last_seq = 0;
  Reply reply;

  bool operator==(const SessionRecord&) const = default;
};

/// One session prepare mark: the seq and outcome of the client's newest
/// TxnPrepare. It extends the client's session record, so a mark always
/// has one; INSTALL merges marks by max seq, like the sessions.
struct PrepareMark {
  ClientId client = 0;
  std::uint64_t seq = 0;    // never 0 — a zero mark means "none"
  std::uint8_t status = 1;  // kv::Status of the prepare outcome
  bool operator==(const PrepareMark&) const = default;
};

/// The record tables of a KV state machine, or a drained slice of them:
/// pairs and locks in key order, sessions and prepare marks in client
/// order — canonical, so equal tables encode to identical bytes. The one
/// codec for these tables: StateMachine snapshots and RangeSnapshots both
/// carry them as four count-prefixed sections, always present, in the
/// order below.
struct Records {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  std::vector<SessionRecord> sessions;
  std::vector<std::pair<Bytes, Lock>> locks;
  std::vector<PrepareMark> prepare_marks;

  bool operator==(const Records&) const = default;
};

void encode_records(util::Writer& w, const Records& recs);
/// Strict decode of the four sections. False on a non-canonical form:
/// keys or clients out of order or repeated, a session caching a
/// non-persistable status, a lock with an unknown write kind or guard
/// flag or guard bytes without the flag, a prepare mark with seq 0, a
/// status no prepare produces, or no session to extend. Truncation throws
/// util::SerdeError, as the Reader does. Counts are attacker-controlled:
/// pre-sizing is bounded by the bytes present.
bool decode_records(util::Reader& r, Records& out);

/// The drained state of a sealed range: the moving buckets' pairs and
/// locks plus the source machine's full session table and prepare marks
/// (merged by max seq at the destination, so a retry or a coordinator
/// replay straddling the epoch flip still finds its outcome), followed by
/// an FNV-1a digest of the encoded bytes.
struct RangeSnapshot : Records {
  RangeSpec spec;

  bool operator==(const RangeSnapshot&) const = default;
};

Bytes encode_range_snapshot(const RangeSnapshot& snap);
/// Strict decode + digest check: nullopt on malformed or non-canonical
/// bytes (see decode_records) or a digest mismatch — state never partially
/// imports.
std::optional<RangeSnapshot> decode_range_snapshot(util::ByteView raw);

}  // namespace mnm::kv

// kv::StateMachine — the deterministic KV state machine behind every shard
// replica, with exactly-once client sessions and (optionally) partitioned
// bucket ownership for live reconfiguration.
//
// Applied from smr::Log batches, strictly in slot order, identically on
// every correct replica of a shard. On top of the plain GET/PUT/DEL/CAS
// semantics it keeps one session record per client: (last applied seq,
// cached reply). A command whose seq is ≤ the session's last applied seq is
// a duplicate — it can appear in the log twice when a leader hand-off
// re-proposes an open slot the old leader also won, or when a client retry
// races the original — and its mutation is suppressed; the *cached* reply is
// re-delivered so the retrying client observes the original outcome. That is
// the client-visible exactly-once contract.
//
// Partitioned mode (configure_partition, reconfiguration runs only): the
// machine knows which hash buckets its group owns. The reconfig admin
// operations — replicated through the group's own log like any command, so
// every replica transitions at the same slot — move ownership:
//
//   SEAL    marks the moving buckets not-owned; later client ops on them
//           bounce with Status::kWrongEpoch, *without* touching the session
//           (the retried seq must still apply exactly once at the new
//           owner). Sealed pairs stay in the store for the drain.
//   INSTALL imports a digest-checked RangeSnapshot: pairs land in the
//           store, drained sessions merge by max seq (a retry straddling
//           the epoch flip finds its cached reply here), buckets open.
//   PURGE   drops the sealed-away pairs at the source once the destination
//           has installed.
//
// Admin operations ride the Migrator's own session (dedup-covered retries)
// but count in admin_applied(), never ops_applied() — the harness invariant
// Σ per-shard ops_applied == completed client ops holds across epochs.
//
// Transactions (src/txn/): the machine keeps a lock table — key → (txn id,
// owner session, buffered write + its guard). A TxnPrepare locks its key
// and buffers the write (refused with kTxnConflict when the key is locked
// by another transaction or the prepare's optimistic guard misses —
// deterministic and no-wait, so replicas cannot diverge on lock wait
// order); TxnCommit applies the buffered write and releases; TxnAbort
// releases. Plain writes on a locked key also get kTxnConflict; GETs read
// committed state. Txn records are ordinary keyed client ops everywhere
// else: they count in ops_applied(), advance their session (so a
// coordinator's recovery replay deduplicates), bounce on sealed buckets,
// and the lock table travels in snapshot(), export_range() and INSTALL — a
// transaction straddling a live reshard or a crash-and-rejoin commits or
// aborts exactly once.
//
// On top of the (last seq, cached reply) record, each session keeps a
// *prepare mark*: the seq and outcome of the newest TxnPrepare it applied.
// Decision records advance last_seq but never touch the mark, so when a
// recovering coordinator replays a prepare whose seq fell behind last_seq
// (an abort for an earlier key landed on the same shard before the crash),
// the duplicate path still re-delivers the prepare's true accept/refuse
// outcome instead of an ambiguous kStaleDup — the replayed decision is
// guaranteed to equal the crashed attempt's (see txn::Coordinator). The
// mark is replicated state: hashed, snapshotted, drained and merged (by max
// seq) exactly like the session record it extends.
//
// The reply sink is how the co-located router learns outcomes: every replica
// applies every command, each calls the sink, and the router keeps the first
// delivery per (client, seq). Everything here is deterministic — iteration
// is over ordered maps, and store_hash() folds store, sessions, partition
// state and transaction state into one fingerprint the determinism suite
// and the harness agreement check pin.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "src/common.hpp"
#include "src/crypto/signature.hpp"
#include "src/kv/command.hpp"
#include "src/kv/range.hpp"
#include "src/kv/shard.hpp"
#include "src/smr/log.hpp"

namespace mnm::kv {

class StateMachine : public smr::StateMachine {
 public:
  /// Called once per applied command — fresh applies with the new reply,
  /// duplicate applies with the session's cached reply (seq == last applied
  /// only; older duplicates are counted and dropped, no client waits on
  /// them in the closed-loop model), bounced applies with a kWrongEpoch
  /// reply that is never cached.
  using ReplySink =
      std::function<void(ClientId, std::uint64_t seq, const Reply&)>;

  void set_reply_sink(ReplySink sink) { sink_ = std::move(sink); }

  /// Enable signed-command verification: every applied command must carry a
  /// signature by its claimed client's identity (client_signer_id) over the
  /// bytes bound to *this* machine's shard group — checked *before* the
  /// session lookup, so a forgery never touches (or creates) a session.
  /// `group` is the Router's backend index for this shard; binding it means
  /// a command validly signed for another shard's log verifies as forged
  /// here (cross-log replay protection). Forged commands are deterministic
  /// no-ops counted in forged(), exactly like malformed ones. Without a
  /// keystore (the default) the machine accepts unsigned wires and verifies
  /// nothing. The keystore and group are wiring, not state — not
  /// snapshotted, surviving restore().
  void set_keystore(const crypto::KeyStore* ks, std::uint32_t group = 0) {
    keystore_ = ks;
    signing_group_ = group;
  }
  bool signing_enabled() const { return keystore_ != nullptr; }

  /// Allow `signer` to issue admin (SEAL/INSTALL/PURGE) operations. Admin
  /// commands signed by any other identity — including a perfectly valid
  /// *client* signature — are forged: reconfiguration authority is the
  /// migrator's alone. No-op unless signing is enabled.
  void allow_admin_signer(crypto::ProcessId signer) {
    admin_signers_.insert(signer);
  }

  /// Enter partitioned mode as group `group` of `initial` (epoch 0 table):
  /// the machine starts owning exactly the buckets the table assigns it and
  /// honors the reconfig admin operations. Without this call the machine
  /// owns every key and admin operations are rejected — the static-sharding
  /// behavior, byte-for-byte.
  void configure_partition(std::uint32_t group, const ShardTable& initial);

  void apply(Slot slot, util::ByteView command) override;

  /// Deterministic full-state codec for log compaction and peer catch-up,
  /// in one layout: every counter; the partition section (a presence byte,
  /// then group, epoch and bucket ownership when partitioned); the four
  /// Records sections — store pairs, sessions, locks, prepare marks, the
  /// codec RangeSnapshot shares (src/kv/range.hpp); and a trailing digest.
  /// Equal states ⇒ identical bytes, so snapshots themselves fingerprint.
  Bytes snapshot() const override;
  /// Total inverse: parses the bytes once into a scratch machine, checks
  /// the digest with the same fold snapshot() wrote, and only then adopts
  /// the replicated state. Wiring (reply sink, keystore, signing group,
  /// admin signers) is not state and stays, so a snapshot restores the same
  /// whether either machine is armed. Malformed or non-canonical bytes or a
  /// digest mismatch return false with *this untouched. Never throws —
  /// snapshots arrive from unverified peers.
  bool restore(util::ByteView raw) override;

  /// Drain service for the Migrator (smr::Log serves this over the catch-up
  /// control channel): `request` is an encoded RangeSpec; the reply is an
  /// encoded RangeSnapshot of the sealed range, or empty when this machine
  /// cannot serve it yet (not partitioned, seal not applied, or the listed
  /// buckets still owned).
  Bytes export_range(util::ByteView request) const override;

  const std::map<Bytes, Bytes>& store() const { return store_; }

  /// FNV-1a over the store and the session table (last seq + cached reply
  /// per client), plus the partition state in partitioned mode. Equal
  /// hashes across a shard's correct replicas ⇔ equal stores and equal
  /// client-visible histories.
  std::uint64_t store_hash() const;

  /// Effective (non-duplicate, well-formed) client operations applied.
  std::uint64_t ops_applied() const { return ops_applied_; }
  /// Duplicate (client, seq) applies whose mutation was suppressed.
  std::uint64_t duplicates_suppressed() const { return duplicates_; }
  /// Commands that failed decode_command (a Byzantine win can put arbitrary
  /// bytes in a slot; they no-op deterministically).
  std::uint64_t malformed() const { return malformed_; }
  /// Well-formed commands rejected by signature verification (missing
  /// signature, bad MAC, signer ≠ claimed client, unauthorized admin
  /// signer). Only ever non-zero with signing enabled.
  std::uint64_t forged() const { return forged_; }

  bool partitioned() const { return partitioned_; }
  std::uint32_t group() const { return group_; }
  /// Highest config epoch of any accepted admin operation.
  std::uint64_t config_epoch() const { return cfg_epoch_; }
  /// Buckets currently owned (and the table size they index into).
  std::size_t owned_buckets() const;
  std::size_t table_buckets() const { return owned_.size(); }
  bool owns_bucket(std::size_t b) const {
    return b < owned_.size() && owned_[b] != 0;
  }

  /// Admin (SEAL/INSTALL/PURGE) operations applied — excluded from
  /// ops_applied so the exactly-once rollup sees client ops only.
  std::uint64_t admin_applied() const { return admin_applied_; }
  /// Client ops bounced with kWrongEpoch (sealed or not-yet-open bucket).
  std::uint64_t bounces() const { return bounces_; }
  /// Admin operations rejected (malformed payload, stale epoch, bucket
  /// geometry mismatch) — deterministic no-ops, counted.
  std::uint64_t admin_rejected() const { return admin_rejected_; }
  std::uint64_t keys_imported() const { return keys_imported_; }
  std::uint64_t keys_purged() const { return keys_purged_; }

  /// Last applied request seq for a client (0 = no session).
  std::uint64_t last_seq(ClientId c) const;

  /// Held transaction locks by key (see kv::Lock).
  const std::map<Bytes, Lock>& locks() const { return locks_; }
  /// Locks currently held — zero once every transaction has decided, which
  /// is the harness's residual-lock atomicity check.
  std::uint64_t locks_held() const { return locks_.size(); }
  std::uint64_t txn_prepared() const { return txn_prepared_; }
  std::uint64_t txn_committed() const { return txn_committed_; }
  std::uint64_t txn_aborted() const { return txn_aborted_; }
  /// Prepares refused (lock held / guard miss) + plain writes that hit a
  /// locked key — every kTxnConflict this machine ever returned.
  std::uint64_t txn_conflicts() const { return txn_conflicts_; }
  /// Decisions that found no matching lock (presumed abort / double abort).
  std::uint64_t txn_orphans() const { return txn_orphans_; }
  /// Txn records whose payload failed to decode — deterministic kTxnAborted.
  std::uint64_t txn_rejected() const { return txn_rejected_; }

 private:
  struct Session {
    std::uint64_t last_seq = 0;
    Reply last_reply;
    // Prepare mark (see class comment): seq + outcome of the newest
    // TxnPrepare this session applied. 0 = no prepare ever applied.
    // Decisions never overwrite it, so a replayed prepare's outcome
    // survives later same-session records on this shard.
    std::uint64_t last_prepare_seq = 0;
    Status last_prepare_status = Status::kOk;
  };

  Reply apply_op(const Command& c);
  Reply apply_admin(const Command& c);
  Reply apply_txn(const Command& c);
  std::uint64_t txn_fold(std::uint64_t h) const;
  /// The record tables in canonical order. `take` (indexed by bucket)
  /// filters pairs and locks to the marked buckets; empty takes everything.
  /// Sessions and prepare marks always travel whole.
  Records export_records(const std::vector<std::uint8_t>& take) const;
  /// store_hash() folded with every counter: the snapshot's trailing
  /// digest, written by snapshot() and checked by restore().
  std::uint64_t snapshot_digest() const;
  /// Pointers to every counter, in snapshot order (const or mutable by
  /// Self): the one list snapshot(), restore() and snapshot_digest() walk.
  template <class Self>
  static auto counters(Self& m);
  /// Signature check for a decoded command (signing enabled only): true iff
  /// the wire carried a signature, the claimed client id maps to a signer
  /// without wrapping, the signer is the claimed client's identity (and an
  /// allowed admin signer for admin ops), and the MAC verifies over the
  /// canonical bytes domain-tagged and bound to this machine's shard group.
  bool verify_signed(const SignedCommand& sc) const;
  /// Grow owned_ to `table_buckets` by routing-preserving doubling; false
  /// when the target is not reachable (reject the admin op).
  bool resize_owned(std::uint32_t table_buckets);
  std::uint64_t partition_fold(std::uint64_t h) const;

  std::map<Bytes, Bytes> store_;
  std::map<ClientId, Session> sessions_;
  std::map<Bytes, Lock> locks_;
  std::uint64_t txn_prepared_ = 0;
  std::uint64_t txn_committed_ = 0;
  std::uint64_t txn_aborted_ = 0;
  std::uint64_t txn_conflicts_ = 0;
  std::uint64_t txn_orphans_ = 0;
  std::uint64_t txn_rejected_ = 0;
  ReplySink sink_;
  const crypto::KeyStore* keystore_ = nullptr;   // wiring, not state
  std::uint32_t signing_group_ = 0;              // wiring, not state
  std::set<crypto::ProcessId> admin_signers_;    // wiring, not state
  std::uint64_t ops_applied_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t forged_ = 0;

  // Partition state (reconfiguration runs only; see class comment).
  bool partitioned_ = false;
  std::uint32_t group_ = 0;
  std::uint64_t cfg_epoch_ = 0;
  std::vector<std::uint8_t> owned_;  // owned_[bucket] != 0 ⇔ we serve it
  std::uint64_t admin_applied_ = 0;
  std::uint64_t bounces_ = 0;
  std::uint64_t admin_rejected_ = 0;
  std::uint64_t keys_imported_ = 0;
  std::uint64_t keys_purged_ = 0;
};

}  // namespace mnm::kv

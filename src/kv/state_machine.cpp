#include "src/kv/state_machine.hpp"

#include <array>
#include <utility>

#include "src/txn/record.hpp"
#include "src/util/fnv.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

using util::fnv1a;
using util::fnv1a_u64;

void StateMachine::configure_partition(std::uint32_t group,
                                       const ShardTable& initial) {
  partitioned_ = true;
  group_ = group;
  cfg_epoch_ = initial.epoch;
  owned_.assign(initial.buckets.size(), 0);
  for (std::size_t i = 0; i < initial.buckets.size(); ++i) {
    if (initial.buckets[i] == group) owned_[i] = 1;
  }
}

std::size_t StateMachine::owned_buckets() const {
  std::size_t n = 0;
  for (const std::uint8_t o : owned_) n += o;
  return n;
}

bool StateMachine::resize_owned(std::uint32_t table_buckets) {
  if (owned_.empty()) return false;
  if (table_buckets < owned_.size()) return false;
  std::size_t b = owned_.size();
  while (b < table_buckets) b *= 2;  // routing-preserving doubling only
  if (b != table_buckets) return false;
  while (owned_.size() < table_buckets) {
    const std::size_t half = owned_.size();
    owned_.resize(2 * half);
    for (std::size_t i = 0; i < half; ++i) owned_[half + i] = owned_[i];
  }
  return true;
}

bool StateMachine::verify_signed(const SignedCommand& sc) const {
  if (!sc.has_sig) return false;
  // The claimed client id is attacker-controlled 64-bit input: past the
  // representable range the base+client mapping would wrap the 32-bit
  // signer space, letting a Byzantine replica claim a client whose mapped
  // identity is its *own* signer. Reject before mapping.
  if (!client_signer_representable(sc.cmd.client)) return false;
  // The signer must be the claimed client's own identity — a valid
  // signature under identity A on a command claiming client B is a hijack
  // attempt, not a misconfiguration.
  const crypto::ProcessId expected = client_signer_id(sc.cmd.client);
  if (sc.sig.signer != expected) return false;
  // Admin authority is allow-listed on top: a perfectly valid client
  // signature on a SEAL/INSTALL/PURGE is still forged unless that identity
  // was granted reconfiguration authority.
  if (is_admin(sc.cmd.op) &&
      admin_signers_.find(expected) == admin_signers_.end()) {
    return false;
  }
  // The signed bytes bind the shard group: a command signed for another
  // group's log — replayed here by a Byzantine member of both groups —
  // fails verification instead of advancing the victim's session.
  return keystore_->valid(command_signing_bytes(signing_group_, sc.body),
                          sc.sig);
}

void StateMachine::apply(Slot, util::ByteView command) {
  const std::optional<SignedCommand> sc = decode_signed_command(command);
  if (!sc.has_value()) {
    ++malformed_;  // no-op, deterministically, on every correct replica
    return;
  }
  if (keystore_ != nullptr && !verify_signed(*sc)) {
    // Forged: well-formed bytes that fail authentication. Rejected *before*
    // the session lookup — a forgery must never create a session nor
    // advance last_seq, or the victim's own retries would deduplicate
    // against the attacker's write. Deterministic no-op, mirroring the
    // malformed rule: never a throw out of apply.
    ++forged_;
    return;
  }
  const Command* c = &sc->cmd;
  Session& session = sessions_[c->client];
  if (c->seq <= session.last_seq) {
    ++duplicates_;
    // Only the newest request's reply is cached. Re-deliver it for a
    // duplicate of exactly that seq — in the closed-loop session model that
    // is the only seq a client can still be waiting on. One more seq stays
    // answerable: the session's newest TxnPrepare keeps its outcome in the
    // prepare mark, which decision records never overwrite — a recovering
    // coordinator replaying its record stream re-reads that prepare's true
    // accept/refuse outcome even after later abort records advanced
    // last_seq on this shard (re-deriving it from kStaleDup alone would
    // mistake a refused prepare for an accepted one and partially commit).
    // Any *other* stale duplicate (seq < last_seq) must not observe someone
    // else's answer, so it gets an explicit kStaleDup marker instead.
    if (sink_) {
      if (c->seq == session.last_seq) {
        sink_(c->client, c->seq, session.last_reply);
      } else if (session.last_prepare_seq != 0 &&
                 c->seq == session.last_prepare_seq) {
        Reply mark;
        mark.status = session.last_prepare_status;
        sink_(c->client, c->seq, mark);
      } else {
        Reply stale;
        stale.status = Status::kStaleDup;
        sink_(c->client, c->seq, stale);
      }
    }
    return;
  }
  if (is_admin(c->op)) {
    const Reply reply = apply_admin(*c);
    session.last_seq = c->seq;
    session.last_reply = reply;
    ++admin_applied_;
    if (sink_) sink_(c->client, c->seq, reply);
    return;
  }
  if (partitioned_ && !owns_bucket(key_hash(c->key) % owned_.size())) {
    // Sealed or not-yet-installed bucket: bounce. The session is NOT
    // touched — the client re-routes and the same seq must apply fresh,
    // exactly once, at the owner.
    ++bounces_;
    if (sink_) {
      Reply bounce;
      bounce.status = Status::kWrongEpoch;
      sink_(c->client, c->seq, bounce);
    }
    return;
  }
  // Txn records are client ops: they count in ops_applied_ and advance the
  // session exactly like GET/PUT — that session advance is what makes a
  // coordinator's recovery replay re-deliver the original outcomes.
  const Reply reply = is_txn(c->op) ? apply_txn(*c) : apply_op(*c);
  session.last_seq = c->seq;
  session.last_reply = reply;
  if (c->op == Op::kTxnPrepare) {
    // Record the prepare mark (replicated state; see class comment). Every
    // prepare outcome is a committed, persistable status — kOk,
    // kTxnConflict or kTxnAborted — so caching it here is as safe as the
    // last_reply cache it extends.
    session.last_prepare_seq = c->seq;
    session.last_prepare_status = reply.status;
  }
  ++ops_applied_;
  if (sink_) sink_(c->client, c->seq, reply);
}

Reply StateMachine::apply_op(const Command& c) {
  Reply r;
  // A plain write on a locked key is a conflict, committed immediately — the
  // same deterministic no-wait rule as a refused prepare. Reads are not
  // blocked: GET returns the committed value (buffered txn writes are
  // invisible until commit).
  if (!locks_.empty() && c.op != Op::kGet &&
      locks_.find(c.key) != locks_.end()) {
    ++txn_conflicts_;
    r.status = Status::kTxnConflict;
    return r;
  }
  switch (c.op) {
    case Op::kGet: {
      const auto it = store_.find(c.key);
      if (it == store_.end()) {
        r.status = Status::kNotFound;
      } else {
        r.value = it->second;
      }
      break;
    }
    case Op::kPut:
      store_[c.key] = c.value;
      break;
    case Op::kDel:
      if (store_.erase(c.key) == 0) r.status = Status::kNotFound;
      break;
    case Op::kCas: {
      const auto it = store_.find(c.key);
      const Bytes& current = it == store_.end() ? util::bottom() : it->second;
      if (current == c.expected) {
        store_[c.key] = c.value;
      } else {
        r.status = Status::kCasMismatch;
        r.value = current;
      }
      break;
    }
    default:
      break;  // admin/txn ops never reach here (apply() dispatches them)
  }
  return r;
}

Reply StateMachine::apply_txn(const Command& c) {
  Reply r;
  switch (c.op) {
    case Op::kTxnPrepare: {
      const std::optional<txn::PrepareRecord> rec = txn::decode_prepare(c.value);
      if (!rec.has_value()) {
        // Undecodable payload: the transaction can never commit here, so the
        // deterministic answer is an abort outcome, cached like any reply.
        ++txn_rejected_;
        r.status = Status::kTxnAborted;
        return r;
      }
      const auto it = locks_.find(c.key);
      if (it != locks_.end()) {
        if (it->second.txn == rec->txn && it->second.owner == c.client) {
          const Lock& held = it->second;
          if (static_cast<std::uint8_t>(rec->write) != held.write ||
              rec->value != held.value ||
              rec->has_expected != held.has_expected ||
              (rec->has_expected && rec->expected != held.expected)) {
            // Same (txn, owner) but a different payload: a buggy or
            // equivocating coordinator re-preparing with new bytes. Only a
            // byte-identical re-prepare (a recovery replay re-driving the
            // original record) is idempotent — refuse anything else so the
            // held buffered write is never silently swapped, and the sender
            // never gets success for bytes that will not commit.
            ++txn_conflicts_;
            r.status = Status::kTxnConflict;
            return r;
          }
          // Our own lock again, byte-identical — a recovery replay
          // re-driving the prepare under a fresh seq (the cached-seq path
          // never reaches here). Idempotent success keeps the replayed
          // decision identical.
          return r;
        }
        // Locked by another live transaction: refuse now, never wait. Lock
        // acquisition order is log order, identical on every replica.
        ++txn_conflicts_;
        r.status = Status::kTxnConflict;
        return r;
      }
      if (rec->has_expected) {
        // Optimistic guard: the coordinator read this key before preparing;
        // if someone committed in between, the transfer would be a lost
        // update — refuse like a CAS miss, current value riding back.
        const auto sit = store_.find(c.key);
        const Bytes& current =
            sit == store_.end() ? util::bottom() : sit->second;
        if (current != rec->expected) {
          ++txn_conflicts_;
          r.status = Status::kTxnConflict;
          r.value = current;
          return r;
        }
      }
      Lock& l = locks_[c.key];
      l.txn = rec->txn;
      l.owner = c.client;
      l.write = static_cast<std::uint8_t>(rec->write);
      l.value = rec->value;
      l.has_expected = rec->has_expected;
      l.expected = rec->has_expected ? rec->expected : Bytes{};
      ++txn_prepared_;
      return r;
    }
    case Op::kTxnCommit: {
      const std::optional<txn::DecisionRecord> rec =
          txn::decode_decision(c.value);
      if (!rec.has_value()) {
        ++txn_rejected_;
        r.status = Status::kTxnAborted;
        return r;
      }
      const auto it = locks_.find(c.key);
      if (it == locks_.end() || it->second.txn != rec->txn ||
          it->second.owner != c.client) {
        // Presumed abort: no matching lock means the prepare never landed
        // here (or an abort already released it), so the commit cannot
        // apply. A correct coordinator only sends commit after every
        // prepare returned kOk, so honest runs never take this path.
        ++txn_orphans_;
        r.status = Status::kTxnAborted;
        return r;
      }
      if (it->second.write == static_cast<std::uint8_t>(txn::WriteKind::kDel)) {
        store_.erase(c.key);
      } else {
        store_[c.key] = it->second.value;
      }
      locks_.erase(it);
      ++txn_committed_;
      return r;
    }
    case Op::kTxnAbort: {
      const std::optional<txn::DecisionRecord> rec =
          txn::decode_decision(c.value);
      if (!rec.has_value()) {
        ++txn_rejected_;
        r.status = Status::kTxnAborted;
        return r;
      }
      const auto it = locks_.find(c.key);
      if (it != locks_.end() && it->second.txn == rec->txn &&
          it->second.owner == c.client) {
        locks_.erase(it);
        ++txn_aborted_;
      } else {
        // Abort is idempotent: releasing a lock that is not there (never
        // taken, or already released) still succeeds — presumed abort
        // means absence of a lock IS the aborted state.
        ++txn_orphans_;
      }
      return r;
    }
    default:
      return r;  // unreachable: apply() dispatches is_txn ops only
  }
}

Reply StateMachine::apply_admin(const Command& c) {
  Reply rejected;
  rejected.status = Status::kWrongEpoch;
  if (!partitioned_) {
    ++admin_rejected_;
    return rejected;
  }
  switch (c.op) {
    case Op::kSeal: {
      const std::optional<RangeSpec> spec = decode_range_spec(c.value);
      if (!spec.has_value() || spec->epoch < cfg_epoch_ ||
          !resize_owned(spec->table_buckets)) {
        ++admin_rejected_;
        return rejected;
      }
      cfg_epoch_ = spec->epoch;
      for (const std::uint32_t b : spec->buckets) owned_[b] = 0;
      break;
    }
    case Op::kInstall: {
      const std::optional<RangeSnapshot> snap = decode_range_snapshot(c.value);
      if (!snap.has_value() || snap->spec.epoch < cfg_epoch_ ||
          !resize_owned(snap->spec.table_buckets)) {
        ++admin_rejected_;
        return rejected;
      }
      cfg_epoch_ = snap->spec.epoch;
      for (const auto& [k, v] : snap->pairs) store_[k] = v;
      keys_imported_ += snap->pairs.size();
      // Merge the drained sessions by max seq: the machine holding the
      // newest seq for a client also holds the only reply that client can
      // still be waiting on. This is what lets a retry that straddles the
      // epoch flip (applied at the source pre-seal, re-sent here) hit the
      // duplicate path instead of applying twice.
      for (const SessionRecord& rec : snap->sessions) {
        Session& s = sessions_[rec.client];
        if (rec.last_seq > s.last_seq) {
          s.last_seq = rec.last_seq;
          s.last_reply = rec.reply;
        }
      }
      // Locks migrate with their buckets: a transaction prepared before the
      // split finds its lock here when the commit/abort record re-routes,
      // so it still decides exactly once.
      for (const auto& [k, l] : snap->locks) locks_[k] = l;
      // Prepare marks merge by max seq, the same monotone rule as the
      // session records they extend: the machine holding a client's newest
      // prepare also holds the only prepare outcome a recovering
      // coordinator can still replay against.
      for (const PrepareMark& rec : snap->prepare_marks) {
        Session& s = sessions_[rec.client];
        if (rec.seq > s.last_prepare_seq) {
          s.last_prepare_seq = rec.seq;
          s.last_prepare_status = static_cast<Status>(rec.status);
        }
      }
      for (const std::uint32_t b : snap->spec.buckets) owned_[b] = 1;
      break;
    }
    case Op::kPurge: {
      const std::optional<RangeSpec> spec = decode_range_spec(c.value);
      if (!spec.has_value() || spec->epoch < cfg_epoch_ ||
          !resize_owned(spec->table_buckets)) {
        ++admin_rejected_;
        return rejected;
      }
      cfg_epoch_ = spec->epoch;
      std::vector<std::uint8_t> drop(owned_.size(), 0);
      for (const std::uint32_t b : spec->buckets) drop[b] = 1;
      for (auto it = store_.begin(); it != store_.end();) {
        if (drop[key_hash(it->first) % owned_.size()] != 0) {
          it = store_.erase(it);
          ++keys_purged_;
        } else {
          ++it;
        }
      }
      // Sealed-away locks were drained with the range (export_range) and now
      // live at the destination — drop the local copies with their pairs.
      for (auto it = locks_.begin(); it != locks_.end();) {
        if (drop[key_hash(it->first) % owned_.size()] != 0) {
          it = locks_.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
    default:
      ++admin_rejected_;
      return rejected;
  }
  return Reply{};
}

Bytes StateMachine::export_range(util::ByteView request) const {
  if (!partitioned_) return {};
  const std::optional<RangeSpec> spec = decode_range_spec(request);
  if (!spec.has_value()) return {};
  // Serve only once the seal for this epoch has applied here: the epoch has
  // been reached, the geometry matches, and every listed bucket is sealed
  // away — otherwise the drain would miss in-flight pre-seal ops.
  if (cfg_epoch_ < spec->epoch) return {};
  if (spec->table_buckets != owned_.size()) return {};
  for (const std::uint32_t b : spec->buckets) {
    if (owned_[b] != 0) return {};
  }
  std::vector<std::uint8_t> take(owned_.size(), 0);
  for (const std::uint32_t b : spec->buckets) take[b] = 1;
  return encode_range_snapshot({export_records(take), *spec});
}

Records StateMachine::export_records(
    const std::vector<std::uint8_t>& take) const {
  const auto taken = [&](const Bytes& key) {
    return take.empty() || take[key_hash(key) % take.size()] != 0;
  };
  Records out;
  for (const auto& [k, v] : store_) {
    if (taken(k)) out.pairs.emplace_back(k, v);
  }
  // Sessions and their prepare marks always travel whole: a retry or a
  // coordinator replay straddling an epoch flip must find its outcome at
  // the new owner whichever key it touched.
  for (const auto& [client, s] : sessions_) {
    out.sessions.push_back({client, s.last_seq, s.last_reply});
    if (s.last_prepare_seq != 0) {
      out.prepare_marks.push_back(
          {client, s.last_prepare_seq,
           static_cast<std::uint8_t>(s.last_prepare_status)});
    }
  }
  for (const auto& [k, l] : locks_) {
    if (taken(k)) out.locks.emplace_back(k, l);
  }
  return out;
}

std::uint64_t StateMachine::txn_fold(std::uint64_t h) const {
  h = fnv1a_u64(h, locks_.size());
  for (const auto& [k, l] : locks_) {
    h = fnv1a(h, k);
    h = fnv1a_u64(h, l.txn);
    h = fnv1a_u64(h, l.owner);
    h = fnv1a_u64(h, l.write);
    h = fnv1a(h, l.value);
    h = fnv1a_u64(h, l.has_expected ? 1 : 0);
    h = fnv1a(h, l.expected);
  }
  h = fnv1a_u64(h, txn_prepared_);
  h = fnv1a_u64(h, txn_committed_);
  h = fnv1a_u64(h, txn_aborted_);
  h = fnv1a_u64(h, txn_conflicts_);
  h = fnv1a_u64(h, txn_orphans_);
  // Prepare marks are replicated state (the duplicate path answers from
  // them), so divergent marks must diverge the agreement hash.
  std::uint64_t nmarks = 0;
  for (const auto& [client, s] : sessions_) {
    if (s.last_prepare_seq != 0) ++nmarks;
  }
  h = fnv1a_u64(h, nmarks);
  for (const auto& [client, s] : sessions_) {
    if (s.last_prepare_seq == 0) continue;
    h = fnv1a_u64(h, client);
    h = fnv1a_u64(h, s.last_prepare_seq);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(s.last_prepare_status));
  }
  return h;
}

std::uint64_t StateMachine::partition_fold(std::uint64_t h) const {
  h = fnv1a_u64(h, group_);
  h = fnv1a_u64(h, cfg_epoch_);
  h = fnv1a_u64(h, owned_.size());
  h = fnv1a(h, owned_);
  h = fnv1a_u64(h, admin_applied_);
  h = fnv1a_u64(h, bounces_);
  h = fnv1a_u64(h, keys_imported_);
  h = fnv1a_u64(h, keys_purged_);
  return h;
}

std::uint64_t StateMachine::store_hash() const {
  std::uint64_t h = util::kFnvOffset;
  for (const auto& [k, v] : store_) {
    h = fnv1a(h, k);
    h = fnv1a(h, v);
  }
  for (const auto& [client, s] : sessions_) {
    h = fnv1a_u64(h, client);
    h = fnv1a_u64(h, s.last_seq);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(s.last_reply.status));
    h = fnv1a(h, s.last_reply.value);
  }
  h = fnv1a_u64(h, ops_applied_);
  // Partition and transaction state are replicated state too, so the
  // agreement check covers ownership, the epoch, locks and prepare marks.
  return txn_fold(partition_fold(h));
}

template <class Self>
auto StateMachine::counters(Self& m) {
  return std::array{&m.ops_applied_,    &m.duplicates_,    &m.malformed_,
                    &m.forged_,         &m.admin_applied_, &m.bounces_,
                    &m.admin_rejected_, &m.keys_imported_, &m.keys_purged_,
                    &m.txn_prepared_,   &m.txn_committed_, &m.txn_aborted_,
                    &m.txn_conflicts_,  &m.txn_orphans_,   &m.txn_rejected_};
}

std::uint64_t StateMachine::snapshot_digest() const {
  // The agreement fold extended over every counter, including the ones
  // store_hash() leaves out, so the digest covers every byte restore()
  // adopts.
  std::uint64_t h = store_hash();
  for (const std::uint64_t* c : counters(*this)) h = fnv1a_u64(h, *c);
  return h;
}

Bytes StateMachine::snapshot() const {
  util::Writer w(256);
  for (const std::uint64_t* c : counters(*this)) w.u64(*c);
  // Partition section: a rejoiner restoring this snapshot lands in the
  // post-split world — table geometry, ownership and epoch included —
  // before it chases the log tip.
  w.u8(partitioned_ ? 1 : 0);
  if (partitioned_) w.u32(group_).u64(cfg_epoch_).bytes(owned_);
  encode_records(w, export_records({}));
  w.u64(snapshot_digest());
  return std::move(w).take();
}

bool StateMachine::restore(util::ByteView raw) {
  StateMachine d;
  Records recs;
  std::uint64_t claimed = 0;
  try {
    util::Reader r(raw);
    for (std::uint64_t* c : counters(d)) *c = r.u64();
    const std::uint8_t partitioned = r.u8();
    if (partitioned > 1) return false;
    d.partitioned_ = partitioned != 0;
    if (d.partitioned_) {
      d.group_ = r.u32();
      d.cfg_epoch_ = r.u64();
      d.owned_ = r.bytes();
      if (d.owned_.empty() || d.owned_.size() > kMaxTableBuckets) {
        return false;
      }
      for (const std::uint8_t o : d.owned_) {
        if (o > 1) return false;
      }
    }
    if (!decode_records(r, recs)) return false;
    claimed = r.u64();
    r.expect_end();
  } catch (const util::SerdeError&) {
    return false;
  }
  d.store_.insert(recs.pairs.begin(), recs.pairs.end());
  for (SessionRecord& s : recs.sessions) {
    Session& dst = d.sessions_[s.client];
    dst.last_seq = s.last_seq;
    dst.last_reply = std::move(s.reply);
  }
  for (const PrepareMark& m : recs.prepare_marks) {
    Session& dst = d.sessions_[m.client];  // exists: decode_records checked
    dst.last_prepare_seq = m.seq;
    dst.last_prepare_status = static_cast<Status>(m.status);
  }
  d.locks_.insert(recs.locks.begin(), recs.locks.end());
  if (d.snapshot_digest() != claimed) return false;
  // Wiring is not state: keep this machine's, adopt everything else.
  d.sink_ = std::move(sink_);
  d.keystore_ = keystore_;
  d.signing_group_ = signing_group_;
  d.admin_signers_ = std::move(admin_signers_);
  *this = std::move(d);
  return true;
}

std::uint64_t StateMachine::last_seq(ClientId c) const {
  const auto it = sessions_.find(c);
  return it == sessions_.end() ? 0 : it->second.last_seq;
}

}  // namespace mnm::kv

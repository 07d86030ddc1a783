// Cross-shard transactions (src/txn/): unit invariants for the state
// machine's lock table — the deterministic no-wait conflict rule, buffered
// writes, presumed abort, lock migration — and end-to-end atomicity in the
// harness: a transactional workload must conserve Σ account balances == 0
// and leave zero residual locks under each of {coordinator crash after
// PREPARE, participant leader crash, Byzantine forger on one shard, live
// 1→2 split mid-transaction}, while the global exactly-once sum
// (Σ per-shard ops_applied == completed client ops) keeps holding.

#include <gtest/gtest.h>

#include <numeric>

#include "src/harness/cluster.hpp"
#include "src/kv/command.hpp"
#include "src/kv/range.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/txn/record.hpp"
#include "src/util/serde.hpp"

namespace mnm {
namespace {

using kv::Command;
using kv::Op;
using kv::Reply;
using kv::Status;
using util::to_bytes;

// ---------------------------------------------------------------------------
// Builders.
// ---------------------------------------------------------------------------

Bytes cmd_bytes(Op op, kv::ClientId client, std::uint64_t seq, Bytes key,
                Bytes value = {}) {
  Command c;
  c.op = op;
  c.client = client;
  c.seq = seq;
  c.key = std::move(key);
  c.value = std::move(value);
  return encode_command(c);
}

Bytes prepare_bytes(txn::TxnId txn, Bytes value,
                    txn::WriteKind kind = txn::WriteKind::kPut,
                    bool has_expected = false, Bytes expected = {}) {
  txn::PrepareRecord rec;
  rec.txn = txn;
  rec.write = kind;
  rec.value = std::move(value);
  rec.has_expected = has_expected;
  rec.expected = std::move(expected);
  return txn::encode_prepare(rec);
}

Bytes decision_bytes(txn::TxnId txn) {
  txn::DecisionRecord rec;
  rec.txn = txn;
  return txn::encode_decision(rec);
}

/// First "key-<i>" whose hash lands in bucket `want` of a `buckets`-sized
/// table (the reconfig tests' idiom).
Bytes key_in_bucket(std::size_t buckets, std::size_t want) {
  for (std::size_t i = 0;; ++i) {
    const Bytes k = to_bytes("key-" + std::to_string(i));
    if (kv::key_hash(k) % buckets == want) return k;
  }
}

/// Machine + captured last reply, so every test reads outcomes the way a
/// router would — through the sink.
struct Machine {
  kv::StateMachine sm;
  Reply last;

  Machine() {
    sm.set_reply_sink(
        [this](kv::ClientId, std::uint64_t, const Reply& r) { last = r; });
  }

  Reply apply(Slot slot, const Bytes& wire) {
    sm.apply(slot, wire);
    return last;
  }
};

// ---------------------------------------------------------------------------
// Lock table semantics.
// ---------------------------------------------------------------------------

TEST(TxnStateMachine, PrepareLocksBuffersAndCommitApplies) {
  Machine m;
  const Bytes key = to_bytes("acct-0");

  Reply r = m.apply(0, cmd_bytes(Op::kTxnPrepare, 1, 1, key,
                                 prepare_bytes(7, to_bytes("42"))));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(m.sm.locks_held(), 1u);
  EXPECT_EQ(m.sm.txn_prepared(), 1u);

  // The buffered write is invisible: GET reads committed state only.
  r = m.apply(1, cmd_bytes(Op::kGet, 2, 1, key));
  EXPECT_EQ(r.status, Status::kNotFound);

  // A plain write on the locked key is refused — the same no-wait rule as
  // a conflicting prepare, and a *committed* outcome for that client.
  r = m.apply(2, cmd_bytes(Op::kPut, 2, 2, key, to_bytes("smash")));
  EXPECT_EQ(r.status, Status::kTxnConflict);
  EXPECT_EQ(m.sm.txn_conflicts(), 1u);

  // Commit applies the buffered write and releases.
  r = m.apply(3, cmd_bytes(Op::kTxnCommit, 1, 2, key, decision_bytes(7)));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(m.sm.locks_held(), 0u);
  EXPECT_EQ(m.sm.txn_committed(), 1u);
  r = m.apply(4, cmd_bytes(Op::kGet, 2, 3, key));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.value, to_bytes("42"));

  // Unlocked again: plain writes flow.
  r = m.apply(5, cmd_bytes(Op::kPut, 2, 4, key, to_bytes("free")));
  EXPECT_EQ(r.status, Status::kOk);
  // Txn records were ordinary counted client ops throughout.
  EXPECT_EQ(m.sm.ops_applied(), 6u);
}

TEST(TxnStateMachine, ConflictingPrepareRefusedOwnPrepareIdempotent) {
  Machine m;
  const Bytes key = to_bytes("acct-1");
  EXPECT_EQ(m.apply(0, cmd_bytes(Op::kTxnPrepare, 1, 1, key,
                                 prepare_bytes(7, to_bytes("a")))).status,
            Status::kOk);

  // Another transaction's prepare on the held lock: refused immediately,
  // never queued — log order is lock order, identical on every replica.
  EXPECT_EQ(m.apply(1, cmd_bytes(Op::kTxnPrepare, 2, 1, key,
                                 prepare_bytes(8, to_bytes("b")))).status,
            Status::kTxnConflict);
  EXPECT_EQ(m.sm.txn_conflicts(), 1u);

  // The owner re-preparing (a recovery replay under a fresh seq) succeeds
  // idempotently — no second lock, no second prepared count.
  EXPECT_EQ(m.apply(2, cmd_bytes(Op::kTxnPrepare, 1, 2, key,
                                 prepare_bytes(7, to_bytes("a")))).status,
            Status::kOk);
  EXPECT_EQ(m.sm.locks_held(), 1u);
  EXPECT_EQ(m.sm.txn_prepared(), 1u);

  EXPECT_EQ(m.apply(3, cmd_bytes(Op::kTxnAbort, 1, 3, key, decision_bytes(7)))
                .status,
            Status::kOk);
  EXPECT_EQ(m.sm.locks_held(), 0u);
  EXPECT_EQ(m.sm.txn_aborted(), 1u);
}

TEST(TxnStateMachine, ReprepareWithDifferentPayloadRefused) {
  // Idempotent re-prepare is byte-identical re-prepare only: the same
  // (txn, owner) sending a different value, write kind or guard must be
  // refused, with the originally buffered write untouched — success here
  // would let an equivocating coordinator swap bytes under a held lock.
  Machine m;
  const Bytes key = to_bytes("acct-7");
  EXPECT_EQ(m.apply(0, cmd_bytes(Op::kTxnPrepare, 1, 1, key,
                                 prepare_bytes(7, to_bytes("a")))).status,
            Status::kOk);

  // Different value.
  EXPECT_EQ(m.apply(1, cmd_bytes(Op::kTxnPrepare, 1, 2, key,
                                 prepare_bytes(7, to_bytes("b")))).status,
            Status::kTxnConflict);
  // Different write kind.
  EXPECT_EQ(m.apply(2, cmd_bytes(Op::kTxnPrepare, 1, 3, key,
                                 prepare_bytes(7, Bytes{},
                                               txn::WriteKind::kDel))).status,
            Status::kTxnConflict);
  // Same value but a guard appears.
  EXPECT_EQ(m.apply(3, cmd_bytes(Op::kTxnPrepare, 1, 4, key,
                                 prepare_bytes(7, to_bytes("a"),
                                               txn::WriteKind::kPut,
                                               /*has_expected=*/true,
                                               Bytes{}))).status,
            Status::kTxnConflict);
  EXPECT_EQ(m.sm.txn_conflicts(), 3u);

  // The byte-identical re-prepare is still idempotent, and the commit
  // applies the *original* buffered write.
  EXPECT_EQ(m.apply(4, cmd_bytes(Op::kTxnPrepare, 1, 5, key,
                                 prepare_bytes(7, to_bytes("a")))).status,
            Status::kOk);
  EXPECT_EQ(m.sm.locks_held(), 1u);
  EXPECT_EQ(m.apply(5, cmd_bytes(Op::kTxnCommit, 1, 6, key,
                                 decision_bytes(7))).status,
            Status::kOk);
  EXPECT_EQ(m.sm.store().at(key), to_bytes("a"));
}

TEST(TxnStateMachine, PrepareMarkRedeliversRefusalAfterLaterAbort) {
  // The recovery-ambiguity window: coordinator session 9 prepares key "a"
  // (accepted), prepares key "c" (refused — a foreign lock holds it), then
  // an abort for "a" lands on the same machine and advances the session
  // cache past the refused prepare. A replay of that prepare must re-read
  // the *refusal* from the prepare mark — a bare kStaleDup here is what
  // used to turn this abort into a partial commit.
  Machine m;
  const Bytes a = to_bytes("acct-a");
  const Bytes c = to_bytes("acct-c");
  // Foreign lock on "c" (txn 5, session 8).
  ASSERT_EQ(m.apply(0, cmd_bytes(Op::kTxnPrepare, 8, 1, c,
                                 prepare_bytes(5, to_bytes("x")))).status,
            Status::kOk);
  // Session 9, txn 7: prepare "a" accepted, prepare "c" refused, abort "a".
  ASSERT_EQ(m.apply(1, cmd_bytes(Op::kTxnPrepare, 9, 1, a,
                                 prepare_bytes(7, to_bytes("1")))).status,
            Status::kOk);
  ASSERT_EQ(m.apply(2, cmd_bytes(Op::kTxnPrepare, 9, 2, c,
                                 prepare_bytes(7, to_bytes("2")))).status,
            Status::kTxnConflict);
  ASSERT_EQ(m.apply(3, cmd_bytes(Op::kTxnAbort, 9, 3, a,
                                 decision_bytes(7))).status,
            Status::kOk);

  // Replay of the refused prepare (seq 2 < last_seq 3): the mark answers
  // with the recorded refusal, not kStaleDup.
  EXPECT_EQ(m.apply(4, cmd_bytes(Op::kTxnPrepare, 9, 2, c,
                                 prepare_bytes(7, to_bytes("2")))).status,
            Status::kTxnConflict);
  // Replay of the *accepted* prepare (seq 1, older than the mark): plain
  // kStaleDup — which now really does imply acceptance, since only an
  // accepted prepare is ever followed by a newer one.
  EXPECT_EQ(m.apply(5, cmd_bytes(Op::kTxnPrepare, 9, 1, a,
                                 prepare_bytes(7, to_bytes("1")))).status,
            Status::kStaleDup);
  // Replays are duplicates: no state moved, nothing double-counted.
  EXPECT_EQ(m.sm.duplicates_suppressed(), 2u);
  EXPECT_EQ(m.sm.txn_conflicts(), 1u);

  // The mark is replicated state: it survives a snapshot round trip and
  // still answers the replay on the restored machine.
  const Bytes snap = m.sm.snapshot();
  Machine b;
  ASSERT_TRUE(b.sm.restore(snap));
  EXPECT_EQ(b.sm.store_hash(), m.sm.store_hash());
  EXPECT_EQ(b.apply(0, cmd_bytes(Op::kTxnPrepare, 9, 2, c,
                                 prepare_bytes(7, to_bytes("2")))).status,
            Status::kTxnConflict);
}

TEST(TxnStateMachine, OptimisticGuardRefusesOnChangedValue) {
  Machine m;
  const Bytes key = to_bytes("acct-2");
  m.apply(0, cmd_bytes(Op::kPut, 1, 1, key, to_bytes("100")));

  // Guard on stale bytes: conflict, current value riding back (the CAS
  // mismatch shape, so the coordinator could re-read without a GET).
  Reply r = m.apply(1, cmd_bytes(Op::kTxnPrepare, 2, 1, key,
                                 prepare_bytes(9, to_bytes("150"),
                                               txn::WriteKind::kPut,
                                               /*has_expected=*/true,
                                               to_bytes("50"))));
  EXPECT_EQ(r.status, Status::kTxnConflict);
  EXPECT_EQ(r.value, to_bytes("100"));
  EXPECT_EQ(m.sm.locks_held(), 0u);

  // Guard on the exact committed bytes: accepted.
  r = m.apply(2, cmd_bytes(Op::kTxnPrepare, 2, 2, key,
                           prepare_bytes(10, to_bytes("150"),
                                         txn::WriteKind::kPut,
                                         /*has_expected=*/true,
                                         to_bytes("100"))));
  EXPECT_EQ(r.status, Status::kOk);
  m.apply(3, cmd_bytes(Op::kTxnAbort, 2, 3, key, decision_bytes(10)));

  // Guard "absent" (empty expected) against a missing key: accepted —
  // the kCas convention, which is how transfers create accounts.
  r = m.apply(4, cmd_bytes(Op::kTxnPrepare, 2, 4, to_bytes("acct-new"),
                           prepare_bytes(11, to_bytes("5"),
                                         txn::WriteKind::kPut,
                                         /*has_expected=*/true, Bytes{})));
  EXPECT_EQ(r.status, Status::kOk);
}

TEST(TxnStateMachine, PresumedAbortOrphanDecisions) {
  Machine m;
  const Bytes key = to_bytes("acct-3");

  // Commit with no matching lock: the prepare never landed (or an abort
  // released it) — kTxnAborted, nothing applied.
  Reply r =
      m.apply(0, cmd_bytes(Op::kTxnCommit, 1, 1, key, decision_bytes(7)));
  EXPECT_EQ(r.status, Status::kTxnAborted);
  EXPECT_EQ(m.sm.txn_orphans(), 1u);
  EXPECT_EQ(m.sm.store().count(key), 0u);

  // Abort with no lock succeeds idempotently: absence of a lock IS the
  // aborted state.
  r = m.apply(1, cmd_bytes(Op::kTxnAbort, 1, 2, key, decision_bytes(7)));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(m.sm.txn_orphans(), 2u);

  // A decision naming the wrong transaction id does not release someone
  // else's lock.
  m.apply(2, cmd_bytes(Op::kTxnPrepare, 2, 1, key,
                       prepare_bytes(8, to_bytes("x"))));
  r = m.apply(3, cmd_bytes(Op::kTxnCommit, 1, 3, key, decision_bytes(999)));
  EXPECT_EQ(r.status, Status::kTxnAborted);
  EXPECT_EQ(m.sm.locks_held(), 1u);
}

TEST(TxnStateMachine, DelWriteKindCommitsToDeletion) {
  Machine m;
  const Bytes key = to_bytes("acct-4");
  m.apply(0, cmd_bytes(Op::kPut, 1, 1, key, to_bytes("doomed")));
  m.apply(1, cmd_bytes(Op::kTxnPrepare, 2, 1, key,
                       prepare_bytes(5, Bytes{}, txn::WriteKind::kDel)));
  m.apply(2, cmd_bytes(Op::kTxnCommit, 2, 2, key, decision_bytes(5)));
  EXPECT_EQ(m.sm.store().count(key), 0u);
  EXPECT_EQ(m.sm.locks_held(), 0u);
}

TEST(TxnStateMachine, MalformedPayloadsAbortDeterministically) {
  Machine m;
  const Bytes key = to_bytes("acct-5");
  const Bytes junk = to_bytes("\xde\xad\xbe\xef");
  for (const Op op : {Op::kTxnPrepare, Op::kTxnCommit, Op::kTxnAbort}) {
    const Reply r = m.apply(0, cmd_bytes(op, 1, m.sm.last_seq(1) + 1, key,
                                         junk));
    EXPECT_EQ(r.status, Status::kTxnAborted);
  }
  EXPECT_EQ(m.sm.txn_rejected(), 3u);
  EXPECT_EQ(m.sm.locks_held(), 0u);
  // Still counted client ops with cached (persistable) replies.
  EXPECT_EQ(m.sm.ops_applied(), 3u);
  EXPECT_TRUE(kv::status_persistable(
      static_cast<std::uint8_t>(Status::kTxnAborted)));
  EXPECT_TRUE(kv::status_persistable(
      static_cast<std::uint8_t>(Status::kTxnConflict)));
}

// ---------------------------------------------------------------------------
// Lock table in the state codecs.
// ---------------------------------------------------------------------------

TEST(TxnStateMachine, SnapshotRoundTripCarriesLockTable) {
  Machine a;
  a.apply(0, cmd_bytes(Op::kPut, 1, 1, to_bytes("acct-0"), to_bytes("10")));
  a.apply(1, cmd_bytes(Op::kTxnPrepare, 2, 1, to_bytes("acct-1"),
                       prepare_bytes(3, to_bytes("20"))));
  a.apply(2, cmd_bytes(Op::kTxnPrepare, 3, 1, to_bytes("acct-2"),
                       prepare_bytes(4, Bytes{}, txn::WriteKind::kDel)));
  ASSERT_EQ(a.sm.locks_held(), 2u);

  const Bytes snap = a.sm.snapshot();
  Machine b;
  ASSERT_TRUE(b.sm.restore(snap));
  EXPECT_EQ(b.sm.store_hash(), a.sm.store_hash());
  EXPECT_EQ(b.sm.locks_held(), 2u);
  EXPECT_EQ(b.sm.txn_prepared(), 2u);

  // The restored lock still decides: commit applies the buffered write the
  // snapshot carried.
  const Reply r = b.apply(3, cmd_bytes(Op::kTxnCommit, 2, 2,
                                       to_bytes("acct-1"),
                                       decision_bytes(3)));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(b.sm.store().at(to_bytes("acct-1")), to_bytes("20"));

  // Fail-closed: any flipped byte must miss the embedded digest.
  for (const std::size_t at : {std::size_t{0}, snap.size() / 2,
                               snap.size() - 1}) {
    Bytes forged = snap;
    forged[at] ^= 0x20;
    kv::StateMachine c;
    EXPECT_FALSE(c.restore(forged)) << "flip at " << at;
  }
}

TEST(TxnStateMachine, LocksMigrateWithTheDrainedRange) {
  // A transaction straddling a live reshard: the prepare lands at the
  // source, the range (lock included) drains to the destination, and the
  // decision — routed by key to the new owner — must still decide there.
  const kv::ShardTable initial = kv::ShardTable(1);
  Machine src, dst;
  src.sm.configure_partition(0, initial);
  dst.sm.configure_partition(1, initial);

  const Bytes moving = key_in_bucket(2, 1);
  src.apply(0, cmd_bytes(Op::kPut, 1, 1, moving, to_bytes("30")));
  EXPECT_EQ(src.apply(1, cmd_bytes(Op::kTxnPrepare, 2, 1, moving,
                                   prepare_bytes(6, to_bytes("99"),
                                                 txn::WriteKind::kPut,
                                                 /*has_expected=*/true,
                                                 to_bytes("30")))).status,
            Status::kOk);
  ASSERT_EQ(src.sm.locks_held(), 1u);

  kv::RangeSpec spec;
  spec.epoch = 1;
  spec.table_buckets = 2;
  spec.buckets = {1};
  const Bytes spec_bytes = kv::encode_range_spec(spec);
  Command seal;
  seal.op = Op::kSeal;
  seal.client = 99;
  seal.seq = 1;
  seal.value = spec_bytes;
  src.apply(2, encode_command(seal));

  const Bytes drained = src.sm.export_range(spec_bytes);
  ASSERT_FALSE(drained.empty());
  const auto snap = kv::decode_range_snapshot(drained);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->locks.size(), 1u);
  EXPECT_EQ(snap->locks[0].first, moving);
  EXPECT_EQ(snap->locks[0].second.txn, 6u);
  // The guard travels with the lock, and the prepare mark travels with the
  // session table — a coordinator replaying this prepare at the new owner
  // must read its original outcome there.
  EXPECT_TRUE(snap->locks[0].second.has_expected);
  EXPECT_EQ(snap->locks[0].second.expected, to_bytes("30"));
  ASSERT_EQ(snap->prepare_marks.size(), 1u);
  EXPECT_EQ(snap->prepare_marks[0].client, 2u);
  EXPECT_EQ(snap->prepare_marks[0].seq, 1u);
  EXPECT_EQ(snap->prepare_marks[0].status,
            static_cast<std::uint8_t>(Status::kOk));

  Command install;
  install.op = Op::kInstall;
  install.client = 99;
  install.seq = 1;
  install.value = drained;
  dst.apply(0, encode_command(install));
  EXPECT_EQ(dst.sm.locks_held(), 1u);

  // The commit record routes to the new owner and applies the buffered
  // write the lock carried across the wire.
  const Reply r = dst.apply(1, cmd_bytes(Op::kTxnCommit, 2, 2, moving,
                                         decision_bytes(6)));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(dst.sm.store().at(moving), to_bytes("99"));
  EXPECT_EQ(dst.sm.locks_held(), 0u);

  // PURGE drops the source's sealed-away copy of the lock, not just the
  // pairs — no shard may end a run holding a lock for a range it lost.
  Command purge;
  purge.op = Op::kPurge;
  purge.client = 99;
  purge.seq = 2;
  purge.value = spec_bytes;
  src.apply(3, encode_command(purge));
  EXPECT_EQ(src.sm.locks_held(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end atomicity (harness).
// ---------------------------------------------------------------------------

harness::ClusterConfig txn_config(std::size_t shards, std::size_t clients,
                                  std::size_t ops) {
  harness::ClusterConfig c;
  c.algo = harness::Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  c.kv.txn_fraction = 0.4;
  return c;
}

std::uint64_t total_shard_ops(const harness::RunReport& r) {
  return std::accumulate(r.kv_shard_ops.begin(), r.kv_shard_ops.end(),
                         std::uint64_t{0});
}

/// The transactional contract every scenario must satisfy: balances
/// conserve, no lock survives the run, every transfer reached exactly one
/// outcome, and the global exactly-once sum still holds.
void expect_atomic(const harness::RunReport& r) {
  EXPECT_EQ(r.kv_txn_balance, 0) << r.summary();
  EXPECT_EQ(r.kv_locks_held, 0u) << r.summary();
  EXPECT_EQ(r.kv_txn_commits + r.kv_txn_aborts, r.kv_txns) << r.summary();
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
}

TEST(TxnCluster, TransfersConserveBalanceAcrossShards) {
  const harness::RunReport r = run_cluster(txn_config(3, 8, 16));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_GT(r.kv_txns, 0u) << r.summary();
  EXPECT_GT(r.kv_txn_commits, 0u) << r.summary();
  EXPECT_GE(r.kv_txn_commit_p999, r.kv_txn_commit_p50) << r.summary();
}

TEST(TxnCluster, HotAccountsConflictAndAbortNeverCorrupt) {
  // Zipfian account popularity over a small account space: conflicting
  // prepares must show up as aborts, and an abort must be as conservative
  // as a commit — Σ balances still 0.
  harness::ClusterConfig c = txn_config(2, 8, 16);
  c.kv.accounts = 8;
  c.kv.txn_zipf_theta = 0.95;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_GT(r.kv_txn_aborts, 0u)
      << "hot accounts must conflict: " << r.summary();
  EXPECT_GT(r.kv_txn_conflicts, 0u) << r.summary();
}

TEST(TxnCluster, CoordinatorCrashAfterPrepareRecoversExactlyOnce) {
  // Acceptance scenario 1: client 1's first transfer stops dead after both
  // prepares (all locks taken, no decision sent), sleeps, then recovers by
  // replaying the identical record stream under the original seqs. The
  // replay must re-derive the decision from participant state, release
  // every lock, and not double-count a single record.
  harness::ClusterConfig c = txn_config(2, 6, 12);
  c.kv.txn_fraction = 0.5;
  c.kv.txn_crash_client = 1;
  c.kv.txn_crash_txn = 1;
  c.kv.txn_crash_records = 2;  // == txn_accounts: crash at the decision gap
  c.kv.txn_crash_pause = 200;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_EQ(r.kv_txn_recoveries, 1u)
      << "the scripted crash must have happened and recovered: "
      << r.summary();
  EXPECT_GT(r.kv_txns, 0u);
}

TEST(TxnCluster, CoordinatorCrashWithRefusedPrepareRecoversAbort) {
  // The reviewer's partial-commit window, end to end: a 3-account transfer
  // whose *last* prepare is refused (a planted foreign lock), crashing
  // after the first abort record already landed on the refused prepare's
  // shard. The recovery replay sees that prepare behind the session cache;
  // it must re-read the refusal from the prepare mark and drive the abort
  // side — inferring acceptance from kStaleDup would decide commit and
  // apply the middle account's credit without the first account's debit.
  // Single shard makes the collision certain: every record shares one
  // session on one machine.
  harness::ClusterConfig c = txn_config(1, 6, 12);
  c.kv.txn_fraction = 0.5;
  c.kv.txn_accounts = 3;
  c.kv.txn_crash_client = 1;
  c.kv.txn_crash_txn = 1;
  c.kv.txn_crash_records = 4;  // 3 prepares + the first abort
  c.kv.txn_crash_conflict = true;
  c.kv.txn_crash_pause = 200;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_EQ(r.kv_txn_recoveries, 1u) << r.summary();
  EXPECT_GT(r.kv_txn_aborts, 0u)
      << "the crashed transfer must resolve as a full abort: " << r.summary();
}

TEST(TxnCluster, ParticipantLeaderCrashMidTransactions) {
  // Acceptance scenario 2: a shard leader dies mid-run with 2PC records in
  // flight. Retries and the leader hand-off may duplicate records in the
  // log; session dedup must keep every prepare/decision exactly-once, so
  // atomicity and the rollup survive the crash.
  harness::ClusterConfig c = txn_config(2, 6, 12);
  c.kv.retry_timeout = 24;
  c.log.batch = 1;
  c.log.window = 2;
  c.faults.process_crashes[1] = 7;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_TRUE(r.validity) << r.summary();
  expect_atomic(r);
  EXPECT_GT(r.kv_txns, 0u);
  EXPECT_GT(r.kv_retries, 0u)
      << "records stranded in the dead leader's queue must have retried";
}

TEST(TxnCluster, ByzantineForgedPrepareIsRejected) {
  // Acceptance scenario 3: a Byzantine slot winner smuggles a well-formed,
  // validly-signed-by-the-attacker TxnPrepare under the victim's session
  // (alongside the two plain forgeries of the session-hijack scenario).
  // With client signing on, all three must verify as forged before the
  // session lookup — no phantom lock, no phantom balance.
  harness::ClusterConfig c = txn_config(1, 2, 3);
  c.algo = harness::Algorithm::kFastRobust;
  c.m = 3;
  c.faults.byzantine[1] = harness::ByzantineStrategy::kForgeClientCommands;
  c.kv.sign_commands = true;
  c.horizon = 200000;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_EQ(r.kv_forged, 3u)
      << "plain pair + forged prepare must all be counted, not applied: "
      << r.summary();
}

TEST(TxnCluster, LiveSplitMidTransactionsStaysAtomic) {
  // Acceptance scenario 4: a 1→2 split lands mid-run, so transactions
  // straddle the epoch flip — prepares at the old owner, locks drained
  // with the range, decisions routed (and re-signed) to the new owner.
  harness::ClusterConfig c = txn_config(1, 8, 16);
  c.kv.sign_commands = true;
  c.kv.reconfig.push_back({40, reconfig::ChangeKind::kSplit, 0, 1});
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_GT(r.kv_txns, 0u);
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
  EXPECT_GT(r.reconfig_keys_moved, 0u) << r.summary();
  EXPECT_EQ(r.kv_forged, 0u)
      << "re-routed txn records must re-sign for the new group: "
      << r.summary();
}

TEST(TxnCluster, CrashAndRejoinRestoresLockTable) {
  // Snapshots taken mid-run carry the lock table; a replica that crashes
  // and rejoins must converge to the survivors' store hash — which folds
  // the locks — and the run must still end lock-free and balanced.
  harness::ClusterConfig c = txn_config(2, 6, 12);
  c.kv.retry_timeout = 24;
  c.log.batch = 1;
  c.log.window = 2;
  c.log.snapshot_interval = 4;
  c.faults.process_crashes[1] = 7;
  c.faults.process_rejoins[1] = 600;
  const harness::RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  expect_atomic(r);
  EXPECT_GE(r.snapshots_installed, 1u) << r.summary();
  EXPECT_EQ(r.processes[0].decision, r.processes[1].decision) << r.summary();
}

}  // namespace
}  // namespace mnm

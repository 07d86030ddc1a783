#include "src/harness/cluster.hpp"

#include <charconv>
#include <functional>
#include <sstream>
#include <stdexcept>

#include <algorithm>
#include <set>

#include "src/core/aligned_paxos.hpp"
#include "src/core/cheap_quorum.hpp"
#include "src/core/disk_paxos.hpp"
#include "src/core/engine.hpp"
#include "src/core/fast_robust.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/robust_backup.hpp"
#include "src/core/transport.hpp"
#include "src/core/transport_mux.hpp"
#include "src/crypto/signature.hpp"
#include "src/harness/process_view.hpp"
#include "src/kv/router.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/kv/workload.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/reconfig/migrator.hpp"
#include "src/reconfig/table_machine.hpp"
#include "src/reconfig/table_view.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/replica.hpp"
#include "src/util/fnv.hpp"
#include "src/util/serde.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::harness {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kPaxos: return "Paxos (messages, 2-phase)";
    case Algorithm::kFastPaxos: return "Fast Paxos (messages, phase-1 skip)";
    case Algorithm::kDiskPaxos: return "Disk Paxos (memory, static perms)";
    case Algorithm::kProtectedMemoryPaxos: return "Protected Memory Paxos";
    case Algorithm::kAlignedPaxos: return "Aligned Paxos";
    case Algorithm::kRobustBackup: return "Robust Backup(Paxos)";
    case Algorithm::kFastRobust: return "Fast & Robust";
  }
  return "?";
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << "decided=" << (decided_value ? *decided_value : "<none>")
     << " first_delay=" << (first_decision_delay == sim::kTimeInfinity
                                ? std::string("inf")
                                : std::to_string(first_decision_delay))
     << " agreement=" << agreement << " validity=" << validity
     << " termination=" << termination << " msgs=" << messages_sent
     << " reads=" << mem_reads << " read_batches=" << mem_read_batches
     << " writes=" << mem_writes
     << " perm_changes=" << permission_changes << " sigs=" << signatures
     << " events=" << events;
  if (tsend_deliveries > 0) {
    os << " tsend_deliveries=" << tsend_deliveries
       << " entries_decoded=" << history_entries_decoded
       << " entries_skipped=" << history_entries_skipped
       << " decoded/delivery=" << decoded_per_delivery;
  }
  if (slots_applied > 0) {
    os << " slots=" << slots_applied << " cmds=" << commands_applied
       << " noop=" << noop_slots << " fast=" << fast_slots
       << " p50=" << commit_p50 << " p99=" << commit_p99
       << " p999=" << commit_p999 << " qwait50=" << queue_wait_p50
       << " qwait99=" << queue_wait_p99 << " occ=" << window_occupancy
       << " events/slot=" << events_per_slot;
    if (!tuner_trajectory.empty()) {
      os << " tuner_epochs=" << tuner_epochs << " tuner_w=" << tuner_window
         << " tuner_b=" << tuner_batch << " tune=" << tuner_trajectory;
    }
  }
  if (snapshots_taken > 0 || snapshots_installed > 0) {
    os << " snaps=" << snapshots_taken << "+" << snapshots_installed
       << " truncated=" << slots_truncated << " catchup_bytes=" << catchup_bytes;
  }
  if (kv_ops > 0) {
    os << " kv_ops=" << kv_ops << " kv_retries=" << kv_retries
       << " kv_dups=" << kv_duplicates;
    // Signed-mode-only counter: printed only when non-zero so legacy
    // summary strings (and the fingerprints pinning them) are unchanged.
    if (kv_forged > 0) os << " kv_forged=" << kv_forged;
    os << " kv_ops/kdelay=" << kv_ops_per_kdelay
       << " kv_op_p50=" << kv_op_p50 << " kv_op_p99=" << kv_op_p99
       << " kv_op_p999=" << kv_op_p999 << " kv_hash=" << kv_store_hash
       << " shard_ops=[";
    for (std::size_t i = 0; i < kv_shard_ops.size(); ++i) {
      os << (i > 0 ? "," : "") << kv_shard_ops[i];
    }
    os << "]";
  }
  // Transactional runs only — legacy summary strings are unchanged.
  if (kv_txns > 0) {
    os << " txns=" << kv_txns << " commits=" << kv_txn_commits
       << " aborts=" << kv_txn_aborts << " txn_conflicts=" << kv_txn_conflicts
       << " recoveries=" << kv_txn_recoveries << " balance=" << kv_txn_balance
       << " locks=" << kv_locks_held << " txn_p50=" << kv_txn_commit_p50
       << " txn_p999=" << kv_txn_commit_p999;
  }
  if (reconfig_epoch > 0 || reconfig_proposals > 0) {
    os << " epoch=" << reconfig_epoch
       << " migrations=" << reconfig_migrations
       << " keys_moved=" << reconfig_keys_moved
       << " bounces=" << reconfig_bounces
       << " proposals=" << reconfig_proposals << " flips=[";
    for (std::size_t i = 0; i < reconfig_flip_times.size(); ++i) {
      os << (i > 0 ? "," : "") << reconfig_flip_times[i];
    }
    os << "]";
  }
  return os.str();
}

namespace {

using core::Omega;

std::string input_of(const ClusterConfig& cfg, ProcessId p) {
  return cfg.identical_inputs ? "value-all" : "value-" + std::to_string(p);
}

std::string smr_command(ProcessId p, std::size_t i) {
  return "set k" + std::to_string(i) + " p" + std::to_string(p);
}

/// The harness's replicated state machine: records every applied command so
/// the run can check log agreement across replicas.
struct RecordingSm : smr::StateMachine {
  std::vector<std::string> log;
  void apply(Slot, util::ByteView command) override {
    log.push_back(util::to_string(command));
  }
  // Snapshot = the whole recorded log (unbounded, but this machine exists
  // to check log agreement — a rejoined replica must reproduce the full
  // command sequence, not just a digest of it).
  Bytes snapshot() const override {
    util::Writer w(16 + 16 * log.size());
    w.u32(static_cast<std::uint32_t>(log.size()));
    for (const std::string& c : log) w.str(c);
    return std::move(w).take();
  }
  bool restore(util::ByteView raw) override {
    try {
      util::Reader r(raw);
      const std::uint32_t count = r.u32();
      std::vector<std::string> out;
      out.reserve(std::min<std::size_t>(count, r.remaining() / 4));
      for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
      r.expect_end();
      log = std::move(out);
      return true;
    } catch (const util::SerdeError&) {
      return false;
    }
  }
};

/// The direct-transport message tag of each algorithm: what its processes
/// listen on when the run gives them the network to themselves (single-shot
/// and SMR modes; KV mode multiplexes every group over one base tag).
net::MsgType net_tag(Algorithm a) {
  switch (a) {
    case Algorithm::kDiskPaxos: return 910;
    case Algorithm::kProtectedMemoryPaxos: return 900;
    case Algorithm::kAlignedPaxos: return 920;
    default: return 100;
  }
}

/// Fast & Robust's knobs — also Robust Backup's, which is its backup path.
/// Rounds run over non-equivocating broadcast (≥6 delays per hop, plus scan
/// latency growing with n), so proposers get generous patience before they
/// abort a round that is still in flight.
core::FastRobustConfig fast_robust_config(const ClusterConfig& cfg) {
  const std::size_t n = cfg.n;
  core::FastRobustConfig fc;
  fc.n = n;
  fc.f = n > 0 ? (n - 1) / 2 : 0;  // tolerance n >= 2f+1
  fc.cheap.n = n;
  fc.cheap.timeout = cfg.cq_timeout;
  fc.neb.n = n;
  fc.paxos.n = n;
  fc.paxos.round_timeout = 150 * n;
  fc.paxos.retry_backoff = 40;
  return fc;
}

/// Process p's message transport for one group's engine or instance.
using TransportFor = std::function<core::Transport&(ProcessId)>;
/// A group's region namespace: a protocol's base prefix ("dp", "pmp", "cq",
/// "neb") → this group's prefix for it.
using Namespace = std::function<std::string(const char*)>;
using EngineFactory =
    std::function<std::unique_ptr<core::ConsensusEngine>(ProcessId)>;
using MachineFactory = std::function<std::unique_ptr<smr::StateMachine>()>;

/// One process's incarnation in a replicated group. Torn down replica →
/// machine → engine (reverse declaration order): each references the ones
/// declared before it.
struct Member {
  std::unique_ptr<core::ConsensusEngine> engine;
  std::unique_ptr<smr::StateMachine> machine;
  std::unique_ptr<smr::Replica> replica;  // null on Byzantine processes
};

/// One replicated consensus group: SMR mode's log, a KV data shard, or the
/// reconfiguration config group. The factories build a process's engine
/// and machine at start-up and again when it rejoins; `rebind` re-points
/// the group's router (KV shards) or migrator (config group) at a process's
/// current incarnation, a null replica detaching it.
struct Group {
  /// "" (SMR), "g<i>" (KV shard) or "cfg": prefixes tuner trajectories and
  /// KV per-process decision strings.
  std::string label;
  smr::ReplicaConfig rc;
  EngineFactory make_engine;
  MachineFactory make_machine;
  std::function<void(ProcessId, smr::Replica*, smr::StateMachine*)> rebind;
  std::vector<Member> members;  // index p - 1

  smr::Replica* replica(ProcessId p) const {
    return members[p - 1].replica.get();
  }
  template <class M>
  M& machine(ProcessId p) const {
    return static_cast<M&>(*members[p - 1].machine);
  }
};

/// One process's slot-0 protocol instance in a single-shot run: what
/// run_single_shot needs of every algorithm's instance type.
class SingleShot {
 public:
  SingleShot() = default;
  SingleShot(const SingleShot&) = delete;
  SingleShot& operator=(const SingleShot&) = delete;
  virtual ~SingleShot() = default;
  virtual void start() = 0;
  /// Propose `v` and record this process's decision in `row`.
  virtual sim::Task<void> propose(ProcessReport* row, Bytes v) = 0;
  /// T-send decode accounting (Robust Backup, Fast & Robust); zero elsewhere.
  virtual core::trusted::TsendStats tsend_stats() const = 0;
};
using SingleShotFactory = std::function<std::unique_ptr<SingleShot>(ProcessId)>;

/// SingleShot over an `Inst`, plus the NEB slots it broadcasts through when
/// it has them (declared first: they outlive it).
template <typename Inst>
class SingleShotOf final : public SingleShot {
 public:
  SingleShotOf(sim::Executor& exec, std::unique_ptr<Inst> inst,
               std::unique_ptr<core::NebSlots> neb_slots = nullptr)
      : exec_(&exec),
        neb_slots_(std::move(neb_slots)),
        inst_(std::move(inst)) {}

  void start() override {
    if constexpr (requires { inst_->start(); }) inst_->start();
  }

  sim::Task<void> propose(ProcessReport* row, Bytes v) override {
    auto out = co_await inst_->propose(std::move(v));
    row->decided = true;
    if constexpr (std::is_same_v<decltype(out), core::FastRobustOutcome>) {
      row->decision = util::to_string(out.value);
      row->decided_at = out.decided_at;
      row->fast_path = out.fast;
    } else {
      row->decision = util::to_string(out);
      row->decided_at = exec_->now();
    }
  }

  core::trusted::TsendStats tsend_stats() const override {
    if constexpr (requires { inst_->tsend_stats(); }) {
      return inst_->tsend_stats();
    }
    return {};
  }

 private:
  sim::Executor* exec_;
  std::unique_ptr<core::NebSlots> neb_slots_;
  std::unique_ptr<Inst> inst_;
};

/// Everything one run owns. The executor is declared first (constructed
/// first, destroyed last); all cross-object references during teardown go
/// through shared nodes, so this order is safe.
struct World {
  explicit World(const ClusterConfig& cfg)
      : cfg(cfg),
        exec(),
        rng(cfg.seed),
        keystore(cfg.seed ^ 0x5157ULL),
        network(exec, cfg.n) {
    if (cfg.gst > 0) network.set_gst(cfg.gst, cfg.pre_gst_delay);

    // Memories (either backend).
    for (std::size_t i = 0; i < cfg.m; ++i) {
      const MemoryId mid = static_cast<MemoryId>(i + 1);
      if (cfg.verbs_backend) {
        verbs_backing.push_back(std::make_unique<verbs::VerbsMemory>(
            exec, std::make_unique<verbs::RdmaDevice>(exec, mid, rng.next()),
            all_processes(cfg.n)));
        memories.push_back(verbs_backing.back().get());
      } else {
        mem_backing.push_back(std::make_unique<mem::Memory>(exec, mid));
        memories.push_back(mem_backing.back().get());
      }
    }

    // Per-process liveness flags, signers and memory views.
    for (ProcessId p : all_processes(cfg.n)) {
      alive.push_back(std::make_shared<bool>(true));
      signers.push_back(keystore.register_process(p));
      std::vector<std::unique_ptr<ProcessView>> vs;
      std::vector<mem::MemoryIface*> raw;
      for (auto* m : memories) {
        vs.push_back(std::make_unique<ProcessView>(exec, *m, alive.back()));
        raw.push_back(vs.back().get());
      }
      views.push_back(std::move(vs));
      view_ptrs.push_back(std::move(raw));
    }

    // Per-process fault summary, precomputed so the per-event predicates
    // below (Ω queries, done()) never walk the fault maps.
    byzantine_.assign(cfg.n, 0);
    crash_at_.assign(cfg.n, sim::kTimeInfinity);
    rejoin_at_.assign(cfg.n, sim::kTimeInfinity);
    for (ProcessId p : all_processes(cfg.n)) {
      if (cfg.faults.is_byzantine(p)) byzantine_[p - 1] = 1;
      const auto it = cfg.faults.process_crashes.find(p);
      if (it != cfg.faults.process_crashes.end()) crash_at_[p - 1] = it->second;
    }
    for (const auto& [p, at] : cfg.faults.process_rejoins) {
      if (cfg.faults.is_byzantine(p)) {
        throw std::invalid_argument(
            "process_rejoins: Byzantine processes do not rejoin");
      }
      const auto crash = cfg.faults.process_crashes.find(p);
      if (crash == cfg.faults.process_crashes.end() || crash->second >= at) {
        throw std::invalid_argument(
            "process_rejoins: rejoin must strictly follow a scheduled crash");
      }
      rejoin_at_[p - 1] = at;
    }

    // Ω: lowest-id correct process alive at t (converges once crashes stop;
    // Byzantine processes are never trusted — the standard assumption that
    // Ω eventually outputs a correct process).
    // poke_complete: this oracle's output changes only at process-crash and
    // rejoin times, and the crash callbacks below (plus rejoin_process)
    // poke — so leadership waits need no fallback timers at all.
    omega = std::make_unique<Omega>(
        exec,
        [this](sim::Time t) -> ProcessId {
          for (ProcessId p = 1; p <= static_cast<ProcessId>(this->cfg.n); ++p) {
            if (this->byzantine_[p - 1]) continue;
            // Down exactly during [crash, rejoin): a rejoined process is
            // trustable again (and, as the lowest id, typically reclaims
            // leadership once it recovers).
            if (this->crash_at_[p - 1] <= t && t < this->rejoin_at_[p - 1]) {
              continue;
            }
            return p;
          }
          return kLeaderP1;
        },
        /*poke_complete=*/true);

    // Schedule faults.
    for (const auto& [p, t] : cfg.faults.process_crashes) {
      exec.call_at(t, [this, p = p] {
        *alive[p - 1] = false;
        network.crash(p);
        // The leader oracle keys off crash times: wake suspended
        // wait_leadership calls so succession is notification-driven.
        omega->poke();
      });
    }
    for (const auto& [mid, t] : cfg.faults.memory_crashes) {
      exec.call_at(t, [this, mid = mid] {
        if (this->cfg.verbs_backend) {
          verbs_backing[mid - 1]->device().crash();
        } else {
          mem_backing[mid - 1]->crash();
        }
      });
    }

    reports.resize(cfg.n);
    for (ProcessId p : all_processes(cfg.n)) {
      auto& row = reports[p - 1];
      row.id = p;
      row.byzantine = byzantine_[p - 1] != 0;
      row.crashed_at = crash_at_[p - 1];
      row.rejoined_at = rejoin_at_[p - 1];
    }
  }

  /// Apply `fn` to every backing memory object (for region creation).
  template <typename Fn>
  void for_each_backing(Fn&& fn) {
    if (cfg.verbs_backend) {
      for (auto& vm : verbs_backing) fn(*vm);
    } else {
      for (auto& mm : mem_backing) fn(*mm);
    }
  }

  /// Correct by the paper's book-keeping: never faulty, or faulty only
  /// transiently (crashes but rejoins — by the horizon it is a live replica
  /// again and must satisfy every invariant the always-up replicas do).
  bool correct(ProcessId p) const {
    return !byzantine_[p - 1] && (crash_at_[p - 1] == sim::kTimeInfinity ||
                                  rejoin_at_[p - 1] != sim::kTimeInfinity);
  }

  bool done() const {
    for (ProcessId p = 1; p <= static_cast<ProcessId>(cfg.n); ++p) {
      if (!correct(p)) continue;
      if (!reports[p - 1].decided) return false;
    }
    return true;
  }

  ClusterConfig cfg;
  sim::Executor exec;
  sim::Rng rng;
  crypto::KeyStore keystore;
  net::Network network;
  std::vector<std::unique_ptr<mem::Memory>> mem_backing;
  std::vector<std::unique_ptr<verbs::VerbsMemory>> verbs_backing;
  std::vector<mem::MemoryIface*> memories;
  std::vector<std::shared_ptr<bool>> alive;
  std::vector<crypto::Signer> signers;
  std::vector<std::vector<std::unique_ptr<ProcessView>>> views;
  std::vector<std::vector<mem::MemoryIface*>> view_ptrs;
  std::unique_ptr<Omega> omega;
  std::vector<ProcessReport> reports;
  std::vector<std::uint8_t> byzantine_;   // index p - 1
  std::vector<sim::Time> crash_at_;       // index p - 1; infinity = never
  std::vector<sim::Time> rejoin_at_;      // index p - 1; infinity = never

  std::vector<std::unique_ptr<core::NetTransport>> transports;  // index p - 1
  std::vector<std::unique_ptr<core::TransportMux>> muxes;  // KV: 1 per process
  std::vector<std::unique_ptr<SingleShot>> single_shots;  // single-shot mode

  // SMR / KV modes: every replicated group — SMR's one log, or the KV data
  // shards followed by the config group under reconfiguration. Declared
  // after the transports/muxes their engines reference, so teardown runs
  // groups → muxes → transports.
  std::vector<Group> groups;
  std::unique_ptr<kv::Router> kv_router;
  std::unique_ptr<kv::Workload> kv_workload;

  // Reconfiguration (kv.reconfig non-empty): the initial table the config
  // group and partitioned machines start from, the cluster-level table view
  // and the migration driver.
  bool reconfig_plan_done = false;
  kv::ShardTable initial_table;
  std::unique_ptr<reconfig::TableView> table_view;
  std::unique_ptr<reconfig::Migrator> migrator;
  std::vector<sim::Time> reconfig_flips;  // accepted-epoch arrival times

  // Crash-and-rejoin graveyard: a crashed incarnation's objects are parked
  // here when the process rebuilds, because coroutine frames owned by the
  // executor still reference them — they must outlive the run (the executor
  // destroys parked frames at teardown without resuming them). Destroyed in
  // reverse declaration order: members (each replica → machine → engine) →
  // muxes → transports, mirroring the live objects.
  std::vector<std::unique_ptr<core::NetTransport>> retired_transports;
  std::vector<std::unique_ptr<core::TransportMux>> retired_muxes;
  std::vector<Member> retired_members;

  // Region ids + name prefixes used by Byzantine strategies: wire() points
  // them at slot 0's regions (shard 0's in KV mode).
  std::map<ProcessId, RegionId> neb_region_ids;
  RegionId cq_region_leader_ = 0;
  std::string neb_prefix;
  std::string cq_prefix;
};

// --- Byzantine strategies. ---

sim::Task<void> byz_neb_equivocate(World* w, ProcessId p) {
  // Write a *different* validly-signed first message to each memory's copy
  // of our own NEB slot — the equivocation Algorithm 2 must suppress.
  const std::string slot =
      w->neb_prefix + "/" + std::to_string(p) + "/1/" + std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    const Bytes msg = util::to_bytes("equivocation-" + std::to_string(i));
    const crypto::Signature sig =
        w->signers[p - 1].sign(core::neb_signing_bytes(1, msg));
    // Region id for p's NEB region: created in process order after any
    // algorithm-specific regions; the harness stores it in neb_region_ids.
    (void)co_await w->memories[i]->write(p, w->neb_region_ids.at(p), slot,
                                         core::encode_neb_slot(1, msg, sig));
  }
  co_return;
}

sim::Task<void> byz_cq_leader_equivocate(World* w, ProcessId p) {
  // As the Cheap Quorum leader, plant different signed values on different
  // memories, then go silent. Followers read a mixed quorum, fail to reach
  // unanimity, panic, and the backup must still agree.
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    const Bytes v = util::to_bytes("evil-" + std::to_string(i % 2));
    const crypto::Signature sig =
        w->signers[p - 1].sign(core::cq_value_signing_bytes(v));
    (void)co_await w->memories[i]->write(p, w->cq_region_leader_,
                                         w->cq_prefix + "/leader/value",
                                         core::encode_leader_blob(v, sig));
  }
  co_return;
}

sim::Task<void> byz_forge_client_commands(World* w, ProcessId p,
                                          bool forge_txn) {
  // The session-hijack attack (KV mode, CQ leader): win slot 0 of shard 0
  // honestly — the *same* validly-signed leader blob on every memory, so
  // followers reach unanimity and the fast path decides it — but make the
  // decided payload a batch of well-formed kv::Commands claiming a victim
  // client's identity with sky-high seqs. Without client signing the
  // machines apply them, the victim's session fast-forwards past the
  // forged seqs, and every real retry deduplicates against the attacker's
  // write. With signing on both land in kv_forged: one carries no client
  // signature at all, the other a *valid* signature under the attacker's
  // own keystore identity (the strongest forgery the model allows — a
  // Byzantine process only ever holds its own signer).
  const kv::ClientId victim = 1;
  kv::Command forged1;
  forged1.op = kv::Op::kPut;
  forged1.client = victim;
  forged1.seq = 1000000;
  forged1.key = util::to_bytes("forged-key");
  forged1.value = util::to_bytes("hijack");
  kv::Command forged2 = forged1;
  forged2.seq = 1000001;
  const Bytes body2 = kv::encode_command(forged2);
  // Bind the forgery to shard 0's signing domain — the group the attack
  // targets — so the rejection pinned here is the signer check, not the
  // (also-enforced) cross-shard binding.
  const crypto::Signature sig2 =
      w->signers[p - 1].sign(kv::command_signing_bytes(0, body2));
  std::vector<Bytes> batch = {kv::encode_command(forged1),
                              kv::encode_signed_command(body2, sig2)};
  if (forge_txn) {
    // Transactional runs add a third forgery: a well-formed TxnPrepare on a
    // hot account under the victim's session, attacker-signed — a Byzantine
    // replica must not be able to plant a lock (and wedge every transfer
    // touching the account) any more than it can plant a write.
    kv::Command forged3;
    forged3.op = kv::Op::kTxnPrepare;
    forged3.client = victim;
    forged3.seq = 1000002;
    forged3.key = util::to_bytes("acct-0");
    txn::PrepareRecord pr;
    pr.txn = 0xF063D;
    pr.write = txn::WriteKind::kPut;
    pr.value = util::to_bytes("999999");
    forged3.value = txn::encode_prepare(pr);
    const Bytes body3 = kv::encode_command(forged3);
    const crypto::Signature sig3 =
        w->signers[p - 1].sign(kv::command_signing_bytes(0, body3));
    batch.push_back(kv::encode_signed_command(body3, sig3));
  }
  const Bytes payload = smr::encode_batch(batch);
  const crypto::Signature blob_sig =
      w->signers[p - 1].sign(core::cq_value_signing_bytes(payload));
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    (void)co_await w->memories[i]->write(
        p, w->cq_region_leader_, w->cq_prefix + "/leader/value",
        core::encode_leader_blob(payload, blob_sig));
  }
  co_return;
}

sim::Task<void> byz_garbage(World* w, ProcessId p) {
  // Malformed NEB slot + junk on every message tag others listen on.
  const std::string slot =
      w->neb_prefix + "/" + std::to_string(p) + "/1/" + std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    (void)co_await w->memories[i]->write(p, w->neb_region_ids.at(p), slot,
                                         util::to_bytes("\xde\xad\xbe\xef"));
  }
  w->network.broadcast(p, 900, util::to_bytes("junk"));
  w->network.broadcast(p, 100, util::to_bytes("junk"));
  co_return;
}

void spawn_byzantine(World& w, const ClusterConfig& config) {
  for (const auto& [p, strategy] : config.faults.byzantine) {
    switch (strategy) {
      case ByzantineStrategy::kSilent:
        break;
      case ByzantineStrategy::kNebEquivocate:
        w.exec.spawn(byz_neb_equivocate(&w, p));
        break;
      case ByzantineStrategy::kCqLeaderEquivocate:
        w.exec.spawn(byz_cq_leader_equivocate(&w, p));
        break;
      case ByzantineStrategy::kGarbage:
        w.exec.spawn(byz_garbage(&w, p));
        break;
      case ByzantineStrategy::kForgeClientCommands:
        w.exec.spawn(byz_forge_client_commands(
            &w, p,
            config.kv.sign_commands && config.kv.txn_fraction > 0.0));
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Report helpers and up-front checks shared by every run mode.
// ---------------------------------------------------------------------------

/// End-of-run resource counters shared by every run mode (single-shot, SMR,
/// KV) — one definition, so a counter added to RunReport cannot silently
/// stay zero in one mode.
void fill_resource_counters(RunReport& report, World& w) {
  report.messages_sent = w.network.messages_sent();
  if (!w.cfg.verbs_backend) {
    for (const auto& m : w.mem_backing) {
      report.mem_reads += m->reads();
      report.mem_read_batches += m->read_batches();
      report.mem_writes += m->writes();
      report.permission_changes += m->permission_changes();
    }
  } else {
    for (const auto& vm : w.verbs_backing) {
      report.mem_reads += vm->device().posted_reads();
      report.mem_read_batches += vm->device().posted_read_batches();
      report.mem_writes += vm->device().posted_writes();
      report.permission_changes += vm->permission_changes();
    }
  }
  report.signatures = w.keystore.signatures_made();
  report.verifications = w.keystore.verifications_made();
  report.events = w.exec.events_processed();
}

void add_tsend_stats(RunReport& report, const core::trusted::TsendStats& s) {
  report.tsend_deliveries += s.deliveries;
  report.history_entries_decoded += s.entries_decoded;
  report.history_entries_skipped += s.entries_skipped;
}

void finish_tsend_stats(RunReport& report) {
  if (report.tsend_deliveries > 0) {
    report.decoded_per_delivery =
        static_cast<double>(report.history_entries_decoded) /
        static_cast<double>(report.tsend_deliveries);
  }
}

void add_recovery_counters(RunReport& report, const smr::RunStats& s) {
  report.snapshots_taken += s.snapshots_taken;
  report.snapshots_installed += s.snapshots_installed;
  report.slots_truncated += s.slots_truncated;
  report.catchup_bytes += s.catchup_bytes;
}

/// Crash-and-rejoin needs a log to catch up on (SMR or KV mode) and is
/// limited to the message-based engines: memory-routed algorithms park
/// reader coroutines inside crashed ProcessViews and have no catch-up
/// channel, while Paxos engines rebuild cleanly over a fresh NetTransport.
/// And without a snapshot cadence peers have nothing to serve a rejoiner,
/// so the run would never converge — reject up front.
void check_rejoin_support(const ClusterConfig& config) {
  if (config.faults.process_rejoins.empty()) return;
  if (!config.smr.enabled && !config.kv.enabled) {
    throw std::invalid_argument(
        "crash-and-rejoin requires SMR or KV mode (single-shot consensus has "
        "no log to catch up on)");
  }
  if (config.algo != Algorithm::kPaxos &&
      config.algo != Algorithm::kFastPaxos) {
    throw std::invalid_argument(
        "crash-and-rejoin needs a message-based engine (Paxos / Fast Paxos)");
  }
  if (config.log.snapshot_interval == 0) {
    throw std::invalid_argument(
        "crash-and-rejoin needs log.snapshot_interval > 0 (peers must have a "
        "snapshot to serve)");
  }
}

/// Every id a fault plan names must exist: processes are 1..n, memories
/// 1..m. The World indexes its per-process and per-memory tables by them.
void check_fault_ids(const ClusterConfig& config) {
  const auto check = [](const auto& plan, std::size_t count,
                        const char* what) {
    for (const auto& entry : plan) {
      if (entry.first < 1 || entry.first > count) {
        throw std::invalid_argument(std::string(what) + ": unknown id " +
                                    std::to_string(entry.first));
      }
    }
  };
  check(config.faults.process_crashes, config.n, "process_crashes");
  check(config.faults.process_rejoins, config.n, "process_rejoins");
  check(config.faults.byzantine, config.n, "byzantine");
  check(config.faults.memory_crashes, config.m, "memory_crashes");
}

/// A Byzantine strategy attacks regions or slots only some runs have: NEB
/// slots (RobustBackup, Fast & Robust), the Cheap Quorum leader region
/// (Fast & Robust) or a KV session (KV mode on Fast & Robust). Without its
/// target a strategy would do nothing and the run would report like
/// kSilent — reject it up front instead.
void check_byzantine_targets(const ClusterConfig& config) {
  const bool fast_robust = config.algo == Algorithm::kFastRobust;
  const bool neb = fast_robust || config.algo == Algorithm::kRobustBackup;
  for (const auto& [p, strategy] : config.faults.byzantine) {
    switch (strategy) {
      case ByzantineStrategy::kSilent:
        break;
      case ByzantineStrategy::kNebEquivocate:
      case ByzantineStrategy::kGarbage:
        if (!neb) {
          throw std::invalid_argument(
              "Byzantine NEB equivocate / garbage need NEB regions "
              "(RobustBackup or Fast & Robust)");
        }
        break;
      case ByzantineStrategy::kCqLeaderEquivocate:
        if (!fast_robust) {
          throw std::invalid_argument(
              "Byzantine CQ-leader equivocate needs Fast & Robust");
        }
        break;
      case ByzantineStrategy::kForgeClientCommands:
        if (!fast_robust || !config.kv.enabled) {
          throw std::invalid_argument(
              "Byzantine forge-client-commands needs KV mode on Fast & "
              "Robust");
        }
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol wiring, shared by every mode. Each algorithm's case defines its
// slot regions, config and per-slot instance maker once; replicated groups
// wrap the maker in the algorithm's engine, a single-shot run drives slot
// 0's instance directly.
// ---------------------------------------------------------------------------

/// Process p's engine for a replicated group (null without an engine
/// adapter) and its slot-0 instance for a single-shot run.
struct Wiring {
  EngineFactory engine;
  SingleShotFactory single_shot;
};

/// A hub-routed protocol whose process-p instance maker is `maker(p)`, over
/// `transport(p)`: per slot through the slot hub, or slot 0 directly.
template <typename Inst>
Wiring hub_wiring(World& w, TransportFor transport,
                  std::function<core::MakeInstanceFn<Inst>(ProcessId)> maker) {
  return {[&w, transport, maker](ProcessId p) {
            core::Transport& t = transport(p);
            return std::make_unique<core::HubEngine<Inst>>(w.exec, t, maker(p));
          },
          [&w, transport, maker](ProcessId p) {
            core::Transport& t = transport(p);
            return std::make_unique<SingleShotOf<Inst>>(w.exec, maker(p)(0, t));
          }};
}

/// A memory-backed hub protocol: slot s's region is
/// `make_region(memory, slot_ns(s, prefix))` on every backing memory.
template <typename Inst, typename Config, typename MakeRegion>
Wiring memory_wiring(World& w, TransportFor transport, std::string prefix,
                     Config config, MakeRegion make_region) {
  auto pool = std::make_shared<core::SlotRegions<RegionId>>(
      [wp = &w, prefix, make_region](Slot s) {
        RegionId region = 0;
        wp->for_each_backing([&](auto& m) {
          region = make_region(m, core::slot_ns(s, prefix));
        });
        return region;
      });
  return hub_wiring<Inst>(
      w, std::move(transport), [&w, pool, config, prefix](ProcessId p) {
        return core::MemoryEngine<Inst, Config>::instances(
            w.exec, w.view_ptrs[p - 1], *w.omega, pool, config, prefix);
      });
}

/// The harness's one protocol-wiring switch. Message traffic runs over
/// `transport(p)` and memory traffic uses SlotRegions pools named under
/// `ns`: single-shot runs, SMR's group, KV's data shards and the config
/// group differ only in those two arguments. `byz_target` points the
/// Byzantine region attacks at this wiring's slot 0.
Wiring wire(World& w, TransportFor transport, const Namespace& ns,
            bool byz_target) {
  const std::size_t n = w.cfg.n;
  switch (w.cfg.algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos: {
      core::PaxosConfig pc;
      pc.n = n;
      pc.skip_phase1_for_p1 = (w.cfg.algo == Algorithm::kFastPaxos);
      return hub_wiring<core::Paxos>(
          w, std::move(transport), [&w, pc](ProcessId) {
            return core::PaxosEngine::instances(w.exec, *w.omega, pc);
          });
    }

    case Algorithm::kDiskPaxos: {
      core::DiskPaxosConfig dc;
      dc.n = n;
      return memory_wiring<core::DiskPaxos>(
          w, std::move(transport), ns("dp"), dc,
          [n](auto& m, const std::string& prefix) {
            return core::make_disk_region(m, n, prefix);
          });
    }

    case Algorithm::kProtectedMemoryPaxos:
    case Algorithm::kAlignedPaxos: {
      const auto pmp_region = [n](auto& m, const std::string& prefix) {
        return core::make_pmp_region(m, n, kLeaderP1, prefix);
      };
      if (w.cfg.algo == Algorithm::kAlignedPaxos) {
        core::AlignedPaxosConfig ac;
        ac.n = n;
        return memory_wiring<core::AlignedPaxos>(w, std::move(transport),
                                                 ns("pmp"), ac, pmp_region);
      }
      core::PmpConfig pc;
      pc.n = n;
      return memory_wiring<core::ProtectedMemoryPaxos>(
          w, std::move(transport), ns("pmp"), pc, pmp_region);
    }

    case Algorithm::kRobustBackup:
    case Algorithm::kFastRobust: {
      // Robust Backup is Fast & Robust's backup path alone: NEB regions, no
      // Cheap Quorum ones.
      const bool cq = (w.cfg.algo == Algorithm::kFastRobust);
      const std::string cq_prefix = ns("cq");
      const std::string neb_prefix = ns("neb");
      auto pool = std::make_shared<core::SlotRegions<core::FastRobustSlotRegions>>(
          [wp = &w, n, cq, cq_prefix, neb_prefix](Slot s) {
            core::FastRobustSlotRegions out;
            wp->for_each_backing([&](auto& m) {
              if (cq) {
                out.cq = core::make_cq_regions(m, n, kLeaderP1,
                                               core::slot_ns(s, cq_prefix));
              }
              out.neb = core::make_neb_regions(
                  m, n, core::slot_ns(s, neb_prefix));
            });
            return out;
          });
      if (byz_target) {
        // Byzantine region attacks target this wiring's first slot.
        w.neb_prefix = core::slot_ns(0, neb_prefix);
        w.cq_prefix = core::slot_ns(0, cq_prefix);
        if (!w.cfg.faults.byzantine.empty()) {
          const core::FastRobustSlotRegions& r0 = pool->get(0);
          w.neb_region_ids = r0.neb;
          w.cq_region_leader_ = r0.cq.leader;
        }
      }
      const core::FastRobustConfig fc = fast_robust_config(w.cfg);

      if (!cq) {
        // Single-shot only: replicated modes reject Robust Backup up front.
        const core::RobustBackupConfig rc{n, fc.neb, fc.paxos};
        return {nullptr, [&w, pool, rc, neb_prefix](ProcessId p) {
                  auto neb = std::make_unique<core::NebSlots>(
                      w.exec, w.view_ptrs[p - 1], pool->get(0).neb,
                      core::slot_ns(0, neb_prefix));
                  auto rb = std::make_unique<core::RobustBackup>(
                      w.exec, *neb, w.keystore, w.signers[p - 1], *w.omega, rc);
                  return std::make_unique<SingleShotOf<core::RobustBackup>>(
                      w.exec, std::move(rb), std::move(neb));
                }};
      }
      const auto engine = [&w, pool, fc, cq_prefix, neb_prefix](ProcessId p) {
        return std::make_unique<core::FastRobustEngine>(
            w.exec, w.view_ptrs[p - 1], pool, w.keystore, w.signers[p - 1],
            *w.omega, fc, cq_prefix, neb_prefix);
      };
      return {engine, [&w, engine](ProcessId p) {
                return std::make_unique<SingleShotOf<core::FastRobustProcess>>(
                    w.exec, engine(p)->make_slot(0));
              }};
    }
  }
  throw std::invalid_argument("unknown algorithm");
}

/// Process p's direct transport on the algorithm's tag, opened anew on each
/// call (a rejoining SMR engine reopens it): what SMR engines and
/// single-shot instances run over, having the network to themselves.
TransportFor direct_transport(World& w) {
  w.transports.resize(w.cfg.n);
  return [&w, tag = net_tag(w.cfg.algo)](ProcessId p) -> core::Transport& {
    w.transports[p - 1] =
        std::make_unique<core::NetTransport>(w.exec, w.network, p, tag);
    return *w.transports[p - 1];
  };
}

/// Single-shot and SMR mode's region namespace: the protocol's base prefix.
std::string base_ns(const char* base) { return base; }

// ---------------------------------------------------------------------------
// Single-shot mode: slot 0 of the same wiring, one instance per process
// over its direct transport, each correct process proposing its input.
// ---------------------------------------------------------------------------

RunReport run_single_shot(World& w, const ClusterConfig& config) {
  const auto all = all_processes(config.n);
  const SingleShotFactory make =
      wire(w, direct_transport(w), base_ns, /*byz_target=*/true).single_shot;
  // Every instance exists before any starts; then, in process order, each
  // non-Byzantine one starts and proposes.
  for (ProcessId p : all) w.single_shots.push_back(make(p));
  for (ProcessId p : all) {
    if (config.faults.is_byzantine(p)) continue;
    SingleShot& instance = *w.single_shots[p - 1];
    instance.start();
    w.exec.spawn(instance.propose(&w.reports[p - 1],
                                  util::to_bytes(input_of(config, p))));
  }
  // ---- Byzantine strategies. ----
  spawn_byzantine(w, config);

  // ---- Run. ----
  w.exec.run_until([&] { return w.done(); }, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.processes = w.reports;

  std::set<std::string> inputs;
  for (ProcessId p : all) inputs.insert(input_of(config, p));

  std::optional<std::string> decided;
  for (ProcessId p : all) {
    const auto& row = w.reports[p - 1];
    if (row.byzantine) continue;
    if (row.decided) {
      report.first_decision_delay =
          std::min(report.first_decision_delay, row.decided_at);
      report.first_correct_decision_delay =
          std::min(report.first_correct_decision_delay, row.decided_at);
      if (decided.has_value() && *decided != row.decision) {
        report.agreement = false;
      }
      decided = decided.has_value() ? decided : row.decision;
      if (!inputs.contains(row.decision)) report.validity = false;
    } else if (w.correct(p)) {
      report.termination = false;
    }
  }
  report.decided_value = decided;

  fill_resource_counters(report, w);
  for (const auto& s : w.single_shots) {
    add_tsend_stats(report, s->tsend_stats());
  }
  finish_tsend_stats(report);
  return report;
}


// ---------------------------------------------------------------------------
// Replicated modes: one or more consensus groups, each an smr::Replica per
// correct process over the algorithm's ConsensusEngine adapter. SMR mode is
// a single group over direct transports and un-prefixed regions; KV mode
// runs one group per data shard (plus the config group under
// reconfiguration) over TransportMux subs and "g<i>/" / "cfg/" regions.
// ---------------------------------------------------------------------------

/// The smr::ReplicaConfig every replicated group starts from: the shared
/// log knobs, plus all-propose mode where replicas cannot rely on a leader.
smr::ReplicaConfig replica_config(const ClusterConfig& config,
                                  bool all_propose) {
  smr::ReplicaConfig rc;
  rc.batch = config.log.batch;
  rc.log.window = config.log.window;
  rc.log.all_propose = all_propose;
  rc.log.snapshot_interval = config.log.snapshot_interval;
  rc.tune.enabled = config.log.auto_tune;  // Replica forces off if all_propose
  rc.tune.max_window = config.log.max_window;
  rc.tune.max_batch = config.log.max_batch;
  return rc;
}

/// Build the group's engine on every process (Byzantine ones too: their
/// engines exist but never start).
void build_engines(World& w, Group& g) {
  g.members.resize(w.cfg.n);
  for (ProcessId p : all_processes(w.cfg.n)) {
    g.members[p - 1].engine = g.make_engine(p);
  }
}

/// One machine per process and a replica over it on every correct one.
void build_replicas(World& w, Group& g) {
  for (ProcessId p : all_processes(w.cfg.n)) {
    Member& m = g.members[p - 1];
    m.machine = g.make_machine();
    if (w.cfg.faults.is_byzantine(p)) continue;
    m.replica = std::make_unique<smr::Replica>(w.exec, *m.engine, *w.omega,
                                               *m.machine, g.rc);
  }
}

/// KV mode's per-process base: one NetTransport + mux; group g's engines
/// run over sub(g).
void open_mux(World& w, ProcessId p) {
  w.transports[p - 1] = std::make_unique<core::NetTransport>(
      w.exec, w.network, p, /*tag=*/100);
  w.muxes[p - 1] =
      std::make_unique<core::TransportMux>(w.exec, *w.transports[p - 1]);
}

/// Rebuild process `p` as a fresh incarnation in every group: quarantine the
/// crashed objects (live coroutine frames still reference them), free the
/// network inbox, and start recovering replicas over a brand-new transport
/// (plus mux, in KV mode) and engines, rebound into the router / migrator so
/// client replies flow from the new incarnation. Volatile state is wiped by
/// construction — everything the new incarnation knows arrives through
/// snapshot + log catch-up from its peers.
void rejoin_process(World& w, ProcessId p) {
  for (Group& g : w.groups) {
    if (smr::Replica* r = g.replica(p)) r->log().halt();
    if (g.rebind) g.rebind(p, nullptr, nullptr);
  }
  w.transports[p - 1]->sever();
  for (Group& g : w.groups) {
    w.retired_members.push_back(std::move(g.members[p - 1]));
  }
  const bool muxed = !w.muxes.empty();
  if (muxed) w.retired_muxes.push_back(std::move(w.muxes[p - 1]));
  w.retired_transports.push_back(std::move(w.transports[p - 1]));

  *w.alive[p - 1] = true;
  w.network.revive(p);
  // SMR engines reopen their direct transport inside make_engine.
  if (muxed) open_mux(w, p);
  for (Group& g : w.groups) {
    Member& m = g.members[p - 1];
    m.engine = g.make_engine(p);
    m.machine = g.make_machine();
    smr::ReplicaConfig rejoin_rc = g.rc;
    rejoin_rc.log.recover = true;
    m.replica = std::make_unique<smr::Replica>(w.exec, *m.engine, *w.omega,
                                               *m.machine, rejoin_rc);
  }
  if (muxed) w.muxes[p - 1]->start();
  for (Group& g : w.groups) {
    Member& m = g.members[p - 1];
    m.engine->start();
    m.replica->start();
    if (g.rebind) g.rebind(p, m.replica.get(), m.machine.get());
  }
  // Leadership may now revert to this (lower-id) process; wake the waiters.
  w.omega->poke();
}

/// Crash-and-rejoin: rebuild each rejoining process at its scheduled time.
/// A fresh incarnation submits nothing of its own — SMR commands its
/// predecessor queued but never got decided are simply lost, which validity
/// tolerates (applied ⊆ submitted); KV client commands are covered by the
/// router's retry loop + session dedup.
void schedule_rejoins(World& w) {
  for (const auto& [p, t] : w.cfg.faults.process_rejoins) {
    w.exec.call_at(t, [&w, p = p] { rejoin_process(w, p); });
  }
}

/// Leader-mode quiescence of one group: the current leader is correct and
/// idle (queue drained, everything it proposed applied), and every correct
/// replica reached its log length.
bool leader_settled(const World& w, const Group& g) {
  const ProcessId leader = w.omega->leader();
  if (leader < 1 || leader > w.cfg.n || !w.correct(leader)) return false;
  const smr::Replica& lr = *g.replica(leader);
  if (!lr.idle()) return false;
  const Slot len = lr.log().applied_len();
  for (ProcessId p = 1; p <= static_cast<ProcessId>(w.cfg.n); ++p) {
    if (w.correct(p) && g.replica(p)->log().applied_len() != len) return false;
  }
  return true;
}

/// The per-replica report fold both replicated modes share, over every
/// correct replica of every folded group: fast slots, commit and queue-wait
/// latencies, window occupancy, recovery counters, the tuner outcome and
/// the first decision time. Slot accounting stays with each mode.
struct ReplicaFold {
  std::vector<sim::Time> commit_latencies;
  std::vector<sim::Time> queue_waits;
  std::uint64_t tuner_best_obs = 0;  // the busiest tuner = a leader's

  void add(RunReport& report, const Group& g, ProcessId p) {
    const smr::Replica& replica = *g.replica(p);
    const smr::RunStats stats = replica.stats();
    // fast-path is a proposer-local property (learners decide via DECIDE),
    // so take the max rather than the last replica's count.
    report.fast_slots = std::max(report.fast_slots, stats.fast_slots);
    const std::vector<sim::Time> won = smr::won_slot_latencies(replica.log());
    commit_latencies.insert(commit_latencies.end(), won.begin(), won.end());
    const std::vector<sim::Time> qw = smr::queue_wait_latencies(replica.log());
    queue_waits.insert(queue_waits.end(), qw.begin(), qw.end());
    report.occupancy_slots += stats.occupancy_slots;
    report.occupancy_limit += stats.occupancy_limit;
    add_recovery_counters(report, stats);
    if (replica.tuner().enabled() && replica.tuner().observations() > 0) {
      report.tuner_epochs += stats.tuner_epochs;
      if (replica.tuner().observations() > tuner_best_obs) {
        tuner_best_obs = replica.tuner().observations();
        report.tuner_window = stats.tuner_window;
        report.tuner_batch = stats.tuner_batch;
      }
      if (!report.tuner_trajectory.empty()) report.tuner_trajectory += '|';
      report.tuner_trajectory +=
          g.label + "p" + std::to_string(p) + ":" + stats.tuner_trajectory;
    }
    // Slot 0's record only survives on replicas that never compacted it
    // away (records_base() > 0 means the first decision time was folded).
    const auto& records = replica.log().records();
    if (replica.log().applied_len() > 0 &&
        replica.log().records_base() == 0 && !records.empty()) {
      report.first_decision_delay =
          std::min(report.first_decision_delay, records[0].decided_at);
      report.first_correct_decision_delay = std::min(
          report.first_correct_decision_delay, records[0].decided_at);
    }
  }

  /// Percentiles, occupancy, retired incarnations, resource and t-send
  /// counters — after the mode's own slot accounting is in `report`.
  void finish(RunReport& report, World& w) {
    std::sort(commit_latencies.begin(), commit_latencies.end());
    report.commit_p50 = smr::latency_percentile(commit_latencies, 50);
    report.commit_p99 = smr::latency_percentile(commit_latencies, 99);
    report.commit_p999 = smr::latency_percentile(commit_latencies, 99.9);
    std::sort(queue_waits.begin(), queue_waits.end());
    report.queue_wait_p50 = smr::latency_percentile(queue_waits, 50);
    report.queue_wait_p99 = smr::latency_percentile(queue_waits, 99);
    if (report.occupancy_limit > 0) {
      report.window_occupancy = static_cast<double>(report.occupancy_slots) /
                                static_cast<double>(report.occupancy_limit);
    }
    // Retired incarnations did real recovery work too (a first rejoiner may
    // itself later serve catch-up before a second crash) — fold their
    // counters in so the report covers every incarnation, per the RunReport
    // contract.
    for (const Member& retired : w.retired_members) {
      if (retired.replica != nullptr) {
        add_recovery_counters(report, retired.replica->stats());
      }
    }
    fill_resource_counters(report, w);
    if (report.slots_applied > 0) {
      report.events_per_slot = static_cast<double>(report.events) /
                               static_cast<double>(report.slots_applied);
    }
    if (w.cfg.algo == Algorithm::kFastRobust) {
      for (const Group& g : w.groups) {
        for (const Member& m : g.members) {
          add_tsend_stats(report,
                          static_cast<const core::FastRobustEngine&>(*m.engine)
                              .tsend_stats());
        }
      }
      finish_tsend_stats(report);
    }
  }
};

// ---------------------------------------------------------------------------
// SMR mode: one group of RecordingSm replicas, each correct one submitting
// its own `commands`.
// ---------------------------------------------------------------------------

RunReport run_smr(World& w, const ClusterConfig& config) {
  const std::size_t n = config.n;
  const auto all = all_processes(n);

  // ---- One engine per process, each over its own direct transport. ----
  Group& group = w.groups.emplace_back();
  group.make_engine =
      wire(w, direct_transport(w), base_ns, /*byz_target=*/true).engine;
  group.make_machine = [] { return std::make_unique<RecordingSm>(); };
  build_engines(w, group);

  // ---- Replicas + workload. ----
  // Byzantine engines route everything through memories, where passive
  // replicas could never be heard — every correct replica proposes each slot.
  const bool all_propose = (config.algo == Algorithm::kFastRobust);
  group.rc = replica_config(config, all_propose);
  // Same clamp rule as smr::Replica (batch=0 would divide by zero here).
  const std::size_t batch = std::max<std::size_t>(1, config.log.batch);
  const Slot fixed_slots = (config.smr.commands + batch - 1) / batch;
  if (all_propose) group.rc.log.fixed_slots = fixed_slots;
  build_replicas(w, group);
  std::set<std::string> submitted;  // what SMR validity checks applies against
  for (ProcessId p : all) {
    if (config.faults.is_byzantine(p)) continue;
    smr::Replica& replica = *group.replica(p);
    group.members[p - 1].engine->start();
    replica.start();
    for (std::size_t i = 0; i < config.smr.commands; ++i) {
      const std::string& command = *submitted.insert(smr_command(p, i)).first;
      replica.submit(util::to_bytes(command));
    }
    replica.flush();
  }

  spawn_byzantine(w, config);
  schedule_rejoins(w);

  // ---- Run to quiescence. ----
  // All-propose mode: every correct replica applied all fixed slots.
  const auto done = [&]() -> bool {
    if (!all_propose) return leader_settled(w, group);
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      if (group.replica(p)->log().applied_len() != fixed_slots) return false;
    }
    return true;
  };
  w.exec.run_until(done, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.termination = done();

  ReplicaFold fold;
  const std::vector<std::string>* reference_log = nullptr;
  for (ProcessId p : all) {
    auto& row = w.reports[p - 1];
    const smr::Replica* replica = group.replica(p);
    if (replica != nullptr) {
      const smr::RunStats stats = replica->stats();
      const std::vector<std::string>& log = group.machine<RecordingSm>(p).log;
      row.log = log;
      row.decided = stats.slots_applied > 0;
      row.decided_at = stats.last_apply_at;
      row.fast_path = stats.slots_applied > 0 &&
                      stats.fast_slots + stats.noop_slots >= stats.slots_applied;
      std::string joined;
      for (const auto& c : row.log) {
        if (!joined.empty()) joined += '|';
        joined += c;
      }
      row.decision = std::move(joined);

      if (w.correct(p)) {
        // Slot accounting: the longest correct log. At equal length prefer
        // the fuller command count: a rejoined replica's log-derived stats
        // exclude slots a snapshot install covered, so a survivor's
        // accounting is the exact one.
        if (stats.slots_applied > report.slots_applied ||
            (stats.slots_applied == report.slots_applied &&
             stats.commands_applied > report.commands_applied)) {
          report.slots_applied = stats.slots_applied;
          report.commands_applied = stats.commands_applied;
          report.noop_slots = stats.noop_slots;
        }
        fold.add(report, group, p);
        // Invariants: identical logs (SMR agreement), applied ⊆ submitted
        // (SMR validity).
        if (reference_log == nullptr) {
          reference_log = &log;
        } else if (*reference_log != log) {
          report.agreement = false;
        }
        for (const auto& c : log) {
          if (!submitted.contains(c)) report.validity = false;
        }
      }
    }
    report.processes.push_back(row);
  }
  if (report.slots_applied > 0 && reference_log != nullptr &&
      !reference_log->empty()) {
    report.decided_value = reference_log->front();
  }
  fold.finish(report, w);
  return report;
}

// ---------------------------------------------------------------------------
// KV mode: `shards` groups of kv::StateMachine replicas — message traffic on
// a TransportMux sub per group (each with its own SlotTransportHub slot
// namespace inside the engine), memory traffic under "g<shard>/"-prefixed
// slot regions — with a kv::Router providing exactly-once client sessions
// and a kv::Workload driving closed-loop clients.
// ---------------------------------------------------------------------------

/// The table sink every config-group machine gets: offer to the cluster
/// view (first replica to apply an epoch wins) and record the accepted
/// flip's virtual time for the report fingerprint.
reconfig::TableMachine::TableSink table_sink_for(World& w) {
  return [&w](const kv::ShardTable& t, const reconfig::ConfigChange& c) {
    const std::uint64_t before = w.table_view->epoch();
    w.table_view->offer(t, c);
    if (w.table_view->epoch() != before) {
      w.reconfig_flips.push_back(w.exec.now());
    }
  };
}

/// Drive the scheduled reconfiguration plan, serially: each action waits
/// for its time, then proposes and fully migrates before the next starts.
sim::Task<void> run_reconfig_plan(World* w, std::vector<ReconfigAction> plan) {
  for (const ReconfigAction& a : plan) {
    if (w->exec.now() < a.at) co_await w->exec.sleep(a.at - w->exec.now());
    (void)co_await w->migrator->run_change(a.kind, a.src, a.dst);
  }
  w->reconfig_plan_done = true;
}

/// The process's mux sub for `tag` — a KV group's engine transport.
TransportFor mux_sub(World& w, std::uint8_t tag) {
  return [&w, tag](ProcessId p) -> core::Transport& {
    return w.muxes[p - 1]->sub(tag);
  };
}

RunReport run_kv(World& w, const ClusterConfig& config) {
  const std::size_t n = config.n;
  const auto all = all_processes(n);
  const std::size_t shards = std::max<std::size_t>(1, config.kv.shards);
  const bool fan_out = (config.algo == Algorithm::kFastRobust);
  const bool reconfig = !config.kv.reconfig.empty();
  // Under reconfiguration, build every group any scheduled change can
  // activate: split targets exist (idle) from the start, plus one extra
  // consensus group — the config group — on the next mux tag.
  std::size_t groups = shards;
  for (const ReconfigAction& a : config.kv.reconfig) {
    groups = std::max<std::size_t>(
        groups, std::max<std::size_t>(a.src, a.dst) + 1);
  }
  if (groups + (reconfig ? 1 : 0) > 256) {
    throw std::invalid_argument("KV mode: at most 256 groups (1-byte mux tag)");
  }
  if (reconfig && groups > kv::kMaxTableGroups) {
    throw std::invalid_argument("KV mode: reconfig plan exceeds group cap");
  }

  // Replica config: every shard reads the shared log knobs.
  smr::ReplicaConfig rc = replica_config(config, fan_out);
  // Reconfiguration runs serve range-snapshot drains over the control
  // channel; static runs keep the flag off so their event traces are
  // byte-identical to before the subsystem existed.
  rc.log.serve_ranges = reconfig;
  if (fan_out) {
    // The workload is dynamic (client-driven), so there is no slot target to
    // fill with no-ops: replicas wait for fanned-out payloads — which land
    // on every correct queue in the same tick — and fixed_slots is only the
    // hub-sized safety cap.
    rc.log.fixed_slots = Slot{1} << 20;
    rc.log.noop_fillers = false;
  }

  // One base transport + mux per process; group g's engines run over sub(g).
  w.transports.resize(n);
  w.muxes.resize(n);
  for (ProcessId p : all) open_mux(w, p);

  w.groups.resize(groups + (reconfig ? 1 : 0));
  for (std::size_t g = 0; g < groups; ++g) {
    Group& shard = w.groups[g];
    shard.label = "g" + std::to_string(g);
    shard.rc = rc;
    shard.make_engine = wire(
        w, mux_sub(w, static_cast<std::uint8_t>(g)),
        [g](const char* base) { return kv::shard_ns(g, base); },
        /*byz_target=*/g == 0).engine;
    shard.make_machine = [&w, g,
                          reconfig]() -> std::unique_ptr<smr::StateMachine> {
      auto m = std::make_unique<kv::StateMachine>();
      // Under reconfiguration every machine — a rejoiner's too — starts
      // partitioned at the *initial* table: the group's log (or a peer's
      // snapshot) carries it to the current epoch's ownership.
      if (reconfig) {
        m->configure_partition(static_cast<std::uint32_t>(g), w.initial_table);
      }
      return m;
    };
    shard.rebind = [&w, g](ProcessId p, smr::Replica* r, smr::StateMachine* m) {
      w.kv_router->rebind(g, p, r, static_cast<kv::StateMachine*>(m));
    };
    build_engines(w, shard);
  }
  if (reconfig) {
    w.initial_table = kv::ShardTable(shards);
    w.table_view =
        std::make_unique<reconfig::TableView>(w.exec, w.initial_table);
    // Config group: one TableMachine replica per correct process. Config
    // changes are rare and tiny — batch of 1, no range serving, but the
    // same snapshot cadence so rejoiners can catch up the table history.
    Group& cfg = w.groups.back();
    cfg.label = "cfg";
    cfg.rc = rc;
    cfg.rc.batch = 1;
    cfg.rc.log.serve_ranges = false;
    cfg.rc.tune.enabled = false;
    cfg.make_engine = wire(
        w, mux_sub(w, static_cast<std::uint8_t>(groups)),
        [](const char* base) { return kv::config_ns(base); },
        /*byz_target=*/false).engine;
    cfg.make_machine = [&w]() -> std::unique_ptr<smr::StateMachine> {
      auto m = std::make_unique<reconfig::TableMachine>(w.initial_table);
      // A rejoiner's sink re-attaches too: replayed old epochs are dropped
      // by the view, so it installs the table without re-announcing flips.
      m->set_table_sink(table_sink_for(w));
      return m;
    };
    cfg.rebind = [&w](ProcessId p, smr::Replica* r, smr::StateMachine*) {
      w.migrator->rebind_config(p, r);
    };
    build_engines(w, cfg);
  }
  for (Group& g : w.groups) build_replicas(w, g);

  // Router + workload over every shard's replica group.
  std::vector<kv::ShardBackend> backends(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    backends[g].fan_out = fan_out;
    for (ProcessId p : all) {
      backends[g].replicas.push_back(w.groups[g].replica(p));
      backends[g].machines.push_back(
          config.faults.is_byzantine(p)
              ? nullptr
              : &w.groups[g].machine<kv::StateMachine>(p));
    }
  }
  kv::RouterConfig router_cfg;
  router_cfg.retry_timeout = config.kv.retry_timeout;
  router_cfg.adaptive_retry = config.kv.adaptive_retry;
  // Signed-command mode: the router registers every session's client
  // identity in the run's shared keystore and arms verification on every
  // backend machine (client ids live at kClientSignerBase, disjoint from
  // the replica processes registered above).
  router_cfg.keystore = config.kv.sign_commands ? &w.keystore : nullptr;
  w.kv_router = std::make_unique<kv::Router>(
      w.exec, *w.omega, kv::ShardTable(shards), std::move(backends), router_cfg,
      w.table_view.get());
  if (reconfig) {
    std::vector<smr::Replica*> cfg_backend;
    for (ProcessId p : all) cfg_backend.push_back(w.groups.back().replica(p));
    w.migrator = std::make_unique<reconfig::Migrator>(
        w.exec, *w.omega, *w.table_view, std::move(cfg_backend), fan_out,
        *w.kv_router);
  }
  kv::WorkloadConfig wc;
  wc.clients = config.kv.clients;
  wc.ops_per_client = config.kv.ops_per_client;
  wc.mix = config.kv.mix;
  wc.dist = config.kv.dist;
  wc.keys = config.kv.keys;
  wc.seed = config.seed;
  wc.txn_fraction = config.kv.txn_fraction;
  wc.txn_accounts = config.kv.txn_accounts;
  wc.accounts = config.kv.accounts;
  wc.txn_zipf_theta = config.kv.txn_zipf_theta;
  wc.txn_crash_client = config.kv.txn_crash_client;
  wc.txn_crash_txn = config.kv.txn_crash_txn;
  wc.txn_crash_records = config.kv.txn_crash_records;
  wc.txn_crash_pause = config.kv.txn_crash_pause;
  wc.txn_crash_conflict = config.kv.txn_crash_conflict;
  w.kv_workload = std::make_unique<kv::Workload>(w.exec, *w.kv_router, wc);

  for (ProcessId p : all) w.muxes[p - 1]->start();
  for (Group& g : w.groups) {
    for (ProcessId p : all) {
      if (config.faults.is_byzantine(p)) continue;
      g.members[p - 1].engine->start();
      g.replica(p)->start();
    }
  }
  w.kv_workload->start();
  if (reconfig) w.exec.spawn(run_reconfig_plan(&w, config.kv.reconfig));
  spawn_byzantine(w, config);
  schedule_rejoins(w);

  // ---- Run to quiescence: every client answered, every group converged
  // (no queued duplicates left, all correct replicas at one log length). ----
  const auto group_settled = [&](const Group& g) -> bool {
    if (!fan_out) return leader_settled(w, g);
    Slot len = 0;
    bool have_len = false;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const smr::Replica& r = *g.replica(p);
      if (!r.idle()) return false;
      if (!have_len) {
        len = r.log().applied_len();
        have_len = true;
      } else if (r.log().applied_len() != len) {
        return false;
      }
    }
    return true;
  };
  const auto done = [&]() -> bool {
    if (!w.kv_workload->done()) return false;
    if (reconfig && (!w.reconfig_plan_done || !w.migrator->idle())) {
      return false;
    }
    for (const Group& g : w.groups) {
      if (!group_settled(g)) return false;
    }
    return true;
  };
  w.exec.run_until(done, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.termination = done();

  const kv::WorkloadStats& ws = w.kv_workload->stats();
  report.kv_ops = ws.ops;
  report.kv_reads = ws.reads;
  report.kv_writes = ws.puts + ws.dels + ws.cas_ops;
  report.kv_retries = w.kv_router->retries();
  report.kv_ops_per_kdelay = ws.ops_per_kdelay();
  std::vector<sim::Time> op_latencies = ws.latencies;
  std::sort(op_latencies.begin(), op_latencies.end());
  report.kv_op_p50 = smr::latency_percentile(op_latencies, 50);
  report.kv_op_p99 = smr::latency_percentile(op_latencies, 99);
  report.kv_op_p999 = smr::latency_percentile(op_latencies, 99.9);

  // Per-shard rollups + invariants over correct replicas: equal store/session
  // hashes (KV agreement), well-formed commands only and no session running
  // past its client's issued count (KV validity), and — the global
  // exactly-once check — effective applied ops summing to exactly the
  // completed client ops, duplicates excluded.
  ReplicaFold fold;
  std::uint64_t combined_hash = util::kFnvOffset;
  std::uint64_t effective_total = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const Group& shard = w.groups[g];
    const kv::StateMachine* reference = nullptr;
    const smr::Replica* ref_replica = nullptr;
    bool ref_rejoined = false;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const kv::StateMachine& sm = shard.machine<kv::StateMachine>(p);
      const smr::Replica& replica = *shard.replica(p);
      // Slot accounting reference: prefer a replica that never rejoined — a
      // rejoiner's log-derived stats exclude slots its snapshot install
      // covered, while a survivor's fold is exact.
      const bool rejoined = w.rejoin_at_[p - 1] != sim::kTimeInfinity;
      if (ref_replica == nullptr || (ref_rejoined && !rejoined)) {
        ref_replica = &replica;
        ref_rejoined = rejoined;
      }
      if (reference == nullptr) {
        reference = &sm;
        report.kv_shard_ops.push_back(sm.ops_applied());
        report.kv_duplicates += sm.duplicates_suppressed();
        report.kv_malformed += sm.malformed();
        report.kv_forged += sm.forged();
        effective_total += sm.ops_applied();
        report.kv_txn_conflicts += sm.txn_conflicts();
        report.kv_locks_held += sm.locks_held();
        // Balance conservation: every committed transfer moves value
        // between accounts without creating or destroying any, so the
        // accounts' sum across all shards must be exactly 0.
        for (const auto& [k, v] : sm.store()) {
          static constexpr char kAcct[] = "acct-";
          if (k.size() >= 5 && std::equal(kAcct, kAcct + 5, k.begin())) {
            // Account bytes are attacker-influenced in unsigned Byzantine
            // runs: parse totally — anything that is not exactly a decimal
            // int64 is a validity failure, never a throw out of the rollup.
            const char* b = reinterpret_cast<const char*>(v.data());
            const char* e = b + v.size();
            std::int64_t bal = 0;
            const std::from_chars_result res = std::from_chars(b, e, bal);
            if (res.ec == std::errc{} && res.ptr == e) {
              report.kv_txn_balance += bal;
            } else {
              report.validity = false;
            }
          }
        }
      } else if (sm.store_hash() != reference->store_hash()) {
        report.agreement = false;
      }
      if (sm.malformed() != 0) report.validity = false;
      fold.add(report, shard, p);
    }
    if (ref_replica != nullptr) {
      // Reference replica's stats drive the aggregate slot accounting (all
      // correct replicas of a shard apply the same log); RunStats folds in
      // compacted slots, so this stays exact after truncation.
      const smr::RunStats ref_stats = ref_replica->stats();
      report.slots_applied += ref_stats.slots_applied;
      report.commands_applied += ref_stats.commands_applied;
      report.noop_slots += ref_stats.noop_slots;
      combined_hash = util::fnv1a_u64(combined_hash, reference->store_hash());
    }
  }
  // Config group rollup + agreement: every correct replica must hold the
  // same table history (state_hash covers table + accept/reject counters);
  // the fingerprint folds it in so reconfig determinism pins the config
  // log too. Static runs have no config group — their hash is unchanged.
  if (reconfig) {
    const reconfig::TableMachine* cfg_ref = nullptr;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const auto& tm = w.groups.back().machine<reconfig::TableMachine>(p);
      if (cfg_ref == nullptr) {
        cfg_ref = &tm;
      } else if (tm.state_hash() != cfg_ref->state_hash()) {
        report.agreement = false;
      }
      if (tm.malformed() != 0) report.validity = false;
    }
    if (cfg_ref != nullptr) {
      combined_hash = util::fnv1a_u64(combined_hash, cfg_ref->state_hash());
    }
    report.reconfig_epoch = w.table_view->epoch();
    report.reconfig_migrations = w.migrator->migrations();
    report.reconfig_keys_moved = w.migrator->keys_moved();
    report.reconfig_proposals = w.migrator->proposals();
    report.reconfig_bounces = w.kv_router->bounces();
    report.reconfig_flip_times = w.reconfig_flips;
  }
  report.kv_store_hash = combined_hash;
  // Exactly-once, globally: every completed client op applied its mutation
  // exactly once, on exactly one shard (only checkable once everything
  // settled — a cut-short run legitimately has uncommitted tails). Admin
  // (seal/install/purge) applies count separately, so this rollup holds
  // across epoch flips and live migrations too.
  if (report.termination && effective_total != ws.ops) {
    report.validity = false;
  }
  // Transaction invariants (checked on every terminated run — both hold
  // trivially without a txn mix): no transaction may leave a lock behind
  // (every 2PC decided), and committed transfers conserve Σ balances.
  report.kv_txns = ws.txns;
  report.kv_txn_commits = ws.txn_commits;
  report.kv_txn_aborts = ws.txn_aborts;
  report.kv_txn_recoveries = ws.txn_recoveries;
  if (report.termination &&
      (report.kv_locks_held != 0 || report.kv_txn_balance != 0)) {
    report.validity = false;
  }
  std::vector<sim::Time> txn_latencies = ws.txn_commit_latencies;
  std::sort(txn_latencies.begin(), txn_latencies.end());
  report.kv_txn_commit_p50 = smr::latency_percentile(txn_latencies, 50);
  report.kv_txn_commit_p999 = smr::latency_percentile(txn_latencies, 99.9);

  // Per-process rows: one row per process, its per-group applied lengths +
  // store hashes joined — the determinism fingerprint for KV runs.
  for (ProcessId p : all) {
    auto& row = w.reports[p - 1];
    if (!row.byzantine) {
      std::ostringstream os;
      sim::Time last_apply = 0;
      bool any = false;
      for (std::size_t g = 0; g < w.groups.size(); ++g) {
        const Group& group = w.groups[g];
        const smr::RunStats stats = group.replica(p)->stats();
        const bool shard = g < groups;
        if (shard && stats.slots_applied > 0) any = true;
        last_apply = std::max(last_apply, stats.last_apply_at);
        os << (g > 0 ? "|" : "") << group.label
           << ":slots=" << stats.slots_applied << ",h=" << std::hex
           << (shard ? group.machine<kv::StateMachine>(p).store_hash()
                     : group.machine<reconfig::TableMachine>(p).state_hash())
           << std::dec;
      }
      row.decided = any;
      row.decided_at = last_apply;
      row.decision = os.str();
    }
    report.processes.push_back(row);
  }
  if (report.kv_ops > 0) {
    report.decided_value = "kv:" + std::to_string(report.kv_store_hash);
  }
  fold.finish(report, w);
  return report;
}

}  // namespace

RunReport run_cluster(const ClusterConfig& config) {
  if ((config.smr.enabled || config.kv.enabled) &&
      config.algo == Algorithm::kRobustBackup) {
    throw std::invalid_argument(
        "SMR/KV mode: RobustBackup has no ConsensusEngine adapter (use "
        "FastRobust, whose backup path is RobustBackup(Paxos))");
  }
  check_fault_ids(config);
  check_rejoin_support(config);
  check_byzantine_targets(config);
  World w(config);
  if (config.kv.enabled) return run_kv(w, config);
  if (config.smr.enabled) return run_smr(w, config);
  return run_single_shot(w, config);
}

}  // namespace mnm::harness

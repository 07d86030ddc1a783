// Stack assembly, load generation and output checks for one episode.
//
// Each stack is built by hand from public constructors, the way
// examples/kv_store.cpp does, with a probe in every seam (probes.hpp).
// Faults are injected from outside through public calls only: the crashed
// process's ProcessView alive flag, net::Network::crash and Omega::poke.

#include "episode.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/omega.hpp"
#include "src/core/transport_mux.hpp"
#include "src/harness/process_view.hpp"
#include "src/kv/router.hpp"
#include "src/kv/state_machine.hpp"
#include "src/kv/workload.hpp"
#include "src/net/network.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/replica.hpp"
#include "src/txn/coordinator.hpp"
#include "src/verbs/verbs.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything one episode owns. The executor is declared first, so it is
/// destroyed last; it destroys the coroutine frames still parked in it
/// without resuming them, as harness/cluster.cpp's World does.
struct World {
  World(const Spec& spec, std::uint64_t seed, Recorder& rec)
      : keystore(seed ^ 0x5157ULL), net(exec, spec.n), rec(&rec) {}

  sim::Executor exec;
  crypto::KeyStore keystore;
  net::Network net;
  Recorder* rec;
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<verbs::VerbsMemory>> verbs_mems;
  std::vector<std::unique_ptr<MemProbe>> mem_probes;
  std::vector<std::shared_ptr<bool>> alive;  // index p - 1
  std::vector<std::vector<std::unique_ptr<harness::ProcessView>>> views;
  std::vector<std::vector<mem::MemoryIface*>> memories_of;  // index p - 1
  std::unique_ptr<core::Omega> omega;
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<NetProbe>> net_probes;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;
  // [shard][p - 1]
  std::vector<std::vector<std::unique_ptr<core::ConsensusEngine>>> engines;
  std::vector<std::vector<std::unique_ptr<EngineProbe>>> engine_probes;
  std::vector<std::vector<std::unique_ptr<kv::StateMachine>>> machines;
  std::vector<std::vector<std::unique_ptr<ApplyProbe>>> apply_probes;
  std::vector<std::vector<std::unique_ptr<smr::Replica>>> replicas;
  std::unique_ptr<kv::Router> router;
  std::unique_ptr<txn::Coordinator> coordinator;

  bool correct(ProcessId p) const { return *alive[p - 1]; }
};

/// Build the memories, transports, engines, replicas and router of `spec`.
void build_stack(World& w, const Spec& spec, std::uint64_t seed) {
  const std::size_t n = spec.n;
  const auto all = all_processes(n);
  sim::Rng rng(seed);

  for (std::size_t i = 0; i < spec.m; ++i) {
    const MemoryId id = static_cast<MemoryId>(i + 1);
    mem::MemoryIface* backing = nullptr;
    if (spec.stack == Spec::Stack::kPmpVerbs) {
      w.verbs_mems.push_back(std::make_unique<verbs::VerbsMemory>(
          w.exec, std::make_unique<verbs::RdmaDevice>(w.exec, id, rng.next()),
          all));
      backing = w.verbs_mems.back().get();
    } else {
      w.mems.push_back(std::make_unique<mem::Memory>(w.exec, id));
      backing = w.mems.back().get();
    }
    w.mem_probes.push_back(std::make_unique<MemProbe>(w.exec, *backing, *w.rec));
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.alive.push_back(std::make_shared<bool>(true));
    std::vector<std::unique_ptr<harness::ProcessView>> vs;
    std::vector<mem::MemoryIface*> raw;
    for (auto& probe : w.mem_probes) {
      vs.push_back(
          std::make_unique<harness::ProcessView>(w.exec, *probe, w.alive.back()));
      raw.push_back(vs.back().get());
    }
    w.views.push_back(std::move(vs));
    w.memories_of.push_back(std::move(raw));
  }
  // Ω: the lowest-id live process; crashes poke it.
  w.omega = std::make_unique<core::Omega>(
      w.exec,
      [&w](sim::Time) -> ProcessId {
        for (ProcessId p = 1; p <= w.alive.size(); ++p) {
          if (*w.alive[p - 1]) return p;
        }
        return kLeaderP1;
      },
      /*poke_complete=*/true);
  for (ProcessId p : all) {
    w.transports.push_back(
        std::make_unique<core::NetTransport>(w.exec, w.net, p, /*tag=*/100));
    w.net_probes.push_back(
        std::make_unique<NetProbe>(*w.transports.back(), *w.rec));
    w.muxes.push_back(
        std::make_unique<core::TransportMux>(w.exec, *w.net_probes.back()));
  }

  std::vector<crypto::Signer> signers;
  for (ProcessId p : all) signers.push_back(w.keystore.register_process(p));

  w.engines.resize(spec.shards);
  w.engine_probes.resize(spec.shards);
  w.machines.resize(spec.shards);
  w.apply_probes.resize(spec.shards);
  w.replicas.resize(spec.shards);
  smr::ReplicaConfig rc;
  rc.batch = spec.batch;
  const bool fan_out = spec.stack == Spec::Stack::kFastRobust;
  if (fan_out) {
    // Client-driven all-propose log: replicas wait for fanned-out payloads
    // instead of proposing no-op fillers; fixed_slots is only a cap.
    rc.log.all_propose = true;
    rc.log.fixed_slots = Slot{1} << 20;
    rc.log.noop_fillers = false;
  }
  std::vector<kv::ShardBackend> backends(spec.shards);
  for (std::size_t g = 0; g < spec.shards; ++g) {
    const auto tag = static_cast<std::uint8_t>(g);
    switch (spec.stack) {
      case Spec::Stack::kPmpVerbs: {
        const std::string ns = kv::shard_ns(g, "pmp");
        auto pool = std::make_shared<core::SlotRegions<RegionId>>(
            [&w, n, ns](Slot s) {
              RegionId region = 0;
              for (auto& vm : w.verbs_mems) {
                region = core::make_pmp_region(*vm, n, kLeaderP1,
                                               core::slot_ns(s, ns));
              }
              return region;
            });
        core::PmpConfig pc;
        pc.n = n;
        for (ProcessId p : all) {
          w.engines[g].push_back(std::make_unique<core::PmpEngine>(
              w.exec, w.memories_of[p - 1], w.muxes[p - 1]->sub(tag),
              *w.omega, pool, pc, ns));
        }
        break;
      }
      case Spec::Stack::kFastRobust: {
        const std::string cq_ns = kv::shard_ns(g, "cq");
        const std::string neb_ns = kv::shard_ns(g, "neb");
        auto pool =
            std::make_shared<core::SlotRegions<core::FastRobustSlotRegions>>(
                [&w, n, cq_ns, neb_ns](Slot s) {
                  core::FastRobustSlotRegions out;
                  for (auto& m : w.mems) {
                    out.cq = core::make_cq_regions(*m, n, kLeaderP1,
                                                   core::slot_ns(s, cq_ns));
                    out.neb =
                        core::make_neb_regions(*m, n, core::slot_ns(s, neb_ns));
                  }
                  return out;
                });
        core::FastRobustConfig fc;
        fc.n = n;
        fc.f = (n - 1) / 2;
        fc.cheap.n = n;
        fc.neb.n = n;
        fc.paxos.n = n;
        fc.paxos.round_timeout = 150 * n;  // the backup runs over NEB
        fc.paxos.retry_backoff = 40;
        for (ProcessId p : all) {
          w.engines[g].push_back(std::make_unique<core::FastRobustEngine>(
              w.exec, w.memories_of[p - 1], pool, w.keystore, signers[p - 1],
              *w.omega, fc, cq_ns, neb_ns));
        }
        break;
      }
      case Spec::Stack::kFastPaxos: {
        core::PaxosConfig pc;
        pc.n = n;
        pc.skip_phase1_for_p1 = true;
        for (ProcessId p : all) {
          w.engines[g].push_back(std::make_unique<core::PaxosEngine>(
              w.exec, w.muxes[p - 1]->sub(tag), *w.omega, pc));
        }
        break;
      }
    }
    backends[g].fan_out = fan_out;
    for (ProcessId p : all) {
      w.engine_probes[g].push_back(std::make_unique<EngineProbe>(
          w.exec, *w.engines[g][p - 1], g, *w.rec));
      w.machines[g].push_back(std::make_unique<kv::StateMachine>());
      w.apply_probes[g].push_back(std::make_unique<ApplyProbe>(
          w.exec, *w.machines[g].back(), p, *w.rec));
      w.replicas[g].push_back(std::make_unique<smr::Replica>(
          w.exec, *w.engine_probes[g].back(), *w.omega,
          *w.apply_probes[g].back(), rc));
      backends[g].replicas.push_back(w.replicas[g].back().get());
      backends[g].machines.push_back(w.machines[g].back().get());
    }
  }
  kv::RouterConfig router_cfg;
  router_cfg.keystore = spec.signed_commands ? &w.keystore : nullptr;
  w.router = std::make_unique<kv::Router>(w.exec, *w.omega,
                                          kv::ShardMap(spec.shards),
                                          std::move(backends), router_cfg);
  w.coordinator = std::make_unique<txn::Coordinator>(*w.router);
}

void start_stack(World& w) {
  for (auto& mux : w.muxes) mux->start();
  for (std::size_t g = 0; g < w.engines.size(); ++g) {
    for (std::size_t i = 0; i < w.engines[g].size(); ++i) {
      w.engine_probes[g][i]->start();
      w.replicas[g][i]->start();
    }
  }
}

/// Fixed-width names and values: every op of a kind carries the same
/// number of bytes, whatever its key, so no seed does more byte work.
std::string key_name(const char* space, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%05zu", space, i);
  return buf;
}

/// The load: generator state, client loops and what the clients saw.
struct Load {
  Load(World& w, const Spec& spec, std::uint64_t seed)
      : w(&w),
        spec(&spec),
        rng(seed ^ 0xB0A7ULL),
        keys(kKeys, spec.zipf_theta > 0 ? spec.zipf_theta : 0.99),
        accounts(kAccounts, kAccountTheta),
        freed(w.exec) {}

  struct Client {
    kv::ClientId id = 0;
    sim::Rng rng{0};
    std::uint64_t txns = 0;
  };

  World* w;
  const Spec* spec;
  sim::Rng rng;
  kv::ZipfGenerator keys;
  kv::ZipfGenerator accounts;
  std::vector<Client> clients;
  std::vector<kv::ClientId> free_sessions;  // open loop
  sim::VersionSignal freed;
  std::vector<OpRecord> ops;
  std::size_t finished_clients = 0;
  std::size_t done_requests = 0;
  sim::Time crash_at = sim::kTimeInfinity;
  sim::Time last_reply = 0;
  std::int64_t first_due_q = -1;
  std::string bad_reply;  // first invalid reply seen, if any

  // Transfer outcome counters and every applied op the clients caused
  // (plain ops, transfer reads, fresh txn records) — the exactly-once sum.
  std::uint64_t txns = 0, txn_aborts = 0, txn_records = 0;
  std::uint64_t txns_started = 0;
  std::uint64_t applied_expected = 0;
  std::vector<std::int64_t> txn_latency_q;  // committed transfers

  std::size_t next_key(sim::Rng& r) {
    return spec->zipf_theta > 0 ? keys.next(r) : r.below(kKeys);
  }

  kv::Command next_op(sim::Rng& r, kv::ClientId client, std::uint64_t n) {
    kv::Command cmd;
    const std::size_t k = next_key(r);
    cmd.key = util::to_bytes(key_name("key-", k));
    if (r.unit() < spec->read_fraction) {
      cmd.op = kv::Op::kGet;
    } else {
      // The value names its key, so a read can be checked against it.
      cmd.op = kv::Op::kPut;
      char buf[48];
      std::snprintf(buf, sizeof buf, "k%05zu:%05llu:%06llu", k,
                    static_cast<unsigned long long>(client),
                    static_cast<unsigned long long>(n));
      cmd.value = util::to_bytes(buf);
    }
    return cmd;
  }

  void check_reply(const kv::Command& cmd, const kv::Reply& reply) {
    if (!bad_reply.empty()) return;
    if (cmd.op == kv::Op::kPut && reply.status != kv::Status::kOk) {
      bad_reply = "PUT answered with status " +
                  std::to_string(static_cast<int>(reply.status));
    }
    if (cmd.op == kv::Op::kGet) {
      if (reply.status == kv::Status::kNotFound) return;
      if (reply.status != kv::Status::kOk) {
        bad_reply = "GET answered with status " +
                    std::to_string(static_cast<int>(reply.status));
        return;
      }
      // Plain keys hold "k<i>:..." written by a PUT to key-<i>; accounts
      // hold a decimal balance.
      const std::string key = util::to_string(cmd.key);
      const std::string val = util::to_string(reply.value);
      if (key.rfind("key-", 0) == 0) {
        if (val.rfind("k" + key.substr(4) + ":", 0) != 0) {
          bad_reply = "GET " + key + " read " + val;
        }
      } else {
        std::int64_t bal = 0;
        const auto res =
            std::from_chars(val.data(), val.data() + val.size(), bal);
        if (res.ec != std::errc{} || res.ptr != val.data() + val.size()) {
          bad_reply = "GET " + key + " read " + val;
        }
      }
    }
  }

  /// One plain op through the router, recorded from its due time.
  static sim::Task<kv::Reply> plain_op(Load* self, kv::ClientId client,
                                       kv::Command cmd, std::int64_t due_q,
                                       bool recorded) {
    World& w = *self->w;
    OpRecord rec;
    rec.client = client;
    rec.seq = w.router->next_seq(client) + 1;
    rec.shard = w.router->shard_map().shard_of(cmd.key);
    rec.due_q = due_q;
    rec.issued = w.exec.now();
    const std::size_t idx = self->ops.size();
    if (recorded) self->ops.push_back(rec);
    const kv::Command sent = cmd;
    const kv::Reply reply = co_await w.router->execute(client, std::move(cmd));
    ++self->applied_expected;
    self->last_reply = w.exec.now();
    self->check_reply(sent, reply);
    if (recorded) {
      self->ops[idx].replied = w.exec.now();
      self->ops[idx].done = true;
    }
    co_return reply;
  }

  static std::int64_t parse_balance(const Bytes& raw) {
    std::int64_t v = 0;
    if (!raw.empty()) {
      std::from_chars(reinterpret_cast<const char*>(raw.data()),
                      reinterpret_cast<const char*>(raw.data()) + raw.size(),
                      v);
    }
    return v;
  }

  /// Read two accounts, then move a random amount between them through
  /// 2PC with optimistic guards on the bytes read.
  static sim::Task<void> transfer(Load* self, Client* c, std::int64_t due_q) {
    World& w = *self->w;
    ++self->txns_started;
    const txn::TxnId id = (static_cast<txn::TxnId>(c->id) << 24) | ++c->txns;
    std::size_t acct[2] = {self->accounts.next(c->rng), 0};
    do {
      acct[1] = self->accounts.next(c->rng);
    } while (acct[1] == acct[0]);
    const std::int64_t amount = 1 + static_cast<std::int64_t>(c->rng.below(100));
    std::vector<txn::Write> writes(2);
    for (int i = 0; i < 2; ++i) {
      kv::Command get;
      get.op = kv::Op::kGet;
      get.key = util::to_bytes(key_name("acct-", acct[i]));
      const kv::Reply r = co_await plain_op(
          self, c->id, get, static_cast<std::int64_t>(w.exec.now()) * kQ,
          /*recorded=*/false);
      writes[i].kind = txn::WriteKind::kPut;
      writes[i].key = get.key;
      writes[i].value = util::to_bytes(std::to_string(
          parse_balance(r.value) + (i == 0 ? -amount : amount)));
      writes[i].has_expected = true;
      writes[i].expected = r.value;
    }
    const txn::TxnReport rep =
        co_await w.coordinator->run(c->id, id, std::move(writes));
    self->txn_records += rep.records;
    self->applied_expected += rep.fresh_records;
    ++self->txns;
    self->last_reply = w.exec.now();
    if (rep.outcome == txn::Outcome::kCommitted) {
      self->txn_latency_q.push_back(static_cast<std::int64_t>(w.exec.now()) *
                                        kQ -
                                    due_q);
    } else {
      ++self->txn_aborts;
    }
  }

  static sim::Task<void> closed_client(Load* self, std::size_t idx) {
    World& w = *self->w;
    Client& c = self->clients[idx];
    for (std::size_t i = 0; i < self->spec->ops; ++i) {
      // Think time: the next request falls due a random fraction of a
      // delay after the reply, and the simulator issues it on the next
      // tick — every client of a tick still issues together, and the
      // sub-tick wait counts in the op's latency.
      const std::int64_t due_q = static_cast<std::int64_t>(w.exec.now()) * kQ +
                                 1 + static_cast<std::int64_t>(c.rng.below(kQ - 1));
      if (self->first_due_q < 0 || due_q < self->first_due_q) {
        self->first_due_q = due_q;
      }
      co_await w.exec.sleep(1);
      if (self->spec->txn_fraction > 0 &&
          c.rng.unit() < self->spec->txn_fraction) {
        co_await transfer(self, &c, due_q);
        continue;
      }
      kv::Command cmd = self->next_op(c.rng, c.id, i);
      (void)co_await plain_op(self, c.id, std::move(cmd), due_q,
                              /*recorded=*/true);
    }
    ++self->finished_clients;
  }

  struct Request {
    std::int64_t due_q = 0;
    kv::Command cmd;
  };
  std::vector<Request> schedule;

  static sim::Task<void> open_request(Load* self, kv::ClientId session,
                                      std::size_t i) {
    Request& r = self->schedule[i];
    (void)co_await plain_op(self, session, std::move(r.cmd), r.due_q,
                            /*recorded=*/true);
    ++self->done_requests;
    self->free_sessions.push_back(session);
    self->freed.bump();
  }

  /// Open-loop generator: issue each request on the first tick at or after
  /// its due time, on a free session (waiting for one if the pool is dry —
  /// that wait is the generator lag).
  static sim::Task<void> generator(Load* self) {
    World& w = *self->w;
    for (std::size_t i = 0; i < self->schedule.size(); ++i) {
      const std::int64_t due_q = self->schedule[i].due_q;
      const auto tick = static_cast<sim::Time>((due_q + kQ - 1) / kQ);
      if (tick > w.exec.now()) co_await w.exec.sleep(tick - w.exec.now());
      while (true) {
        const std::uint64_t seen = self->freed.version();
        if (!self->free_sessions.empty()) break;
        sim::Select sel(w.exec);
        sel.on(self->freed, seen);
        (void)co_await sel;
      }
      const kv::ClientId session = self->free_sessions.back();
      self->free_sessions.pop_back();
      w.exec.spawn(open_request(self, session, i));
    }
  }

  void start() {
    World& w = *this->w;
    if (spec->open_loop) {
      std::int64_t due_q = 0;
      for (std::size_t i = 0; i < spec->ops; ++i) {
        // Exponential inter-arrival times: a Poisson stream at `rate`.
        due_q += static_cast<std::int64_t>(
            std::llround(-std::log1p(-rng.unit()) / spec->rate * kQ));
        schedule.push_back({due_q, next_op(rng, 0, i)});
      }
      for (std::size_t s = 0; s < spec->clients; ++s) {
        free_sessions.push_back(w.router->register_client());
      }
      std::reverse(free_sessions.begin(), free_sessions.end());
      first_due_q = schedule.front().due_q;
      if (spec->crash_at > 0) {
        crash_at = static_cast<sim::Time>(
            spec->crash_at * static_cast<double>(schedule.back().due_q) / kQ);
        w.exec.call_at(crash_at, [&w] {
          *w.alive[0] = false;
          w.net.crash(kLeaderP1);
          w.omega->poke();
        });
      }
      w.exec.spawn(generator(this));
      return;
    }
    for (std::size_t i = 0; i < spec->clients; ++i) {
      clients.push_back({w.router->register_client(), rng.fork(), 0});
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      w.exec.spawn(closed_client(this, i));
    }
  }

  bool done() const {
    return spec->open_loop ? done_requests == schedule.size()
                           : finished_clients == clients.size();
  }
};

/// Every correct replica of every shard applied the same log length and
/// holds nothing back.
bool settled(World& w, bool fan_out) {
  for (auto& reps : w.replicas) {
    Slot len = 0;
    bool have = false;
    for (ProcessId p = 1; p <= reps.size(); ++p) {
      if (!w.correct(p)) continue;
      const smr::Replica& r = *reps[p - 1];
      if (fan_out && !r.idle()) return false;
      if (!have) {
        len = r.log().applied_len();
        have = true;
      } else if (r.log().applied_len() != len) {
        return false;
      }
    }
    if (!fan_out) {
      const ProcessId leader = w.omega->leader();
      if (!w.correct(leader) || !reps[leader - 1]->idle()) return false;
    }
  }
  return true;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (i * 8));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Replica agreement, exactly-once and the bank invariants, on one
/// correct replica per shard after draining.
void check_outputs(World& w, const Load& load, EpisodeResult& out) {
  std::uint64_t applied = 0, locks = 0;
  std::int64_t balance = 0;
  for (std::size_t g = 0; g < w.machines.size(); ++g) {
    const kv::StateMachine* ref = nullptr;
    for (ProcessId p = 1; p <= w.machines[g].size(); ++p) {
      if (!w.correct(p)) continue;
      const kv::StateMachine& sm = *w.machines[g][p - 1];
      if (ref == nullptr) {
        ref = &sm;
        continue;
      }
      if (sm.store_hash() != ref->store_hash()) {
        out.ok = false;
        out.why = "shard " + std::to_string(g) + ": replica p" +
                  std::to_string(p) + " disagrees on store_hash";
      }
    }
    applied += ref->ops_applied();
    locks += ref->locks_held();
    out.dup_applies += ref->duplicates_suppressed();
    for (const auto& [k, v] : ref->store()) {
      if (k.size() >= 5 && std::equal(k.begin(), k.begin() + 5, "acct-")) {
        balance += Load::parse_balance(v);
      }
    }
    out.fingerprint = fnv(out.fingerprint, ref->store_hash());
  }
  if (applied != load.applied_expected) {
    out.ok = false;
    out.why = "exactly-once: replicas applied " + std::to_string(applied) +
              " ops, clients completed " +
              std::to_string(load.applied_expected);
  }
  if (balance != 0 || locks != 0) {
    out.ok = false;
    out.why = "bank: balance sum " + std::to_string(balance) + ", " +
              std::to_string(locks) + " locks held";
  }
  if (!load.bad_reply.empty()) {
    out.ok = false;
    out.why = "invalid reply: " + load.bad_reply;
  }
}

/// Split each committed op at its layer seams (see Stages). The chain is
/// read at the replica whose apply answered the client, using the newest
/// propose of that slot which started before that replica's decision.
void split_stages(const Load& load, const Recorder& rec, EpisodeResult& out) {
  for (std::size_t i = 0; i < load.ops.size(); ++i) {
    const OpRecord& op = load.ops[i];
    if (!op.done) continue;
    const std::uint64_t key = op_key(op.client, op.seq);
    const auto apply = rec.first_apply.find(key);
    const auto dec = apply == rec.first_apply.end()
                         ? rec.decisions.end()
                         : rec.decisions.find(replica_slot_key(
                               op.shard, apply->second.replica,
                               apply->second.slot));
    if (dec == rec.decisions.end()) {
      ++out.stage_violations;
      continue;
    }
    const ApplyStamp& a = apply->second;
    const DecisionStamp& d = dec->second;
    const ProposeStamp* best = nullptr;
    const auto props = rec.proposes.find(slot_key(op.shard, a.slot));
    if (props != rec.proposes.end()) {
      for (const ProposeStamp& ps : props->second) {
        if (ps.start > d.decided_at) continue;
        const bool mine = ps.replica == a.replica;
        const bool best_mine = best != nullptr && best->replica == a.replica;
        if (best == nullptr || (mine && !best_mine) ||
            (mine == best_mine && ps.start >= best->start)) {
          best = &ps;
        }
      }
    }
    if (best == nullptr) {
      ++out.stage_violations;
      continue;
    }
    const auto q = [](sim::Time t) { return static_cast<std::int64_t>(t) * kQ; };
    Stages s;
    s.op = i;
    s.slot = a.slot;
    s.gen_lag = q(op.issued) - op.due_q;
    s.submit_to_propose = q(best->start) - q(op.issued);
    s.round = q(d.decided_at) - q(best->start);
    s.return_lag = q(d.handed_up) - q(d.decided_at);
    s.decide_to_apply = q(a.at) - q(d.handed_up);
    s.apply_to_reply = q(op.replied) - q(a.at);
    s.pre_crash = load.crash_at == sim::kTimeInfinity ||
                  op.due_q < q(load.crash_at);
    const std::int64_t sum = s.gen_lag + s.submit_to_propose + s.round +
                             s.return_lag + s.decide_to_apply +
                             s.apply_to_reply;
    const bool nonneg = s.gen_lag >= 0 && s.submit_to_propose >= 0 &&
                        s.round >= 0 && s.return_lag >= 0 &&
                        s.decide_to_apply >= 0 && s.apply_to_reply >= 0;
    if (!nonneg || sum != q(op.replied) - op.due_q) ++out.stage_violations;
    out.stages.push_back(s);
  }
}

/// Trace spans of every committed op: one track per shard, one row per
/// client session, one op id shared by the op's stage spans.
void add_op_spans(const Load& load, const EpisodeResult& out,
                  Recorder& rec) {
  for (const Stages& s : out.stages) {
    const OpRecord& op = load.ops[s.op];
    const std::uint64_t op_id = s.op + 1;
    const std::pair<const char*, std::int64_t> parts[] = {
        {"gen_lag", s.gen_lag},
        {"submit_to_propose", s.submit_to_propose},
        {"round", s.round},
        {"return_lag", s.return_lag},
        {"decide_to_apply", s.decide_to_apply},
        {"apply_to_reply", s.apply_to_reply}};
    double at = static_cast<double>(op.due_q) / kQ;
    for (const auto& [name, len] : parts) {
      const double dur = static_cast<double>(len) / kQ;
      if (dur > 0) {
        rec.spans.push_back({name, 100 + static_cast<int>(op.shard),
                             op.client, at, dur, op_id, s.slot});
      }
      at += dur;
    }
  }
}

}  // namespace

double setup_seconds(const Spec& spec, std::uint64_t seed) {
  Recorder rec;
  const auto t0 = Clock::now();
  World w(spec, seed, rec);
  build_stack(w, spec, seed);
  start_stack(w);
  Load load(w, spec, seed);
  load.start();
  return seconds_since(t0);
}

EpisodeResult run_episode(const Spec& spec, std::uint64_t seed, bool traced,
                          Recorder& rec) {
  EpisodeResult out;
  out.fingerprint = 0xCBF29CE484222325ULL;
  World w(spec, seed, rec);
  build_stack(w, spec, seed);
  start_stack(w);
  Load load(w, spec, seed);
  load.start();

  rec.on = traced;
  const bool fan_out = spec.stack == Spec::Stack::kFastRobust;
  constexpr sim::Time kHorizon = 1'000'000;
  const auto t_run = Clock::now();
  w.exec.run_until([&] { return load.done(); }, kHorizon);
  out.run_s = seconds_since(t_run);
  const bool terminated =
      load.done() &&
      w.exec.run_until([&] { return settled(w, fan_out); }, kHorizon);
  rec.on = false;

  for (const OpRecord& op : load.ops) {
    out.fingerprint = fnv(fnv(fnv(out.fingerprint, op.due_q), op.issued),
                          op.replied);
    if (!op.done) continue;
    const std::int64_t lat = static_cast<std::int64_t>(op.replied) * kQ - op.due_q;
    out.op_latency_q.push_back(lat);
    // Unavailability: crash -> first reply to a request due after it.
    if (load.crash_at != sim::kTimeInfinity &&
        op.due_q >= static_cast<std::int64_t>(load.crash_at) * kQ) {
      const double since = static_cast<double>(op.replied - load.crash_at);
      if (out.unavailable < 0 || since < out.unavailable) out.unavailable = since;
    }
  }
  for (std::int64_t t : load.txn_latency_q) {
    out.fingerprint = fnv(out.fingerprint, static_cast<std::uint64_t>(t));
  }
  out.txn_latency_q = load.txn_latency_q;
  out.txns = load.txns;
  out.txn_aborts = load.txn_aborts;
  out.txn_records = load.txn_records;
  const std::uint64_t plain_done = out.op_latency_q.size();
  out.client_ops = plain_done + load.txns;
  out.attempted = load.ops.size() + load.txns_started;
  out.failed = out.attempted - out.client_ops;
  out.retries = w.router->retries();
  out.events = w.exec.events_processed();
  out.fingerprint = fnv(out.fingerprint, out.events);
  out.span_q = static_cast<std::int64_t>(load.last_reply) * kQ -
               std::max<std::int64_t>(load.first_due_q, 0);

  if (!terminated) {
    out.ok = false;
    out.why = "episode did not finish and drain within the horizon";
  } else {
    check_outputs(w, load, out);
  }
  if (traced) {
    for (const auto& [key, op] : rec.apply_ops) {
      if (op == static_cast<std::uint8_t>(kv::Op::kTxnPrepare)) ++out.prepares;
    }
    split_stages(load, rec, out);
    if (rec.keep_spans) add_op_spans(load, out, rec);
  }
  return out;
}

}  // namespace perfbench

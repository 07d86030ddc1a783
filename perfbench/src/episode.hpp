// One episode: a freshly built stack, one seeded load driven through it to
// completion, and the output checks.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// Sub-delay resolution of due times: requests fall due at arbitrary
/// points between ticks, the simulator issues them on the next tick, and
/// the wait counts in their latency. 1 delay = kQ units.
inline constexpr std::int64_t kQ = 1024;

/// Key space of plain ops ("key-<i>") and of bank accounts ("acct-<i>"),
/// and the accounts' zipfian skew.
inline constexpr std::size_t kKeys = 1024;
inline constexpr std::size_t kAccounts = 256;
inline constexpr double kAccountTheta = 0.95;

/// A workload's stack and load. The three instances live in main.cpp.
struct Spec {
  std::string name;
  enum class Stack { kPmpVerbs, kFastRobust, kFastPaxos };
  Stack stack = Stack::kFastPaxos;
  std::size_t n = 3;       // processes
  std::size_t m = 0;       // memories (0 = message passing only)
  std::size_t shards = 1;
  std::size_t batch = 4;  // commands per slot payload; 8 slots in flight
  bool signed_commands = false;

  // Load. Closed loop: `clients` sessions, `ops` each. Open loop: `ops`
  // requests falling due at `rate` per delay (Poisson), served by a pool
  // of `clients` sessions.
  bool open_loop = false;
  std::size_t clients = 16;
  std::size_t ops = 32;
  double rate = 0;
  double read_fraction = 0.5;
  double zipf_theta = 0;  // over kKeys keys; 0 = uniform
  // Bank transfers (2 of kAccounts accounts each) for this share of
  // closed-loop ops.
  double txn_fraction = 0;
  // Crash the leader (p1) after this share of the open-loop schedule.
  double crash_at = 0;  // 0 = no crash

  // Episodes pooled for the virtual-time metrics.
  std::size_t pooled_episodes = 1;
};

/// One plain KV op as the client saw it (times in delays, due in kQ).
struct OpRecord {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::size_t shard = 0;
  std::int64_t due_q = 0;
  sim::Time issued = 0;
  sim::Time replied = 0;
  bool done = false;
};

/// The stage split of one committed op, in kQ units; the stages sum to
/// the op's latency.
struct Stages {
  std::size_t op = 0;                // index into the episode's ops
  Slot slot = 0;                     // the slot whose apply answered it
  std::int64_t gen_lag = 0;          // due -> issued
  std::int64_t submit_to_propose = 0;
  std::int64_t round = 0;            // propose -> Decision.at
  std::int64_t return_lag = 0;       // Decision.at -> handed to smr
  std::int64_t decide_to_apply = 0;
  std::int64_t apply_to_reply = 0;
  bool pre_crash = false;
};

struct EpisodeResult {
  // Virtual time.
  std::vector<std::int64_t> op_latency_q;       // due -> reply, kQ units
  std::vector<std::int64_t> txn_latency_q;      // committed transfers
  std::uint64_t client_ops = 0;   // completed plain ops + transfers
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t txns = 0, txn_aborts = 0, txn_records = 0;
  std::uint64_t retries = 0;
  std::uint64_t dup_applies = 0;
  std::uint64_t prepares = 0;     // fresh prepare records applied
  std::int64_t span_q = 0;        // first due time -> last reply
  double unavailable = -1;        // crash -> first reply due after it
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;  // virtual-time outcome of the episode
  // Wall clock.
  double run_s = 0;
  double peak_rss_mb = 0;  // filled in by the caller
  // Output checks.
  bool ok = true;
  std::string why;
  // Traced episodes only.
  std::vector<Stages> stages;
  std::uint64_t stage_violations = 0;
};

/// Wall seconds to build and start the world for `spec` from `seed` and
/// hand it its load, up to the moment the first op could be issued.
double setup_seconds(const Spec& spec, std::uint64_t seed);

/// Build the world for `spec` from `seed`, drive the load, drain, check.
/// `traced` turns the recorder on; `keep_spans` also keeps trace spans.
EpisodeResult run_episode(const Spec& spec, std::uint64_t seed, bool traced,
                          Recorder& rec);

}  // namespace perfbench

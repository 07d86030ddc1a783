// RunReport's metric table: every report field once, as a `{key, member}`
// row, in the order of the golden corpus (tests/golden/determinism.txt). A
// process's applied log has no row of its own: SMR mode joins it into the
// process's `decision`.
//
// summary() prints one `key=value` field per row, so the corpus line of a
// config is its name followed by its summary. A new counter is a field, a
// row appended here, and its fold in cluster.cpp; appending a row appends a
// field to every corpus line and moves nothing else.

#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

// Values: numbers in decimal, bools as 0/1, strings quoted with every byte
// outside printable ASCII (and `"`, `\`, `,`) escaped as \xNN so the corpus
// diffs cleanly, a missing string as `-`, vectors comma-joined.

void put(std::ostream& os, bool v) { os << (v ? 1 : 0); }

template <class T>
  requires std::is_arithmetic_v<T>
void put(std::ostream& os, T v) {
  os << +v;
}

void put(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (u > ' ' && u < 0x7F && ch != '"' && ch != '\\' && ch != ',') {
      os << ch;
    } else {
      char esc[5];
      std::snprintf(esc, sizeof esc, "\\x%02x", u);
      os << esc;
    }
  }
  os << '"';
}

void put(std::ostream& os, const std::optional<std::string>& v) {
  if (v.has_value()) {
    put(os, *v);
  } else {
    os << '-';
  }
}

template <class T>
void put(std::ostream& os, const std::vector<T>& vs) {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) os << ',';
    put(os, vs[i]);
  }
}

/// A run-level member prints its value; a per-process member prints every
/// process's value, comma-joined in process order.
template <class T>
void put_member(std::ostream& os, const RunReport& r, T RunReport::*m) {
  put(os, r.*m);
}

template <class T>
void put_member(std::ostream& os, const RunReport& r, T ProcessReport::*m) {
  for (std::size_t i = 0; i < r.processes.size(); ++i) {
    if (i > 0) os << ',';
    put(os, r.processes[i].*m);
  }
}

struct Metric {
  const char* key;
  void (*print)(std::ostream&, const RunReport&);
};

template <auto Member>
void of(std::ostream& os, const RunReport& r) {
  put_member(os, r, Member);
}

using P = ProcessReport;
using R = RunReport;

constexpr Metric kMetrics[] = {
    {"ids", of<&P::id>},
    {"decided", of<&P::decided>},
    {"decisions", of<&P::decision>},
    {"decided_at", of<&P::decided_at>},
    {"value", of<&R::decided_value>},
    {"first_delay", of<&R::first_decision_delay>},
    {"msgs", of<&R::messages_sent>},
    {"reads", of<&R::mem_reads>},
    {"writes", of<&R::mem_writes>},
    {"perms", of<&R::permission_changes>},
    {"sigs", of<&R::signatures>},
    {"verifs", of<&R::verifications>},
    {"events", of<&R::events>},
    {"slots", of<&R::slots_applied>},
    {"cmds", of<&R::commands_applied>},
    {"p50", of<&R::commit_p50>},
    {"p99", of<&R::commit_p99>},
    {"p999", of<&R::commit_p999>},
    {"qw50", of<&R::queue_wait_p50>},
    {"qw99", of<&R::queue_wait_p99>},
    {"occ_slots", of<&R::occupancy_slots>},
    {"occ_limit", of<&R::occupancy_limit>},
    {"tuner_epochs", of<&R::tuner_epochs>},
    {"tuner_trajectory", of<&R::tuner_trajectory>},
    {"kv_ops", of<&R::kv_ops>},
    {"kv_retries", of<&R::kv_retries>},
    {"kv_dups", of<&R::kv_duplicates>},
    {"kv_forged", of<&R::kv_forged>},
    {"kv_hash", of<&R::kv_store_hash>},
    {"kv_shard_ops", of<&R::kv_shard_ops>},
    {"kv_p50", of<&R::kv_op_p50>},
    {"kv_p99", of<&R::kv_op_p99>},
    {"kv_p999", of<&R::kv_op_p999>},
    {"rc_epoch", of<&R::reconfig_epoch>},
    {"rc_migrations", of<&R::reconfig_migrations>},
    {"rc_keys_moved", of<&R::reconfig_keys_moved>},
    {"rc_proposals", of<&R::reconfig_proposals>},
    {"rc_bounces", of<&R::reconfig_bounces>},
    {"rc_flips", of<&R::reconfig_flip_times>},
    {"snaps_taken", of<&R::snapshots_taken>},
    {"snaps_installed", of<&R::snapshots_installed>},
    {"truncated", of<&R::slots_truncated>},
    {"catchup_bytes", of<&R::catchup_bytes>},
    {"rejoined_at", of<&P::rejoined_at>},
    {"txns", of<&R::kv_txns>},
    {"txn_commits", of<&R::kv_txn_commits>},
    {"txn_aborts", of<&R::kv_txn_aborts>},
    {"txn_conflicts", of<&R::kv_txn_conflicts>},
    {"txn_recoveries", of<&R::kv_txn_recoveries>},
    {"txn_locks", of<&R::kv_locks_held>},
    {"txn_balance", of<&R::kv_txn_balance>},
    {"txn_p50", of<&R::kv_txn_commit_p50>},
    {"txn_p999", of<&R::kv_txn_commit_p999>},
    {"tsend_deliveries", of<&R::tsend_deliveries>},
    {"entries_decoded", of<&R::history_entries_decoded>},
    {"entries_skipped", of<&R::history_entries_skipped>},
    {"agreement", of<&R::agreement>},
    {"validity", of<&R::validity>},
    {"termination", of<&R::termination>},
    {"first_correct_delay", of<&R::first_correct_decision_delay>},
    {"read_batches", of<&R::mem_read_batches>},
    {"noop_slots", of<&R::noop_slots>},
    {"fast_slots", of<&R::fast_slots>},
    {"tuner_window", of<&R::tuner_window>},
    {"tuner_batch", of<&R::tuner_batch>},
    {"kv_reads", of<&R::kv_reads>},
    {"kv_writes", of<&R::kv_writes>},
    {"kv_malformed", of<&R::kv_malformed>},
    {"byzantine", of<&P::byzantine>},
    {"crashed_at", of<&P::crashed_at>},
    {"fast_path", of<&P::fast_path>},
    {"kv_last_reply_at", of<&R::kv_last_reply_at>},
};

}  // namespace

std::string RunReport::summary() const {
  std::ostringstream os;
  for (const Metric& m : kMetrics) {
    if (&m != kMetrics) os << ' ';
    os << m.key << '=';
    m.print(os, *this);
  }
  return os.str();
}

}  // namespace mnm::harness

// Experiment F9 — pipelined log throughput (the tentpole measurement for
// smr::Log): committed commands/sec as a function of the in-flight window
// and the per-slot command batch.
//
// Two measurements:
//  * virtual-time throughput (committed commands per 1000 sim-time units)
//    across a (window × batch) grid on the Fast Paxos engine — the
//    protocol-level pipelining win: window w overlaps w slots' 2-delay
//    rounds, batch b amortizes one round over b commands, so steady-state
//    throughput scales ≈ w·b/delay until the window covers the pipe;
//  * wall-clock simulator throughput of whole SMR runs (google-benchmark),
//    the regression guard scripts/bench.sh compares against the checked-in
//    BENCH_log_pipeline.json baseline.
//
// The grid also reports events/slot so pipelining wins are visible in the
// simulator's own cost metric, not just in virtual time.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/harness/cluster.hpp"
#include "src/harness/table.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

ClusterConfig smr_config(Algorithm algo, std::size_t n, std::size_t m,
                         std::size_t commands, std::size_t batch,
                         std::size_t window) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.smr.enabled = true;
  c.smr.commands = commands;
  c.log.batch = batch;
  c.log.window = window;
  return c;
}

void window_batch_grid() {
  std::printf("\n== F9: committed commands vs window/batch (Fast Paxos engine, "
              "n=3, 64 commands) ==\n");
  Table t({"window", "batch", "slots", "cmds/kdelay", "commit p50", "commit p99",
           "commit p999", "events/slot"});
  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8},
                                   std::size_t{16}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      const RunReport r = run_cluster(
          smr_config(Algorithm::kFastPaxos, 3, 0, 64, batch, window));
      if (!r.all_ok()) {
        std::printf("  !! run failed: %s\n", r.summary().c_str());
        continue;
      }
      const double kdelay =
          r.processes[0].decided_at > 0
              ? 1000.0 * static_cast<double>(r.commands_applied) /
                    static_cast<double>(r.processes[0].decided_at)
              : 0.0;
      char rate[32], eps[32];
      std::snprintf(rate, sizeof(rate), "%.0f", kdelay);
      std::snprintf(eps, sizeof(eps), "%.1f", r.events_per_slot());
      t.row({std::to_string(window), std::to_string(batch),
             std::to_string(r.slots_applied), rate,
             std::to_string(r.commit_p50), std::to_string(r.commit_p99),
             std::to_string(r.commit_p999), eps});
    }
  }
  t.print();
  std::printf("(deepening the window overlaps consensus rounds; batching\n"
              " amortizes one round over many commands — the two levers DARE/\n"
              " APUS-style systems pull, now measurable in one knob each)\n");
}

void auto_tune_table() {
  std::printf("\n== auto-tuned window/batch vs the fixed grid (Fast Paxos "
              "engine, n=3, 4096 commands) ==\n");
  Table t({"config", "slots", "cmds/kdelay", "commit p50", "commit p99",
           "qwait p99", "final w×b", "epochs"});
  const auto row = [&t](const char* name, const RunReport& r) {
    if (!r.all_ok()) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      return;
    }
    const double kdelay =
        r.processes[0].decided_at > 0
            ? 1000.0 * static_cast<double>(r.commands_applied) /
                  static_cast<double>(r.processes[0].decided_at)
            : 0.0;
    char rate[32], wb[32];
    std::snprintf(rate, sizeof(rate), "%.0f", kdelay);
    if (r.tuner_epochs > 0) {
      std::snprintf(wb, sizeof(wb), "%zux%zu", r.tuner_window, r.tuner_batch);
    } else {
      std::snprintf(wb, sizeof(wb), "-");
    }
    t.row({name, std::to_string(r.slots_applied), rate,
           std::to_string(r.commit_p50), std::to_string(r.commit_p99),
           std::to_string(r.queue_wait_p99), wb,
           std::to_string(r.tuner_epochs)});
  };
  for (const auto& [w, b] : {std::pair<std::size_t, std::size_t>{4, 4},
                             {8, 8},
                             {16, 8}}) {
    const RunReport r =
        run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 4096, b, w));
    char name[32];
    std::snprintf(name, sizeof(name), "fixed w%zu b%zu", w, b);
    row(name, r);
  }
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 4096, 4, 4);
  c.log.auto_tune = true;
  c.log.max_window = 16;
  c.log.max_batch = 8;
  const RunReport r = run_cluster(c);
  row("auto (from 4x4)", r);
  if (!r.tuner_trajectory.empty()) {
    std::printf("  trajectory: %s\n", r.tuner_trajectory.c_str());
  }
  std::printf("(the controller starts at a neutral 4x4 and must walk to the\n"
              " grid's best cell on its own; the epochs it spends converging\n"
              " are the gap to the hand-tuned row)\n");
}

/// Push every slot onto the backup path. An honest Fast & Robust run never
/// builds its backup, so the Cheap Quorum leader is Byzantine (it plants
/// conflicting values, then goes silent) and followers give up after 10
/// delays.
void force_backup(ClusterConfig& c) {
  c.cq_timeout = 10;
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
}

void suffix_decode_table() {
  std::printf("\n== t-send suffix decode (Fast & Robust engine, n=3, "
              "backup forced by a Byzantine leader) ==\n");
  Table t({"cmds", "slots", "t-send deliveries", "entries decoded",
           "entries skipped", "decoded/delivery"});
  for (const std::size_t commands :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    ClusterConfig c = smr_config(Algorithm::kFastRobust, 3, 3, commands, 2, 2);
    force_backup(c);
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      continue;
    }
    char per[32];
    std::snprintf(per, sizeof(per), "%.2f", r.decoded_per_delivery());
    t.row({std::to_string(commands), std::to_string(r.slots_applied),
           std::to_string(r.tsend_deliveries),
           std::to_string(r.history_entries_decoded),
           std::to_string(r.history_entries_skipped), per});
  }
  t.print();
  std::printf("(each delivery materializes only the entries appended since\n"
              " the sender's previous message; the verified prefix — the\n"
              " 'skipped' column — is hopped over byte-wise. A full-history\n"
              " decode would make decoded/delivery grow with history length\n"
              " instead of staying flat)\n");
}

void bm_pipeline(benchmark::State& state, Algorithm algo, std::size_t n,
                 std::size_t m, std::size_t commands, std::size_t batch,
                 std::size_t window, bool backup = false,
                 bool auto_tune = false) {
  std::uint64_t seed = 1;
  std::uint64_t committed = 0;
  std::uint64_t deliveries = 0, decoded = 0, skipped = 0;
  sim::Time p999_sum = 0, qw99_sum = 0;
  double kdelay_sum = 0.0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = smr_config(algo, n, m, commands, batch, window);
    c.seed = seed++;
    if (backup) force_backup(c);
    if (auto_tune) {
      c.log.auto_tune = true;
      c.log.max_window = 16;
      c.log.max_batch = 8;
    }
    const RunReport r = run_cluster(c);
    if (!r.agreement) {
      state.SkipWithError("agreement violated");
      break;  // SkipWithError does not exit the range-for by itself
    }
    committed += r.commands_applied;
    deliveries += r.tsend_deliveries;
    decoded += r.history_entries_decoded;
    skipped += r.history_entries_skipped;
    p999_sum += r.commit_p999;
    qw99_sum += r.queue_wait_p99;
    // The first correct process's last decision closes the run.
    const ProcessReport& first = r.processes[backup ? 1 : 0];
    if (first.decided_at > 0) {
      kdelay_sum += 1000.0 * static_cast<double>(r.commands_applied) /
                    static_cast<double>(first.decided_at);
    }
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  // items/sec == committed commands per wall-clock second.
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
  if (iters > 0) {
    // Commit-latency tail and queue wait (virtual time) alongside the
    // wall-clock rate, plus the machine-independent throughput the
    // bench_compare.py guard keys on.
    state.counters["commit_p999"] =
        static_cast<double>(p999_sum) / static_cast<double>(iters);
    state.counters["queue_wait_p99"] =
        static_cast<double>(qw99_sum) / static_cast<double>(iters);
    state.counters["cmds_per_kdelay"] =
        kdelay_sum / static_cast<double>(iters);
  }
  if (deliveries > 0) {
    // The suffix-only-decode proof, attached to the guard rows: decoded
    // entries per t-send delivery (flat in history depth) and the share of
    // entries the verified-prefix skip saved.
    state.counters["dec_per_delivery"] =
        static_cast<double>(decoded) / static_cast<double>(deliveries);
    state.counters["skip_per_delivery"] =
        static_cast<double>(skipped) / static_cast<double>(deliveries);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_log_pipeline: pipelined smr::Log throughput\n");
  window_batch_grid();
  auto_tune_table();
  suffix_decode_table();

  benchmark::RegisterBenchmark("log/FastPaxos_w1_b1", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 64, 1, 1,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/FastPaxos_w8_b1", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 64, 1, 8,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/FastPaxos_w8_b8", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 64, 8, 8,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/FastPaxos_w16_b8", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 64, 8, 16,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  // Auto-tuning acceptance pair: the hand-tuned best fixed cell at a
  // 4096-command backlog vs the controller converging from a neutral 4x4
  // start under identical workload. The cmds_per_kdelay counters are the
  // machine-independent comparison bench_compare.py guards.
  benchmark::RegisterBenchmark("log/FastPaxos_w16_b8_c4096", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 4096, 8, 16,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/FastPaxos_auto", bm_pipeline,
                               Algorithm::kFastPaxos, 3, 0, 4096, 4, 4,
                               false, true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/PMP_w8_b4", bm_pipeline,
                               Algorithm::kProtectedMemoryPaxos, 2, 3, 32, 4, 8,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("log/FastRobust_w2_b2", bm_pipeline,
                               Algorithm::kFastRobust, 3, 3, 4, 2, 2,
                               false, false)
      ->Unit(benchmark::kMillisecond);
  // Backup-forced variant: a Byzantine Cheap Quorum leader pushes every
  // slot onto Robust Backup(Paxos), the t-send-heavy path where suffix-only
  // history decode carries the load.
  benchmark::RegisterBenchmark("log/FastRobust_w2_b2_backup", bm_pipeline,
                               Algorithm::kFastRobust, 3, 3, 4, 2, 2,
                               true, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

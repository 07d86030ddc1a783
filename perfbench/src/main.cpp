// perfbench — the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 (timed run): episodes run back to back until --seconds of wall
// time have passed, and at least the workload's pooled episode count. The
// virtual-time metrics pool the first `pooled_episodes` episodes, so they
// depend on the seed only; the wall-clock metrics are medians over every
// episode. Prints every end-to-end metric.
//
// --trace 1 (traced run): the pooled episodes run twice each, recording
// off and on. The two runs must agree exactly on every virtual-time
// outcome, every committed op's stage spans must sum to its latency, and
// the per-layer metrics are printed. The first episode's spans go to
// --trace-out as Chrome Trace Event JSON.
//
// Either way every episode's outputs are checked, and the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "episode.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<Spec> workloads() {
  std::vector<Spec> out;
  {
    // The paper's crash algorithm at the point RDMA buys: n = f_P + 1.
    Spec s;
    s.name = "kv_pmp_failover";
    s.stack = Spec::Stack::kPmpVerbs;
    s.n = 2;
    s.m = 3;
    s.shards = 4;
    s.open_loop = true;
    s.clients = 128;  // session pool
    s.ops = 1000;
    s.rate = 2.5;  // below the ~5.4 ops/delay capacity after the hand-off
    s.read_fraction = 0.95;
    s.zipf_theta = 0.99;
    s.crash_at = 0.25;
    s.pooled_episodes = 16;
    out.push_back(s);
  }
  {
    // The paper's Byzantine algorithm: n = 2 f_P + 1, honest run.
    Spec s;
    s.name = "kv_fastrobust";
    s.stack = Spec::Stack::kFastRobust;
    s.n = 3;
    s.m = 3;
    s.shards = 1;
    s.batch = 16;
    s.signed_commands = true;
    s.clients = 16;
    s.ops = 32;
    s.read_fraction = 0.5;
    s.zipf_theta = 0.99;
    s.pooled_episodes = 3;
    out.push_back(s);
  }
  {
    // Cross-shard 2PC over message-passing Fast Paxos groups.
    Spec s;
    s.name = "txn_bank";
    s.stack = Spec::Stack::kFastPaxos;
    s.n = 3;
    s.shards = 3;
    s.clients = 32;
    s.ops = 64;
    s.read_fraction = 0.5;
    s.txn_fraction = 0.4;
    s.pooled_episodes = 4;
    out.push_back(s);
  }
  return out;
}

/// splitmix64: independent episode seeds from (run seed, episode index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
std::uint64_t episode_seed(std::uint64_t seed, std::size_t e) {
  return mix(mix(seed) + e);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : (v[k - 1] + v[k]) / 2;
}

/// Restart the kernel's peak-RSS counter (VmHWM) at the current RSS, so
/// the next reading covers one episode only — not the calibration kernel
/// or an earlier episode.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in MiB: the peak resident set since the last reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One line per metric for people, then the machine-readable JSON line.
void print_result(const std::vector<Metric>& shown,
                  const std::vector<Metric>& json, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : shown) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < json.size(); ++i) {
    line += (i > 0 ? ", " : "") + ("\"" + json[i].name + "\": {\"value\": ") +
            num(json[i].value) + ", \"unit\": \"" + json[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Virtual-time end-to-end metrics over the pooled episodes.
struct Pooled {
  std::vector<std::int64_t> lat;
  std::vector<std::int64_t> txn;
  std::uint64_t ops = 0, attempted = 0, failed = 0;
  std::uint64_t txns = 0, aborts = 0;
  std::int64_t span_q = 0;  // Σ first due -> last reply
  std::vector<double> unavailable;

  void add(const EpisodeResult& r) {
    lat.insert(lat.end(), r.op_latency_q.begin(), r.op_latency_q.end());
    txn.insert(txn.end(), r.txn_latency_q.begin(), r.txn_latency_q.end());
    ops += r.client_ops;
    attempted += r.attempted;
    failed += r.failed;
    txns += r.txns;
    aborts += r.txn_aborts;
    span_q += r.span_q;
    if (r.unavailable >= 0) unavailable.push_back(r.unavailable);
  }
  static double delays(double q) { return q / static_cast<double>(kQ); }
  double op_p50() const { return delays(harrell_davis(lat, 50)); }
  double op_p99() const { return delays(harrell_davis(lat, 99)); }
  double per_kdelay() const {
    return span_q > 0 ? 1000.0 * static_cast<double>(ops) / delays(span_q) : 0;
  }
};

std::vector<Metric> end_to_end(const Spec& spec, const Pooled& p,
                               double sim_ops_per_s, double setup_s,
                               double rss_mb, bool with_optional) {
  std::vector<Metric> m = {
      {"op_p50_delays", p.op_p50(), "delays"},
      {"op_p99_delays", p.op_p99(), "delays"},
      {"ops_per_kdelay", p.per_kdelay(), "ops/kdelay"},
  };
  if (with_optional && spec.crash_at > 0) {
    m.push_back({"unavailable_delays", median(p.unavailable), "delays"});
  }
  if (with_optional && spec.txn_fraction > 0) {
    m.push_back({"txn_p50_delays", Pooled::delays(harrell_davis(p.txn, 50)),
                 "delays"});
    m.push_back({"txn_p99_delays", Pooled::delays(harrell_davis(p.txn, 99)),
                 "delays"});
    m.push_back({"txn_abort_ratio",
                 p.txns > 0 ? static_cast<double>(p.aborts) / p.txns : 0,
                 "ratio"});
  }
  if (with_optional) {
    m.push_back({"fail_ratio",
                 p.attempted > 0 ? static_cast<double>(p.failed) / p.attempted
                                 : 0,
                 "ratio"});
  }
  m.push_back({"sim_ops_per_s", sim_ops_per_s, "ops/s"});
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mb", rss_mb, "MiB"});
  return m;
}

bool report_failure(const EpisodeResult& r, std::size_t e) {
  if (r.ok) return false;
  std::fprintf(stderr, "episode %zu: output check failed: %s\n", e,
               r.why.c_str());
  return true;
}

/// One episode, after handing the allocator's free memory back, so every
/// episode's set-up and run start from the same heap state instead of
/// paying for earlier garbage at a random point.
EpisodeResult episode(const Spec& spec, std::uint64_t seed, std::size_t e,
                      bool traced, Recorder& rec) {
  malloc_trim(0);
  reset_peak_rss();
  EpisodeResult r = run_episode(spec, episode_seed(seed, e), traced, rec);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

int timed_run(const Spec& spec, std::uint64_t seed, double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Set-up time: the median of the first episode's world built and torn
  // down back to back, before any episode has run. A few kernel runs
  // first bring a freshly started process up to speed; without them the
  // builds alone read up to 1.6x slower on some runs. It is scaled below
  // by the median of every kernel time of the run.
  for (int i = 0; i < 5; ++i) (void)calibration_kernel_seconds();
  std::vector<double> builds;
  for (int i = 0; i < 31; ++i) {
    builds.push_back(setup_seconds(spec, episode_seed(seed, 0)));
  }
  const double raw_setup_s = median(builds);

  // Passes over the same pooled episodes until the time is up: every pass
  // does the same work, so pass rates differ only by machine noise, and
  // every pass must reproduce the first pass's virtual-time outcome. Each
  // episode's run time is scaled by the mean of the calibration kernel
  // times just before and just after it (calibrate.hpp).
  Pooled pooled;
  std::vector<std::uint64_t> fingerprints;
  std::vector<double> rate, raw_rate, kernels;
  double rss_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  const auto kernel = [&] {
    malloc_trim(0);
    kernels.push_back(calibration_kernel_seconds());
    return kernels.back();
  };
  double kernel_before = kernel();
  for (std::size_t pass = 0; pass == 0 || elapsed() < seconds; ++pass) {
    std::uint64_t ops = 0;
    double run_s = 0, scaled_run_s = 0;
    for (std::size_t e = 0; e < spec.pooled_episodes; ++e) {
      Recorder rec;
      const EpisodeResult r = episode(spec, seed, e, /*traced=*/false, rec);
      if (report_failure(r, e)) correct = false;
      if (pass == 0) {
        pooled.add(r);
        fingerprints.push_back(r.fingerprint);
      } else if (r.fingerprint != fingerprints[e]) {
        std::fprintf(stderr, "episode %zu: pass %zu diverged from pass 0\n",
                     e, pass);
        correct = false;
      }
      attempted += r.attempted;
      failed += r.failed;
      rss_mb = std::max(rss_mb, r.peak_rss_mb);
      ops += r.client_ops;
      run_s += r.run_s;
      const double kernel_after = kernel();
      scaled_run_s += r.run_s * 2 * kReferenceKernelSeconds /
                      (kernel_before + kernel_after);
      kernel_before = kernel_after;
    }
    raw_rate.push_back(static_cast<double>(ops) / run_s);
    rate.push_back(static_cast<double>(ops) / scaled_run_s);
  }
  if (!correct) return 1;
  std::printf("%s seed=%llu: %zu passes x %zu episodes, %.1f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              rate.size(), spec.pooled_episodes, elapsed());
  const double ops_s = median(rate);
  const double setup_s =
      raw_setup_s * kReferenceKernelSeconds / median(kernels);
  std::vector<Metric> shown =
      end_to_end(spec, pooled, ops_s, setup_s, rss_mb, true);
  shown.push_back({"sim_ops_per_s_uncalibrated", median(raw_rate), "ops/s"});
  shown.push_back({"setup_s_uncalibrated", raw_setup_s, "s"});
  print_result(shown,
               end_to_end(spec, pooled, ops_s, setup_s, rss_mb, false), correct,
               attempted, failed);
  return 0;
}

/// Per-layer totals over the traced episodes.
struct Layers {
  Recorder sum;  // counters only
  std::vector<Stages> stages;
  std::vector<sim::Time> mem_latencies;
  std::uint64_t ops = 0, txns = 0, txn_aborts = 0, txn_records = 0;
  std::uint64_t prepares = 0;
  std::uint64_t retries = 0, dup_applies = 0, events = 0;
  double run_s = 0;

  void add(const Recorder& r, const EpisodeResult& e) {
    Recorder& s = sum;
    s.msgs += r.msgs;
    s.msg_bytes += r.msg_bytes;
    s.send_us += r.send_us;
    s.mem_ops += r.mem_ops;
    s.mem_failed += r.mem_failed;
    s.mem_reads += r.mem_reads;
    s.mem_read_batches += r.mem_read_batches;
    s.mem_writes += r.mem_writes;
    s.mem_perm_changes += r.mem_perm_changes;
    s.mem_bytes += r.mem_bytes;
    s.proposals += r.proposals;
    s.fast += r.fast;
    s.aborts += r.aborts;
    s.decided_slots += r.decided_slots;
    s.decided_cmds += r.decided_cmds;
    s.applies += r.applies;
    s.apply_us += r.apply_us;
    mem_latencies.insert(mem_latencies.end(), r.mem_latencies.begin(),
                         r.mem_latencies.end());
    stages.insert(stages.end(), e.stages.begin(), e.stages.end());
    ops += e.client_ops;
    txns += e.txns;
    txn_aborts += e.txn_aborts;
    txn_records += e.txn_records;
    prepares += e.prepares;
    retries += e.retries;
    dup_applies += e.dup_applies;
    events += e.events;
    run_s += e.run_s;
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<Metric> per_layer(const Layers& l, double overhead) {
  const Recorder& s = l.sum;
  const double ops = static_cast<double>(l.ops);
  const auto stage = [&](std::int64_t Stages::*f, double p, bool pre,
                         bool post) {
    std::vector<std::int64_t> v;
    for (const Stages& st : l.stages) {
      if ((st.pre_crash && pre) || (!st.pre_crash && post)) v.push_back(st.*f);
    }
    return nearest_rank(v, p) / static_cast<double>(kQ);
  };
  const auto all = [&](std::int64_t Stages::*f, double p) {
    return stage(f, p, true, true);
  };
  std::vector<std::int64_t> pre_lat, post_lat;
  for (const Stages& st : l.stages) {
    const std::int64_t lat = st.gen_lag + st.submit_to_propose + st.round +
                             st.return_lag + st.decide_to_apply +
                             st.apply_to_reply;
    (st.pre_crash ? pre_lat : post_lat).push_back(lat);
  }
  const double wall_us_per_op = ratio(l.run_s * 1e6, ops);
  return {
      {"kv.retries_per_op", ratio(l.retries, ops), "1/op"},
      {"kv.dup_applies_per_op", ratio(l.dup_applies, ops), "1/op"},
      {"kv.gen_lag_p99_delays", all(&Stages::gen_lag, 99), "delays"},
      {"kv.submit_to_propose_p50_delays", all(&Stages::submit_to_propose, 50),
       "delays"},
      {"kv.submit_to_propose_p99_delays", all(&Stages::submit_to_propose, 99),
       "delays"},
      {"core.round_p50_delays", all(&Stages::round, 50), "delays"},
      {"core.round_p99_delays", all(&Stages::round, 99), "delays"},
      {"core.round_pre_crash_p50_delays", stage(&Stages::round, 50, true, false),
       "delays"},
      {"core.round_post_crash_p50_delays",
       stage(&Stages::round, 50, false, true), "delays"},
      {"core.return_lag_p50_delays", all(&Stages::return_lag, 50), "delays"},
      {"smr.decide_to_apply_p50_delays", all(&Stages::decide_to_apply, 50),
       "delays"},
      {"kv.apply_to_reply_p50_delays", all(&Stages::apply_to_reply, 50),
       "delays"},
      {"kv.op_pre_crash_p50_delays", nearest_rank(pre_lat, 50) / kQ, "delays"},
      {"kv.op_post_crash_p50_delays", nearest_rank(post_lat, 50) / kQ,
       "delays"},
      {"core.fast_ratio", ratio(s.fast, s.proposals - s.aborts), "ratio"},
      {"core.cmds_per_slot", ratio(s.decided_cmds, s.decided_slots), "cmds/slot"},
      {"core.proposals_per_op", ratio(s.proposals, ops), "1/op"},
      {"core.aborts", static_cast<double>(s.aborts), "count"},
      {"smr.applies_per_op", ratio(s.applies, ops), "1/op"},
      {"smr.apply_us_per_op", ratio(s.apply_us, ops), "us/op"},
      {"net.msgs_per_op", ratio(s.msgs, ops), "msgs/op"},
      {"net.bytes_per_op", ratio(s.msg_bytes, ops), "B/op"},
      {"net.send_us_per_op", ratio(s.send_us, ops), "us/op"},
      {"mem.reads_per_op", ratio(s.mem_reads, ops), "1/op"},
      {"mem.read_batches_per_op", ratio(s.mem_read_batches, ops), "1/op"},
      {"mem.writes_per_op", ratio(s.mem_writes, ops), "1/op"},
      {"mem.bytes_per_op", ratio(s.mem_bytes, ops), "B/op"},
      {"mem.op_p50_delays", nearest_rank(l.mem_latencies, 50), "delays"},
      {"mem.perm_changes", static_cast<double>(s.mem_perm_changes), "count"},
      {"mem.failed_ratio", ratio(s.mem_failed, s.mem_ops), "ratio"},
      {"sim.events_per_op", ratio(l.events, ops), "events/op"},
      {"sim.unattributed_us_per_op",
       wall_us_per_op - ratio(s.apply_us + s.send_us, ops), "us/op"},
      {"txn.records_per_txn", ratio(l.txn_records, l.txns), "records/txn"},
      {"txn.conflict_ratio", ratio(l.txn_aborts, l.prepares), "ratio"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };
}

void write_trace(const std::string& path, const Spec& spec,
                 const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
    << spec.name << "\", \"time_unit\": \"1 us = 1 delay\"},\n"
    << "\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) f << ",\n";
    first = false;
  };
  for (std::size_t g = 0; g < spec.shards; ++g) {
    sep();
    f << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << 100 + g
      << ", \"args\": {\"name\": \"shard " << g << " ops\"}}";
  }
  for (std::size_t p = 1; p <= spec.n; ++p) {
    sep();
    f << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << p
      << ", \"args\": {\"name\": \"process p" << p << "\"}}";
  }
  for (const Span& s : spans) {
    sep();
    f << "{\"ph\": \"X\", \"name\": \"" << s.name << "\", \"pid\": " << s.pid
      << ", \"tid\": " << s.tid << ", \"ts\": " << num(s.start)
      << ", \"dur\": " << num(s.dur) << ", \"args\": {";
    if (s.op != 0) f << "\"op\": " << s.op << ", ";
    f << "\"slot\": " << s.slot << "}}";
  }
  f << "\n]}\n";
}

int traced_run(const Spec& spec, std::uint64_t seed,
               const std::string& trace_out) {
  Layers layers;
  std::vector<Span> spans;
  std::vector<double> off_rate, on_rate;
  std::uint64_t attempted = 0, failed = 0, violations = 0, stage_ops = 0;
  bool correct = true;
  for (std::size_t e = 0; e < spec.pooled_episodes; ++e) {
    Recorder off;
    const EpisodeResult base = episode(spec, seed, e, /*traced=*/false, off);
    Recorder on;
    on.keep_spans = e == 0;
    const EpisodeResult traced = episode(spec, seed, e, /*traced=*/true, on);
    if (report_failure(base, e) || report_failure(traced, e)) correct = false;
    if (base.fingerprint != traced.fingerprint) {
      std::fprintf(stderr,
                   "episode %zu: traced run diverged from the untraced run "
                   "(virtual-time fingerprint %llx vs %llx)\n",
                   e, static_cast<unsigned long long>(traced.fingerprint),
                   static_cast<unsigned long long>(base.fingerprint));
      correct = false;
    }
    if (traced.stage_violations > 0) {
      std::fprintf(stderr,
                   "episode %zu: %llu committed ops whose stage spans do not "
                   "sum to their latency\n",
                   e, static_cast<unsigned long long>(traced.stage_violations));
      correct = false;
    }
    violations += traced.stage_violations;
    stage_ops += traced.stages.size();
    attempted += traced.attempted;
    failed += traced.failed;
    off_rate.push_back(static_cast<double>(base.client_ops) / base.run_s);
    on_rate.push_back(static_cast<double>(traced.client_ops) / traced.run_s);
    layers.add(on, traced);
    if (e == 0) spans = std::move(on.spans);
  }
  if (!correct) return 1;
  std::printf("%s seed=%llu traced: %zu episodes; stage-sum check: %llu ops, "
              "%llu violations; traced == untraced virtual time: yes\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              spec.pooled_episodes,
              static_cast<unsigned long long>(stage_ops),
              static_cast<unsigned long long>(violations));
  if (!trace_out.empty()) {
    write_trace(trace_out, spec, spans);
    std::printf("trace: %zu spans -> %s\n", spans.size(), trace_out.c_str());
  }
  const std::vector<Metric> m =
      per_layer(layers, median(on_rate) / median(off_rate));
  print_result(m, m, correct, attempted, failed);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kv_pmp_failover|kv_fastrobust|"
               "txn_bank> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.contains("workload")) return usage();
  const std::uint64_t seed = std::strtoull(
      args.contains("seed") ? args["seed"].c_str() : "1", nullptr, 10);
  const double seconds =
      args.contains("seconds") ? std::strtod(args["seconds"].c_str(), nullptr)
                               : 10;
  const bool trace = args.contains("trace") && args["trace"] == "1";
  for (const Spec& spec : workloads()) {
    if (spec.name != args["workload"]) continue;
    return trace ? traced_run(spec, seed, args["trace-out"])
                 : timed_run(spec, seed, seconds);
  }
  return usage();
}

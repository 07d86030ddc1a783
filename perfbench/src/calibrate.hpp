// Machine-speed calibration for the wall-clock throughput metric.
//
// On a shared machine the simulator's speed drifts by ±10% from one
// 10-second run to the next, far more than the changes the benchmark has to
// resolve. The same drift slows any CPU-bound code alike, so every timed
// pass also times this kernel — fixed, seeded work of the simulator's kind
// (node allocation, tree and hash-map inserts, sorting) that uses no code
// of this repository — and sim_ops_per_s is scaled by the kernel's measured
// time over its reference time. A change to the program moves the program's
// time and not the kernel's, so it shows in full.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Kernel time the scaled throughput is expressed against: the metric
/// reads as ops per second on a machine that runs the kernel in 10 ms.
inline constexpr double kReferenceKernelSeconds = 0.010;

/// Wall seconds of one run of the calibration kernel.
inline double calibration_kernel_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL, sum = 0;
  std::map<std::uint64_t, std::string> tree;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> buckets;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree.emplace(x, std::string(24 + x % 40, 'a'));
    buckets[x % 5000].push_back(x);
  }
  for (const auto& [k, v] : tree) sum += v.size() ^ k;
  for (auto& [k, v] : buckets) {
    std::sort(v.begin(), v.end());
    sum += v.front();
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench

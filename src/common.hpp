// Shared identifiers and constants for the M&M model (paper §3).
//
// The system has n processes P = {p1..pn} and m memories M = {µ1..µm}.
// ProcessIds are 1-based to match the paper's naming (p1 is the default
// leader in Cheap Quorum and Protected Memory Paxos).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bytes.hpp"

namespace mnm {

using ProcessId = std::uint32_t;  // p1 == 1
using MemoryId = std::uint32_t;   // µ1 == 1
using RegionId = std::uint32_t;
/// Log-slot index for multi-decree replication (core::ConsensusEngine /
/// smr::Log). Slots are 0-based and contiguous.
using Slot = std::uint64_t;

inline constexpr ProcessId kLeaderP1 = 1;

/// All process ids 1..n.
inline std::vector<ProcessId> all_processes(std::size_t n) {
  std::vector<ProcessId> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<ProcessId>(i + 1);
  return out;
}

/// Majority threshold for a set of `count` agents: floor(count/2) + 1.
inline std::size_t majority(std::size_t count) { return count / 2 + 1; }

/// num / den, or 0 when den is 0: the ratios run reports derive from their
/// integer counters.
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

using util::Bytes;

}  // namespace mnm

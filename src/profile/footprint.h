#pragma once

#include <array>
#include <span>
#include <string>

#include "core/execution_group.h"
#include "profile/call_graph.h"

namespace bufferdb::profile {

/// Measured per-module instruction footprints (the paper's Table 2),
/// computed by summing the binary sizes of the functions each module was
/// observed to call. Combining modules counts shared functions once (§6.1).
class FootprintTable {
 public:
  FootprintTable() = default;

  /// Builds the table from a recorder that has observed calibration queries.
  static FootprintTable FromRecorder(const CallGraphRecorder& recorder);

  bool has(sim::ModuleId module) const {
    return !funcs_[static_cast<size_t>(module)].empty();
  }
  const FuncSet& funcs(sim::ModuleId module) const {
    return funcs_[static_cast<size_t>(module)];
  }
  uint64_t footprint_bytes(sim::ModuleId module) const {
    return funcs_[static_cast<size_t>(module)].TotalBytes();
  }

  /// Combined footprint of several modules, shared functions counted once.
  uint64_t CombinedBytes(std::span<const sim::ModuleId> modules) const;

  /// The naive *static* estimate for a module: every function reachable in
  /// the static call graph, including cold paths that never execute. The
  /// paper rejects this in §6.1 because it overestimates; exposed here so
  /// the overestimate can be demonstrated (see footprint tests and
  /// bench_table2_footprints).
  uint64_t StaticEstimateBytes(sim::ModuleId module) const;

  /// Formats the table in the layout of the paper's Table 2.
  std::string ToString() const;

 private:
  std::array<FuncSet, sim::kNumModuleIds> funcs_;
};

}  // namespace bufferdb::profile


// The three benchmark workloads' study shapes, shared by the input
// generator and the measured process.  README.md records why each shape
// was chosen.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fmri/presets.hpp"

namespace e2e {

struct WorkloadSpec {
  std::string name;
  std::size_t voxels = 0;
  bool sharded = false;             ///< input is an fcma.shards.v1 store
  std::size_t memory_budget = 0;    ///< --memory-budget bytes (0 = resident)
};

/// Shapes common to every workload: 6 subjects x 12 epochs of 12 TRs and
/// 64 planted informative voxels.
inline fcma::fmri::DatasetSpec study_spec(const WorkloadSpec& w,
                                          std::uint64_t seed) {
  fcma::fmri::DatasetSpec s;
  s.name = w.name;
  s.voxels = w.voxels;
  s.subjects = 6;
  s.epochs_total = 72;
  s.epoch_length = 12;
  s.informative = 64;
  s.signal = 0.8;
  s.ar1 = 0.3;
  s.seed = seed;
  return s;
}

inline WorkloadSpec workload_spec(const std::string& name) {
  if (name == "wholebrain") return {name, 1536, false, 0};
  if (name == "loso") return {name, 1024, false, 0};
  if (name == "farm-streamed") return {name, 1024, true, 8u << 20};
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e

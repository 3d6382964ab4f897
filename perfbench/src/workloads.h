// The three benchmark workloads (see perfbench/README.md for why each
// exists and which layers it isolates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics with engine tracing off. true: the per-layer
  /// metrics, timed from outside around each layer's public entry points.
  bool trace = false;
  /// Provenance stamped on the result (passed in by run.py).
  std::string git_sha;
  std::string src_digest;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line: the stamp, every
  /// per-class figure with its sample count, error_rate.
  std::vector<std::string> info;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; exits the process with a message on a set-up error.
Report RunWorkload(const RunConfig& config);

}  // namespace perfbench

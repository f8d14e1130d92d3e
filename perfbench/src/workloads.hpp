#pragma once

/// \file workloads.hpp
/// The benchmark's workloads and the runner behind them. A run is a
/// number of rounds sized to its time: each round sets the stack up from
/// scratch and then serves its seed-derived input (timed in CPU time as the
/// measurement). With tracing on, every round is served twice, untraced and
/// through the wrapped components, and the two modeled results must agree
/// bit for bit.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/serve_metrics.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;  ///< where the traced run writes its spans ("" = nowhere)
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< requests (serving) or steps (exec_decode)
  std::uint64_t failed = 0;     ///< operations that threw or produced wrong output
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;  ///< run_meta entries
  std::vector<std::string> notes;  ///< human-readable report lines

  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
};

/// Workload names in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

/// 64-bit digest over every modeled number of a serving run (per-request
/// timestamps and gaps, step latencies, busy times, cache and transfer
/// counters, KV accounting). Equal digests mean bit-identical results.
[[nodiscard]] std::uint64_t modeled_digest(const hybrimoe::runtime::ServeMetrics& m);

}  // namespace perfbench

/// \file main.cpp
/// perfbench — the repository benchmark binary.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--spans FILE] [--git-sha SHA]
///   perfbench --selftest
///
/// Prints a run_meta line, report lines starting with '#', one line per
/// metric, and as its last line the result object
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
/// are the end-to-end ones (untraced); with --trace 1 the per-layer ones
/// from a separate traced run. Exit code 0 whenever a result was printed;
/// 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "kernels/simd.hpp"
#include "selftest.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string quote(std::string_view s) { return hybrimoe::util::json::quote(s); }

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--git-sha SHA]\n       perfbench --selftest\n";
  std::exit(2);
}

void print_run_meta(const RunOptions& o, const std::string& git_sha, const RunResult& r) {
  namespace k = hybrimoe::kernels::simd;
  std::cout << "run_meta {\"git_sha\": " << quote(git_sha)
            << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
            << ", \"flags\": " << quote(PERFBENCH_FLAGS)
            << ", \"isa_compiled\": " << quote(k::to_string(k::compiled_level()))
            << ", \"isa_detected\": " << quote(k::to_string(k::detected_level()))
            << ", \"isa_active\": " << quote(k::to_string(k::active_level()))
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workload\": " << quote(o.workload) << ", \"seed\": " << o.seed
            << ", \"seconds\": " << number(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0);
  for (const auto& [key, value] : r.meta) std::cout << ", " << quote(key) << ": " << quote(value);
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const auto failures = perfbench::run_selftest();
      for (const auto& f : failures) std::cout << "FAIL " << f << "\n";
      std::cout << (failures.empty() ? "selftest PASS\n" : "selftest FAIL\n");
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        o.span_file = value;
      } else if (arg == "--git-sha") {
        git_sha = value;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": '" + value + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  bool known = false;
  for (const auto& name : perfbench::workload_names()) known = known || name == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");

  const auto selftest = perfbench::run_selftest();
  RunResult r = perfbench::run_workload(o);
  for (const auto& f : selftest) r.errors.push_back("selftest: " + f);
  for (const auto& m : r.metrics)
    if (!std::isfinite(m.value)) r.errors.push_back("metric " + m.name + " is not finite");

  print_run_meta(o, git_sha, r);
  for (const auto& note : r.notes) std::cout << "# " << note << "\n";
  for (const auto& e : r.errors) std::cout << "# CHECK FAILED: " << e << "\n";
  for (const auto& m : r.metrics)
    std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit << "\n";

  std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) continue;
    std::cout << (first ? "" : ", ") << quote(m.name) << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

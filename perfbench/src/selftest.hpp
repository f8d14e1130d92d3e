#pragma once

/// \file selftest.hpp
/// Checks of the benchmark's own machinery, run before every measurement:
/// the percentile rules, span self-time arithmetic, and that the wrapped
/// registry keys leave a stack's modeled results bit-identical.

#include <string>
#include <vector>

namespace perfbench {

/// Returns one message per failed check (empty when all pass).
[[nodiscard]] std::vector<std::string> run_selftest();

}  // namespace perfbench

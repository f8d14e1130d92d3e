#pragma once

/// \file wrappers.hpp
/// Benchmark-only registry keys for the traced run. Each wraps a built-in
/// component factory (the `hybrid` scheduler, the `impact` prefetcher, the
/// `mrs` cache policy), forwards every virtual call to the wrapped component
/// unchanged, and records a span (or a coalesced leaf) around it on the
/// active SpanRecorder. The wrappers are pure observers: a stack built from
/// them produces the same ServeMetrics, bit for bit, as the plain preset.

#include <cstdint>
#include <unordered_set>

#include "moe/expert_id.hpp"
#include "runtime/stack_registry.hpp"

namespace perfbench {

inline constexpr const char* kTracedScheduler = "perfbench-hybrid";
inline constexpr const char* kTracedPrefetcher = "perfbench-impact";
inline constexpr const char* kTracedPolicy = "perfbench-mrs";

/// Register the three wrapped keys (idempotent).
void register_wrappers();

/// Wrap a prefetcher factory; a factory that builds no prefetcher (the
/// "none" key returns nullptr) still builds none.
[[nodiscard]] hybrimoe::runtime::PrefetcherFactory traced_prefetcher_factory(
    hybrimoe::runtime::PrefetcherFactory inner);

/// `spec` with its hybrid/impact/mrs keys swapped for the wrapped ones.
[[nodiscard]] hybrimoe::runtime::StackSpec traced_spec(
    hybrimoe::runtime::StackSpec spec);

/// Counts the wrappers collect at their layer boundaries.
struct LayerCounters {
  std::uint64_t step = 0;              ///< id stamped on schedule/prefetch spans
  std::uint64_t plan_tasks = 0;        ///< expert tasks across every plan
  std::uint64_t decisions = 0;         ///< prefetch decisions returned
  /// Decisions whose expert was demanded as cached at its target layer in
  /// the same step.
  std::uint64_t useful_decisions = 0;
  /// Decisions of the current step not yet matched by a cached demand.
  std::unordered_set<hybrimoe::moe::ExpertId> pending;

  /// Start step `index`: decisions never cross a step boundary.
  void begin_step(std::uint64_t index) {
    step = index;
    pending.clear();
  }
};
[[nodiscard]] LayerCounters& counters();

}  // namespace perfbench

#pragma once

/// \file stats.hpp
/// The benchmark's own statistics: percentiles named the way metrics are
/// named ("p50", "p99"), and the rule that picks the highest percentile a
/// sample supports — the one with at least ten samples beyond it.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// q in [0,100] for a percentile name "p<q>" ("p50" -> 50, "p99.9" -> 99.9).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] double quantile_from_name(std::string_view name);

/// Percentile names the tail rule chooses from, highest first. p99 is left
/// out: on a Poisson stream of small requests (the Tiny model at 500 req/s)
/// over 1% of requests sit exactly on the model's slowest step, so a p99
/// would read the same for every seed and say nothing.
inline constexpr std::string_view kTailPercentiles[] = {"p95", "p90", "p75", "p50"};

/// The highest of kTailPercentiles with at least ten of `n` samples beyond
/// it (n * (100 - q) / 100 >= 10); nullopt when even p50 has fewer.
[[nodiscard]] std::optional<std::string_view> tail_percentile(std::size_t n);

/// Linear-interpolated percentile with q in [0,100] (q outside that range
/// throws, so a fraction such as 0.5 is never silently read as p0.5).
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// percentile(values, 50).
[[nodiscard]] double median(std::span<const double> values);

/// A distribution summarised the way the benchmark reports timings: its
/// median, the highest supported tail percentile and the sample count.
struct Tail {
  std::size_t samples = 0;
  double p50 = 0.0;
  std::string_view tail_name;  ///< empty when fewer than 20 samples
  double tail = 0.0;
};
[[nodiscard]] Tail summarize(std::span<const double> values);

}  // namespace perfbench

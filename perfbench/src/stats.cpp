#include "stats.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

#include "util/stats.hpp"

namespace perfbench {

double quantile_from_name(std::string_view name) {
  if (name.size() < 2 || name.front() != 'p')
    throw std::invalid_argument("percentile name must look like p50: '" +
                                std::string(name) + "'");
  double q = 0.0;
  const char* first = name.data() + 1;
  const char* last = name.data() + name.size();
  const auto [end, error] = std::from_chars(first, last, q);
  if (error != std::errc() || end != last || !(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("bad percentile name '" + std::string(name) + "'");
  return q;
}

std::optional<std::string_view> tail_percentile(std::size_t n) {
  for (const std::string_view name : kTailPercentiles) {
    const double beyond = static_cast<double>(n) * (100.0 - quantile_from_name(name));
    if (beyond >= 10.0 * 100.0 - 1e-9) return name;
  }
  return std::nullopt;
}

double percentile(std::span<const double> values, double q) {
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("percentile q must lie in [0,100], got " +
                                std::to_string(q));
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  return hybrimoe::util::percentile(values, q);
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

Tail summarize(std::span<const double> values) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  out.p50 = median(values);
  if (const auto name = tail_percentile(values.size())) {
    out.tail_name = *name;
    out.tail = percentile(values, quantile_from_name(*name));
  }
  return out;
}

}  // namespace perfbench

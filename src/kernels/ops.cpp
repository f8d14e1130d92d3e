#include "kernels/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "kernels/simd.hpp"

namespace hybrimoe::kernels {

Tensor Tensor::randn(util::Rng& rng, std::size_t rows, std::size_t cols, double stddev) {
  Tensor t(rows, cols);
  fill_randn(rng, t.flat(), cols, stddev);
  return t;
}

void fill_randn(util::Rng& rng, std::span<float> out, std::size_t cols, double stddev) {
  const double scale = stddev > 0.0 ? stddev : 1.0 / std::sqrt(static_cast<double>(cols));
  for (float& v : out) v = static_cast<float>(rng.gaussian(0.0, scale));
}

std::vector<float> gemv(const Tensor& w, std::span<const float> x) {
  std::vector<float> y(w.rows(), 0.0f);
  gemv_into(w, x, y);
  return y;
}

void gemv_into(const Tensor& w, std::span<const float> x, std::span<float> y) {
  HYBRIMOE_REQUIRE(w.cols() == x.size(), "gemv dimension mismatch");
  HYBRIMOE_REQUIRE(w.rows() == y.size(), "gemv output dimension mismatch");
  // Rows accumulate in double for reproducible small-scale math; simd::gemv
  // keeps that contract in both its scalar and vector variants.
  simd::gemv(w.flat(), w.rows(), x, y);
}

Tensor gemm(const Tensor& a, const Tensor& b) {
  HYBRIMOE_REQUIRE(a.cols() == b.rows(), "gemm dimension mismatch");
  Tensor c(a.rows(), b.cols());
  // ikj ordering: unit-stride access on both B and C rows.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto a_row = a.row(i);
    const auto c_row = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a_row[k];
      if (aik == 0.0f) continue;
      const auto b_row = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) c_row[j] += aik * b_row[j];
    }
  }
  return c;
}

void softmax_inplace(std::span<float> values) {
  if (values.empty()) return;
  const float max_v = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (float& v : values) {
    v = std::exp(v - max_v);
    sum += v;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& v : values) v *= inv;
}

std::vector<float> softmax_over(std::span<const float> values,
                                std::span<const std::uint32_t> indices) {
  HYBRIMOE_REQUIRE(!indices.empty(), "softmax_over requires at least one index");
  float max_v = -std::numeric_limits<float>::infinity();
  for (const auto idx : indices) {
    HYBRIMOE_REQUIRE(idx < values.size(), "softmax_over index out of range");
    max_v = std::max(max_v, values[idx]);
  }
  std::vector<float> weights(indices.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    weights[i] = std::exp(values[indices[i]] - max_v);
    sum += weights[i];
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& w : weights) w *= inv;
  return weights;
}

std::vector<std::uint32_t> topk_indices(std::span<const float> values, std::size_t k) {
  HYBRIMOE_REQUIRE(k > 0 && k <= values.size(), "topk k out of range");
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0U);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::uint32_t a, std::uint32_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

void silu_inplace(std::span<float> values) { simd::silu(values); }

void swiglu_combine(std::span<const float> gate, std::span<const float> up,
                    std::span<float> out) {
  HYBRIMOE_REQUIRE(gate.size() == up.size() && gate.size() == out.size(),
                   "swiglu_combine length mismatch");
  simd::swiglu(gate, up, out);
}

void rmsnorm_inplace(std::span<float> values, float eps) {
  if (values.empty()) return;
  simd::rmsnorm(values, eps);
}

double l2_norm(std::span<const float> values) noexcept {
  double sq = 0.0;
  for (const float v : values) sq += static_cast<double>(v) * v;
  return std::sqrt(sq);
}

double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  HYBRIMOE_REQUIRE(a.size() == b.size(), "max_abs_diff length mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]));
  return worst;
}

}  // namespace hybrimoe::kernels

#include "kernels/expert.hpp"

#include <gtest/gtest.h>

#include "kernels/ops.hpp"
#include "util/rng.hpp"

namespace hybrimoe::kernels {
namespace {

TEST(ExpertTest, ShapesAndDeterminism) {
  util::Rng rng1(21);
  util::Rng rng2(21);
  const auto w1 = ExpertWeights::random(rng1, 24, 48);
  const auto w2 = ExpertWeights::random(rng2, 24, 48);
  EXPECT_EQ(w1.d_model(), 24U);
  EXPECT_EQ(w1.d_ff(), 48U);
  EXPECT_EQ(w1.dense_bytes(), (3 * 24 * 48) * sizeof(float));

  std::vector<float> x(24);
  for (float& v : x) v = static_cast<float>(rng1.gaussian());
  const auto y1 = expert_forward(w1, x);
  const auto y2 = expert_forward(w2, x);
  ASSERT_EQ(y1.size(), 24U);
  EXPECT_EQ(max_abs_diff(y1, y2), 0.0);
}

TEST(ExpertTest, DimensionMismatchThrows) {
  util::Rng rng(22);
  const auto w = ExpertWeights::random(rng, 24, 48);
  const std::vector<float> x(16, 0.0f);
  EXPECT_THROW((void)expert_forward(w, x), std::invalid_argument);
}

TEST(ExpertTest, ZeroInputGivesZeroOutput) {
  util::Rng rng(23);
  const auto w = ExpertWeights::random(rng, 16, 32);
  const std::vector<float> x(16, 0.0f);
  const auto y = expert_forward(w, x);
  for (const float v : y) EXPECT_EQ(v, 0.0f);  // SiLU(0) * anything = 0
}

TEST(QuantizedExpertTest, CloseToDense) {
  util::Rng rng(24);
  const auto dense = ExpertWeights::random(rng, 32, 64);
  const QuantizedExpert q(dense);
  EXPECT_EQ(q.d_model(), 32U);
  EXPECT_EQ(q.d_ff(), 64U);

  std::vector<float> x(32);
  for (float& v : x) v = static_cast<float>(rng.gaussian());
  const auto y_dense = expert_forward(dense, x);
  const auto y_quant = q.forward(x);
  ASSERT_EQ(y_dense.size(), y_quant.size());
  // Relative error of a 3-matrix Q4 pipeline stays moderate.
  const double denom = l2_norm(y_dense) + 1e-9;
  std::vector<float> diff(y_dense.size());
  for (std::size_t i = 0; i < diff.size(); ++i) diff[i] = y_dense[i] - y_quant[i];
  EXPECT_LT(l2_norm(diff) / denom, 0.15);
}

TEST(QuantizedExpertTest, StorageIsRoughly6xSmaller) {
  util::Rng rng(25);
  const auto dense = ExpertWeights::random(rng, 64, 128);
  const QuantizedExpert q(dense);
  const double ratio =
      static_cast<double>(dense.dense_bytes()) / static_cast<double>(q.storage_bytes());
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 7.0);
}

TEST(QuantizedExpertTest, ForwardDimensionMismatchThrows) {
  util::Rng rng(26);
  const QuantizedExpert q(ExpertWeights::random(rng, 16, 32));
  const std::vector<float> x(8, 0.0f);
  EXPECT_THROW((void)q.forward(x), std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::kernels

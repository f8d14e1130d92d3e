/// SIMD-vs-scalar equivalence for every dispatched primitive in
/// kernels/simd.hpp: the AVX2 variants must agree with the portable scalar
/// loops to within the ulp bounds the header documents, across every length
/// 1..67 (straddling all vector-width remainders), on unaligned spans and on
/// denormal / negative-zero inputs. Both dispatch levels are exercised via
/// ForcedLevel; when the host lacks AVX2 the comparison cases skip (the
/// scalar path is then the only variant and is covered by ops/quant tests).
/// The whole-matrix gemv / q4_gemv are held to a stricter contract: at each
/// level, bit-identical to that level's per-row dot / q4_dot, with a frozen
/// per-row reference expert forward as the end-to-end proof.

#include "kernels/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "kernels/expert.hpp"
#include "kernels/ops.hpp"
#include "kernels/quant.hpp"
#include "util/rng.hpp"

namespace hybrimoe::kernels::simd {
namespace {

bool avx2_available() { return level_available(IsaLevel::Avx2); }

/// Map a float onto a monotonically ordered integer line so that adjacent
/// representable floats differ by exactly 1 (the classic ulp metric; +0 and
/// -0 coincide).
std::int64_t ordered(float f) {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  return (bits & 0x8000'0000u) ? -static_cast<std::int64_t>(bits & 0x7FFF'FFFFu)
                               : static_cast<std::int64_t>(bits);
}

std::int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::int64_t>::max();
  return std::abs(ordered(a) - ordered(b));
}

/// The mixed equivalence criterion: within `max_ulp` ulp, or within an
/// absolute epsilon (needed where one variant flushes to a tiny value and the
/// other to zero — e.g. silu at large negative inputs, where the vector exp
/// clamps while libm overflows to inf).
void expect_close(float a, float b, std::int64_t max_ulp, double max_abs,
                  const char* what, std::size_t index) {
  EXPECT_TRUE(ulp_distance(a, b) <= max_ulp ||
              std::abs(static_cast<double>(a) - b) <= max_abs)
      << what << " diverges at index " << index << ": scalar=" << a
      << " simd=" << b << " (" << ulp_distance(a, b) << " ulp)";
}

/// Deterministic test vector with a mix of magnitudes and signs.
std::vector<float> make_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.gaussian(0.0, 1.0 + static_cast<double>(i % 5)));
  return v;
}

/// An unaligned view: one float past the vector's (typically 16/32-byte
/// aligned) base, so 256-bit loads cannot be aligned. All AVX2 paths must use
/// unaligned loads for this to pass under UBSan/ASan.
std::span<float> unaligned(std::vector<float>& storage, std::size_t n) {
  storage.assign(n + 1, 0.0f);
  return std::span<float>(storage).subspan(1);
}

/// Inputs that stress the edges of float: denormals, signed zeros, and
/// values around the vector-exp clamp range.
std::vector<float> edge_values() {
  return {0.0f,
          -0.0f,
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          1e-41f,
          -1e-41f,
          std::numeric_limits<float>::min(),
          -std::numeric_limits<float>::min(),
          1e-20f,
          -1e-20f,
          1.5f,
          -1.5f,
          30.0f,
          -30.0f,
          88.0f,
          -88.0f,
          100.0f,
          -100.0f};
}

// ---------------------------------------------------------------------------
// Dispatch plumbing

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(to_string(IsaLevel::Scalar), "scalar");
  EXPECT_STREQ(to_string(IsaLevel::Avx2), "avx2");
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(level_available(IsaLevel::Scalar));
  EXPECT_LE(static_cast<int>(detected_level()),
            static_cast<int>(compiled_level()));
}

TEST(SimdDispatchTest, ForcedLevelPinsAndRestores) {
  const IsaLevel before = active_level();
  {
    ForcedLevel pin(IsaLevel::Scalar);
    EXPECT_EQ(active_level(), IsaLevel::Scalar);
  }
  EXPECT_EQ(active_level(), before);
  if (avx2_available()) {
    ForcedLevel pin(IsaLevel::Avx2);
    EXPECT_EQ(active_level(), IsaLevel::Avx2);
  }
}

TEST(SimdDispatchTest, ForcingUnavailableLevelThrows) {
  if (avx2_available()) GTEST_SKIP() << "AVX2 available; nothing to reject";
  EXPECT_THROW(force_level(IsaLevel::Avx2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-primitive sweeps over every length 1..67 (covers all 16/8/4-lane
// remainders on both sides of a full 64-wide body).

class SimdSweepTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!avx2_available())
      GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
};

TEST_P(SimdSweepTest, DotMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto a = make_values(n, 100 + n);
  const auto b = make_values(n, 200 + n);
  double scalar = 0.0, vectorized = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = dot(a, b);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    vectorized = dot(a, b);
  }
  // Both variants accumulate float products exactly in double; only the
  // association differs, so after rounding to float they agree to a few ulp.
  expect_close(static_cast<float>(scalar), static_cast<float>(vectorized), 4,
               1e-9, "dot", 0);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

TEST_P(SimdSweepTest, SiluMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto src = make_values(n, 300 + n);
  std::vector<float> scalar_out(src), simd_out(src);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    silu(scalar_out);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    silu(simd_out);
  }
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 64, 1e-7, "silu", i);
}

TEST_P(SimdSweepTest, SwigluMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto gate = make_values(n, 400 + n);
  const auto up = make_values(n, 500 + n);
  std::vector<float> scalar_out(n), simd_out(n);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    swiglu(gate, up, scalar_out);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    swiglu(gate, up, simd_out);
  }
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 64, 1e-6, "swiglu", i);
}

TEST_P(SimdSweepTest, RmsnormMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto src = make_values(n, 600 + n);
  std::vector<float> scalar_out(src), simd_out(src);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    rmsnorm(scalar_out, 1e-6f);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    rmsnorm(simd_out, 1e-6f);
  }
  // Sum of squares is double-accumulated in both variants; the normalisation
  // multiply differs by at most one rounding.
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 4, 1e-9, "rmsnorm", i);
}

TEST_P(SimdSweepTest, Q4DotMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto weights = make_values(n, 700 + n);
  const auto x = make_values(n, 800 + n);
  const auto blocks = q4_quantize_row(weights);
  double scalar = 0.0, vectorized = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = q4_dot(blocks, x);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    vectorized = q4_dot(blocks, x);
  }
  expect_close(static_cast<float>(scalar), static_cast<float>(vectorized), 4,
               1e-9, "q4_dot", 0);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

INSTANTIATE_TEST_SUITE_P(Lengths1To67, SimdSweepTest,
                         ::testing::Range(std::size_t{1}, std::size_t{68}));

// ---------------------------------------------------------------------------
// Unaligned spans: every vector load/store must be alignment-agnostic.

TEST(SimdUnalignedTest, AllPrimitivesAcceptMisalignedSpans) {
  if (!avx2_available()) GTEST_SKIP() << "host has no AVX2";
  const std::size_t n = 53;  // odd length on top of the odd base offset
  const auto values = make_values(n, 42);
  const auto other = make_values(n, 43);

  std::vector<float> storage_a, storage_b, storage_out;
  const auto a = unaligned(storage_a, n);
  const auto b = unaligned(storage_b, n);
  const auto out = unaligned(storage_out, n);
  std::copy(values.begin(), values.end(), a.begin());
  std::copy(other.begin(), other.end(), b.begin());

  ForcedLevel pin(IsaLevel::Avx2);
  const double d = dot(a, b);
  EXPECT_TRUE(std::isfinite(d));
  swiglu(a, b, out);
  silu(a);
  rmsnorm(b, 1e-6f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(a[i]));
    EXPECT_TRUE(std::isfinite(b[i]));
    EXPECT_TRUE(std::isfinite(out[i]));
  }

  // And the unaligned results equal the aligned ones (same math, different
  // addresses).
  std::vector<float> aligned_a(values), aligned_b(other), aligned_out(n);
  EXPECT_EQ(dot(aligned_a, aligned_b), d);
  swiglu(aligned_a, aligned_b, aligned_out);
  silu(aligned_a);
  rmsnorm(aligned_b, 1e-6f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(aligned_a[i], a[i]) << "silu aligned/unaligned mismatch at " << i;
    EXPECT_EQ(aligned_b[i], b[i]) << "rmsnorm aligned/unaligned mismatch at " << i;
    EXPECT_EQ(aligned_out[i], out[i]) << "swiglu aligned/unaligned mismatch at " << i;
  }
}

// ---------------------------------------------------------------------------
// Denormals, signed zeros and clamp-range extremes.

TEST(SimdEdgeInputTest, DotHandlesDenormalsAndSignedZeros) {
  const auto edges = edge_values();
  std::vector<float> ones(edges.size(), 1.0f);
  double scalar = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = dot(edges, ones);
    EXPECT_TRUE(std::isfinite(scalar));
  }
  if (!avx2_available()) return;
  ForcedLevel pin(IsaLevel::Avx2);
  const double vectorized = dot(edges, ones);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

TEST(SimdEdgeInputTest, SiluHandlesDenormalsAndClampRange) {
  const auto edges = edge_values();
  std::vector<float> scalar_out(edges), simd_out(edges);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    silu(scalar_out);
  }
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_TRUE(std::isfinite(scalar_out[i])) << "input " << edges[i];
  // silu(-0.0) = -0.0 / 2: the sign of zero must survive.
  EXPECT_TRUE(std::signbit(scalar_out[1]));
  if (!avx2_available()) return;
  {
    ForcedLevel pin(IsaLevel::Avx2);
    silu(simd_out);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_TRUE(std::isfinite(simd_out[i])) << "input " << edges[i];
    // Large-|x| inputs hit the vector exp clamp, where one side flushes to
    // zero and the other to ~1e-37 — covered by the absolute term.
    expect_close(scalar_out[i], simd_out[i], 64, 1e-7, "silu-edge", i);
  }
}

TEST(SimdEdgeInputTest, RmsnormOfDenormalsStaysFinite) {
  // A vector of pure denormals: mean square underflows to ~0 and eps
  // dominates, so the result must stay finite (and tiny) at both levels.
  std::vector<float> scalar_vals(16, std::numeric_limits<float>::denorm_min());
  std::vector<float> simd_vals(scalar_vals);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    rmsnorm(scalar_vals, 1e-6f);
  }
  for (const float v : scalar_vals) EXPECT_TRUE(std::isfinite(v));
  if (!avx2_available()) return;
  {
    ForcedLevel pin(IsaLevel::Avx2);
    rmsnorm(simd_vals, 1e-6f);
  }
  for (std::size_t i = 0; i < simd_vals.size(); ++i) {
    EXPECT_TRUE(std::isfinite(simd_vals[i]));
    expect_close(scalar_vals[i], simd_vals[i], 4, 1e-9, "rmsnorm-denormal", i);
  }
}

// ---------------------------------------------------------------------------
// Whole-matrix gemv: at each level, bit-identical to per-row dot.

/// Every level this host can run (Scalar always, Avx2 when detected).
std::vector<IsaLevel> runnable_levels() {
  std::vector<IsaLevel> levels{IsaLevel::Scalar};
  if (avx2_available()) levels.push_back(IsaLevel::Avx2);
  return levels;
}

/// Bitwise float equality (distinguishes -0 from +0, unlike ==).
bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

class SimdGemvTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdGemvTest, EveryRowEqualsPerRowDotBitForBit) {
  const std::size_t cols = GetParam();
  const auto x = make_values(cols, 900 + cols);
  for (const IsaLevel level : runnable_levels()) {
    ForcedLevel pin(level);
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      const auto values = make_values(rows * cols, 1000 + rows * 100 + cols);
      // Exactly sized allocations, so the matrix ends where its storage
      // does (ASan flags any read past it): one aligned as allocated, one
      // offset by a float so no row starts on a vector boundary.
      std::vector<float> aligned(values);
      std::vector<float> storage;
      const auto offset = unaligned(storage, rows * cols);
      std::copy(values.begin(), values.end(), offset.begin());
      for (const std::span<const float> w :
           {std::span<const float>(aligned), std::span<const float>(offset)}) {
        std::vector<float> y(rows);
        gemv(w, rows, x, y);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto expected =
              static_cast<float>(dot(w.subspan(r * cols, cols), x));
          EXPECT_TRUE(same_bits(y[r], expected))
              << to_string(level) << " rows=" << rows << " cols=" << cols
              << " row " << r << ": gemv=" << y[r] << " dot=" << expected;
        }
      }
    }
  }
}

/// A [rows x cols] matrix and an x whose row dots cancel: each row's second
/// half repeats its first, and x's second half is minus its first at scale
/// 1e9 plus an O(1) perturbation. Partial sums reach ~1e9 while the dots
/// are O(1), so double rounding errors show up in the float results and a
/// change in accumulation order changes the output bits.
struct CancellingCase {
  std::vector<float> w, x;
};

CancellingCase cancelling_case(std::size_t rows, std::size_t cols) {
  const std::size_t half = cols / 2;
  const auto u = make_values(cols, 1500 + cols);
  const auto e = make_values(cols, 1600 + cols);
  CancellingCase c{make_values(rows * cols, 1700 + rows * 100 + cols),
                   std::vector<float>(cols)};
  for (std::size_t i = 0; i < half; ++i) {
    c.x[i] = 1e9f * u[i];
    c.x[half + i] = -1e9f * u[i] + e[i];
  }
  if (cols % 2 == 1) c.x[cols - 1] = e[cols - 1];
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < half; ++i)
      c.w[r * cols + half + i] = c.w[r * cols + i];
  return c;
}

TEST(SimdGemvCancellationTest, AccumulationOrderIsExactlyPerRowDot) {
  std::size_t level_disagreements = 0;
  for (std::size_t cols = 1; cols <= 67; ++cols) {
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      const CancellingCase c = cancelling_case(rows, cols);
      std::vector<std::vector<float>> per_level;
      for (const IsaLevel level : runnable_levels()) {
        ForcedLevel pin(level);
        std::vector<float> y(rows);
        gemv(c.w, rows, c.x, y);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto expected = static_cast<float>(
              dot(std::span<const float>(c.w).subspan(r * cols, cols), c.x));
          EXPECT_TRUE(same_bits(y[r], expected))
              << to_string(level) << " rows=" << rows << " cols=" << cols
              << " row " << r << ": gemv=" << y[r] << " dot=" << expected;
        }
        per_level.push_back(std::move(y));
      }
      if (per_level.size() == 2)
        for (std::size_t r = 0; r < rows; ++r)
          if (!same_bits(per_level[0][r], per_level[1][r])) ++level_disagreements;
    }
  }
  // The inputs must be able to tell accumulation orders apart, or the
  // bit-identity above proves nothing: scalar and AVX2 associate the sum
  // differently, so on these inputs they must disagree somewhere.
  if (avx2_available()) {
    EXPECT_GT(level_disagreements, 0U);
  }
}

TEST_P(SimdGemvTest, Q4GemvEqualsPerRowQ4DotBitForBit) {
  const std::size_t cols = GetParam();
  const auto x = make_values(cols, 1100 + cols);
  const std::size_t rows = 1 + cols % 9;
  util::Rng rng(1200 + cols);
  const auto matrix =
      QuantizedMatrix::quantize(Tensor::randn(rng, rows, cols, 1.0));
  for (const IsaLevel level : runnable_levels()) {
    ForcedLevel pin(level);
    std::vector<float> y(rows);
    matrix.gemv_into(x, y);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto expected = static_cast<float>(q4_dot(matrix.row_blocks(r), x));
      EXPECT_TRUE(same_bits(y[r], expected))
          << to_string(level) << " rows=" << rows << " cols=" << cols
          << " row " << r << ": q4 gemv=" << y[r] << " q4_dot=" << expected;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cols1To67, SimdGemvTest,
                         ::testing::Range(std::size_t{1}, std::size_t{68}));

TEST(SimdGemvShapeTest, EmptyShapesAndMismatchesAreHandled) {
  for (const IsaLevel level : runnable_levels()) {
    ForcedLevel pin(level);
    const std::vector<float> x(3, 1.0f);
    std::vector<float> none;
    gemv({}, 0, x, none);  // zero rows: nothing to write
    std::vector<float> y(2, 7.0f);
    gemv({}, 2, {}, y);    // zero columns: every row sums to 0
    EXPECT_EQ(y, std::vector<float>(2, 0.0f));
    const std::vector<float> w(5, 1.0f);
    EXPECT_THROW(gemv(w, 2, x, y), std::invalid_argument);
    std::vector<float> short_y(1);
    EXPECT_THROW(gemv(std::vector<float>(6, 1.0f), 2, x, short_y),
                 std::invalid_argument);
  }
}

/// The expert forward as it was computed before the whole-matrix gemv: one
/// simd::dot per output row of gate, up and down, then the SwiGLU combine.
/// Frozen here as the reference kernels::expert_forward must reproduce byte
/// for byte.
std::vector<float> per_row_expert_forward(const ExpertWeights& w,
                                          std::span<const float> x) {
  std::vector<float> gate(w.d_ff()), up(w.d_ff()), hidden(w.d_ff());
  for (std::size_t r = 0; r < w.d_ff(); ++r) {
    gate[r] = static_cast<float>(dot(w.gate.row(r), x));
    up[r] = static_cast<float>(dot(w.up.row(r), x));
  }
  swiglu(gate, up, hidden);
  std::vector<float> out(w.d_model());
  for (std::size_t r = 0; r < w.d_model(); ++r)
    out[r] = static_cast<float>(dot(w.down.row(r), hidden));
  return out;
}

TEST(SimdGemvExpertTest, ExpertForwardMatchesPerRowReferenceByteForByte) {
  struct Shape {
    std::size_t d_model, d_ff;
  };
  // The executor default, the benchmark's functional geometry, and odd
  // sizes that leave 8-value steps and scalar tails in every projection.
  for (const Shape shape : {Shape{32, 64}, Shape{256, 512}, Shape{37, 75},
                            Shape{9, 23}}) {
    util::Rng rng(1300 + shape.d_model);
    const auto weights = ExpertWeights::random(rng, shape.d_model, shape.d_ff);
    const auto x = make_values(shape.d_model, 1400 + shape.d_ff);
    for (const IsaLevel level : runnable_levels()) {
      ForcedLevel pin(level);
      const auto expected = per_row_expert_forward(weights, x);
      const auto actual = expert_forward(weights, x);
      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                            actual.size() * sizeof(float)),
                0)
          << to_string(level) << " d_model=" << shape.d_model
          << " d_ff=" << shape.d_ff;
    }
  }
}

}  // namespace
}  // namespace hybrimoe::kernels::simd

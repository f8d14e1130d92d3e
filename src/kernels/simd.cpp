#include "kernels/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"

// AVX2 variants are compiled with per-function target attributes, so the
// translation unit builds at the default architecture and one binary carries
// both paths. Only attempted on x86-64 GCC/Clang, where the attribute and
// __builtin_cpu_supports are reliable.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define HYBRIMOE_SIMD_AVX2 1
#include <immintrin.h>
#else
#define HYBRIMOE_SIMD_AVX2 0
#endif

namespace hybrimoe::kernels::simd {

namespace {

// -1 = auto-detect, otherwise the forced IsaLevel (test hook).
std::atomic<int> g_forced{-1};

IsaLevel probe_host() noexcept {
#if HYBRIMOE_SIMD_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return IsaLevel::Avx2;
#endif
  return IsaLevel::Scalar;
}

// ---------------------------------------------------------------------------
// Scalar variants — the portable ground truth (and the reference the
// equivalence suite pins the vector paths against).
// ---------------------------------------------------------------------------

double dot_scalar(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return acc;
}

void silu_scalar(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] / (1.0f + std::exp(-v[i]));
}

void swiglu_scalar(const float* gate, const float* up, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = gate[i] / (1.0f + std::exp(-gate[i]));
    out[i] = g * up[i];
  }
}

void rmsnorm_scalar(float* v, std::size_t n, float eps) {
  if (n == 0) return;
  double sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) sq += static_cast<double>(v[i]) * v[i];
  const auto inv =
      static_cast<float>(1.0 / std::sqrt(sq / static_cast<double>(n) + eps));
  for (std::size_t i = 0; i < n; ++i) v[i] *= inv;
}

/// Decode value `i` of a block to its integer code minus 8.
inline int q4_code(const Q4Block& block, std::size_t i) {
  const std::uint8_t byte = block.packed[i / 2];
  return ((i % 2 == 0) ? (byte & 0x0F) : (byte >> 4)) - 8;
}

double q4_dot_scalar(const Q4Block* blocks, const float* x, std::size_t n) {
  double acc = 0.0;
  const std::size_t num_blocks = (n + Q4Block::kValues - 1) / Q4Block::kValues;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const Q4Block& block = blocks[b];
    const std::size_t base = b * Q4Block::kValues;
    const std::size_t len = std::min(Q4Block::kValues, n - base);
    double block_acc = 0.0;
    for (std::size_t i = 0; i < len; ++i)
      block_acc += static_cast<double>(q4_code(block, i)) * x[base + i];
    acc += block_acc * block.scale;
  }
  return acc;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA variants. Accumulating primitives (dot, rmsnorm, q4_dot) widen
// every product to double before accumulating — a float*float product is
// exact in double, so the only difference from the scalar path is the
// association of the sum (a few ulp after rounding back to float). The exp
// in silu/swiglu is a Cephes-style degree-5 polynomial over the clamped
// range, accurate to ~2 ulp.
// ---------------------------------------------------------------------------
#if HYBRIMOE_SIMD_AVX2

#define HYBRIMOE_AVX2_FN __attribute__((target("avx2,fma")))

/// Fixed-order horizontal sum of a 4-lane double accumulator.
HYBRIMOE_AVX2_FN inline double hsum_pd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

/// Four consecutive values widened to double: floats are converted on load,
/// doubles (an operand the caller widened once up front) are read as is.
HYBRIMOE_AVX2_FN inline __m256d load4_pd(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
HYBRIMOE_AVX2_FN inline __m256d load4_pd(const double* p) { return _mm256_loadu_pd(p); }

/// Dot of `a` against `b` (floats, or doubles already widened from floats —
/// the same values, so the same result bit for bit). Four accumulators over
/// 16-value chunks, one 8-value step, a fixed-order horizontal sum, then the
/// scalar tail. With a non-null `ahead`, every 16-value chunk also prefetches
/// the line at the same offset of `ahead` (an equally long row further on).
template <typename B>
HYBRIMOE_AVX2_FN double dot_avx2(const float* a, const B* b, std::size_t n,
                                 const float* ahead = nullptr) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    if (ahead != nullptr)
      _mm_prefetch(reinterpret_cast<const char*>(ahead + i), _MM_HINT_T0);
    acc0 = _mm256_fmadd_pd(load4_pd(a + i), load4_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(load4_pd(a + i + 4), load4_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(load4_pd(a + i + 8), load4_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(load4_pd(a + i + 12), load4_pd(b + i + 12), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(load4_pd(a + i), load4_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(load4_pd(a + i + 4), load4_pd(b + i + 4), acc1);
  }
  double acc = hsum_pd(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                     _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return acc;
}

/// How many rows ahead of the one being reduced a whole-matrix gemv
/// prefetches. Decode-time expert weights do not fit in cache, so the row
/// stream, not the arithmetic, sets the pace. On 256x512 experts streamed
/// from beyond L2, 2, 4 and 8 rows ahead measured alike and 16 slower; 4
/// sits in the middle of that plateau.
constexpr std::size_t kPrefetchRows = 4;

/// Index of the row to prefetch while reducing row `r` of `rows` (> 0):
/// kPrefetchRows ahead, clamped to the last row, so the prefetch address is
/// always inside the matrix.
inline std::size_t ahead_row(std::size_t r, std::size_t rows) {
  return std::min(r + kPrefetchRows, rows - 1);
}

/// Whole-matrix gemv over `xd` (x widened once by the caller): each row gets
/// exactly dot_avx2's accumulation while the row kPrefetchRows ahead streams
/// in.
HYBRIMOE_AVX2_FN void gemv_avx2(const float* w, std::size_t rows, const double* xd,
                                std::size_t cols, float* y) {
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = static_cast<float>(
        dot_avx2(w + r * cols, xd, cols, w + ahead_row(r, rows) * cols));
}

/// Cephes-style expf over 8 lanes: 2^k * p(r) with the input clamped to the
/// finite range of float exp. ~2 ulp over the clamped range.
HYBRIMOE_AVX2_FN inline __m256 exp256_ps(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
  const __m256 fx = _mm256_floor_ps(
      _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f)));
  // r = x - fx * ln2, in two steps for accuracy.
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), _mm256_add_ps(x, one));

  // Scale by 2^fx through the exponent bits.
  const __m256i k = _mm256_add_epi32(_mm256_cvttps_epi32(fx),
                                     _mm256_set1_epi32(127));
  return _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32(k, 23)));
}

HYBRIMOE_AVX2_FN void silu_avx2(float* v, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 denom = _mm256_add_ps(one, exp256_ps(_mm256_sub_ps(zero, x)));
    _mm256_storeu_ps(v + i, _mm256_div_ps(x, denom));
  }
  for (; i < n; ++i) v[i] = v[i] / (1.0f + std::exp(-v[i]));
}

HYBRIMOE_AVX2_FN void swiglu_avx2(const float* gate, const float* up, float* out,
                                  std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(gate + i);
    const __m256 denom = _mm256_add_ps(one, exp256_ps(_mm256_sub_ps(zero, g)));
    const __m256 s = _mm256_div_ps(g, denom);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(s, _mm256_loadu_ps(up + i)));
  }
  for (; i < n; ++i) {
    const float g = gate[i] / (1.0f + std::exp(-gate[i]));
    out[i] = g * up[i];
  }
}

HYBRIMOE_AVX2_FN void rmsnorm_avx2(float* v, std::size_t n, float eps) {
  if (n == 0) return;
  const double sq = dot_avx2(v, v, n);
  const auto inv =
      static_cast<float>(1.0 / std::sqrt(sq / static_cast<double>(n) + eps));
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(v + i, _mm256_mul_ps(_mm256_loadu_ps(v + i), vinv));
  for (; i < n; ++i) v[i] *= inv;
}

/// Multiply-accumulate 8 decoded codes (low 8 bytes of `codes8`) against 8
/// floats at `xp`, widening to double into the two accumulator halves.
HYBRIMOE_AVX2_FN inline void q4_mac8(__m128i codes8, const float* xp,
                                     __m256d& acc0, __m256d& acc1) {
  const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes8));
  const __m256 xv = _mm256_loadu_ps(xp);
  acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(f)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(xv)), acc0);
  acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)), acc1);
}

/// With a non-null `ahead`, every block also prefetches the block at the same
/// index of `ahead` (an equally long row further on).
HYBRIMOE_AVX2_FN double q4_dot_avx2(const Q4Block* blocks, const float* x,
                                    std::size_t n, const Q4Block* ahead = nullptr) {
  const __m128i nibble_mask = _mm_set1_epi8(0x0F);
  const __m128i bias = _mm_set1_epi8(8);
  double acc = 0.0;
  const std::size_t num_blocks = (n + Q4Block::kValues - 1) / Q4Block::kValues;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    if (ahead != nullptr)
      _mm_prefetch(reinterpret_cast<const char*>(ahead + b), _MM_HINT_T0);
    const Q4Block& block = blocks[b];
    const std::size_t base = b * Q4Block::kValues;
    const std::size_t len = std::min(Q4Block::kValues, n - base);
    double block_acc;
    if (len == Q4Block::kValues) {
      // Unpack 32 codes: byte i holds value 2i in its low nibble and value
      // 2i+1 in its high nibble, so interleaving lo/hi restores value order.
      const __m128i raw =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block.packed.data()));
      const __m128i lo = _mm_and_si128(raw, nibble_mask);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), nibble_mask);
      const __m128i v0 = _mm_sub_epi8(_mm_unpacklo_epi8(lo, hi), bias);
      const __m128i v1 = _mm_sub_epi8(_mm_unpackhi_epi8(lo, hi), bias);
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      q4_mac8(v0, x + base, acc0, acc1);
      q4_mac8(_mm_srli_si128(v0, 8), x + base + 8, acc0, acc1);
      q4_mac8(v1, x + base + 16, acc0, acc1);
      q4_mac8(_mm_srli_si128(v1, 8), x + base + 24, acc0, acc1);
      block_acc = hsum_pd(_mm256_add_pd(acc0, acc1));
    } else {
      block_acc = 0.0;
      for (std::size_t i = 0; i < len; ++i)
        block_acc += static_cast<double>(q4_code(block, i)) * x[base + i];
    }
    acc += block_acc * block.scale;
  }
  return acc;
}

/// Whole-matrix Q4 gemv: each row gets exactly q4_dot_avx2's accumulation
/// while the row kPrefetchRows ahead streams in.
HYBRIMOE_AVX2_FN void q4_gemv_avx2(const Q4Block* blocks, std::size_t rows,
                                   std::size_t blocks_per_row, const float* x,
                                   std::size_t cols, float* y) {
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = static_cast<float>(
        q4_dot_avx2(blocks + r * blocks_per_row, x, cols,
                    blocks + ahead_row(r, rows) * blocks_per_row));
}

#endif  // HYBRIMOE_SIMD_AVX2

}  // namespace

const char* to_string(IsaLevel level) noexcept {
  return level == IsaLevel::Avx2 ? "avx2" : "scalar";
}

IsaLevel compiled_level() noexcept {
#if HYBRIMOE_SIMD_AVX2
  return IsaLevel::Avx2;
#else
  return IsaLevel::Scalar;
#endif
}

IsaLevel detected_level() noexcept {
  static const IsaLevel level = probe_host();
  return level;
}

bool level_available(IsaLevel level) noexcept {
  return level == IsaLevel::Scalar || detected_level() == IsaLevel::Avx2;
}

IsaLevel active_level() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  return forced >= 0 ? static_cast<IsaLevel>(forced) : detected_level();
}

void force_level(std::optional<IsaLevel> level) {
  if (!level.has_value()) {
    g_forced.store(-1, std::memory_order_relaxed);
    return;
  }
  if (!level_available(*level))
    throw std::invalid_argument(std::string("SIMD level '") + to_string(*level) +
                                "' is not available on this build/host");
  g_forced.store(static_cast<int>(*level), std::memory_order_relaxed);
}

double dot(std::span<const float> a, std::span<const float> b) {
  HYBRIMOE_REQUIRE(a.size() == b.size(), "simd::dot length mismatch");
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) return dot_avx2(a.data(), b.data(), a.size());
#endif
  return dot_scalar(a.data(), b.data(), a.size());
}

void gemv(std::span<const float> w, std::size_t rows, std::span<const float> x,
          std::span<float> y) {
  const std::size_t cols = x.size();
  HYBRIMOE_REQUIRE(w.size() == rows * cols, "simd::gemv matrix/x shape mismatch");
  HYBRIMOE_REQUIRE(y.size() == rows, "simd::gemv output length mismatch");
  if (rows == 0) return;
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) {
    // x widened once per call, not once per row; per-thread, so concurrent
    // executor lanes never share it, and it only ever grows.
    thread_local std::vector<double> xd;
    xd.assign(x.begin(), x.end());
    gemv_avx2(w.data(), rows, xd.data(), cols, y.data());
    return;
  }
#endif
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = static_cast<float>(dot_scalar(w.data() + r * cols, x.data(), cols));
}

void silu(std::span<float> values) {
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) {
    silu_avx2(values.data(), values.size());
    return;
  }
#endif
  silu_scalar(values.data(), values.size());
}

void swiglu(std::span<const float> gate, std::span<const float> up,
            std::span<float> out) {
  HYBRIMOE_REQUIRE(gate.size() == up.size() && gate.size() == out.size(),
                   "simd::swiglu length mismatch");
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) {
    swiglu_avx2(gate.data(), up.data(), out.data(), gate.size());
    return;
  }
#endif
  swiglu_scalar(gate.data(), up.data(), out.data(), gate.size());
}

void rmsnorm(std::span<float> values, float eps) {
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) {
    rmsnorm_avx2(values.data(), values.size(), eps);
    return;
  }
#endif
  rmsnorm_scalar(values.data(), values.size(), eps);
}

double q4_dot(std::span<const Q4Block> blocks, std::span<const float> x) {
  HYBRIMOE_REQUIRE(blocks.size() * Q4Block::kValues >= x.size(),
                   "simd::q4_dot: not enough blocks");
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2)
    return q4_dot_avx2(blocks.data(), x.data(), x.size());
#endif
  return q4_dot_scalar(blocks.data(), x.data(), x.size());
}

void q4_gemv(std::span<const Q4Block> blocks, std::size_t rows,
             std::span<const float> x, std::span<float> y) {
  HYBRIMOE_REQUIRE(y.size() == rows, "simd::q4_gemv output length mismatch");
  if (rows == 0) return;
  const std::size_t blocks_per_row = blocks.size() / rows;
  HYBRIMOE_REQUIRE(blocks_per_row * rows == blocks.size() &&
                       blocks_per_row * Q4Block::kValues >= x.size(),
                   "simd::q4_gemv: blocks do not form rows covering x");
#if HYBRIMOE_SIMD_AVX2
  if (active_level() == IsaLevel::Avx2) {
    q4_gemv_avx2(blocks.data(), rows, blocks_per_row, x.data(), x.size(), y.data());
    return;
  }
#endif
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = static_cast<float>(
        q4_dot_scalar(blocks.data() + r * blocks_per_row, x.data(), x.size()));
}

}  // namespace hybrimoe::kernels::simd
